//! Divide-or-shift helper for the hot address-arithmetic paths.
//!
//! Line, set, channel, bank, and row indices are all quotients/remainders
//! of the access address, computed on every simulated line/burst. The
//! geometry is almost always a power of two — precompute the shift once
//! and skip the hardware divide; fall back to real division otherwise.

#[derive(Debug, Clone, Copy)]
pub(crate) struct FastDiv {
    divisor: u64,
    /// `Some(shift)` when the divisor is a power of two.
    shift: Option<u32>,
}

impl FastDiv {
    pub(crate) fn new(divisor: u64) -> Self {
        FastDiv {
            divisor,
            shift: divisor.is_power_of_two().then(|| divisor.trailing_zeros()),
        }
    }

    #[inline(always)]
    pub(crate) fn divisor(self) -> u64 {
        self.divisor
    }

    #[inline(always)]
    pub(crate) fn div(self, x: u64) -> u64 {
        match self.shift {
            Some(s) => x >> s,
            None => x / self.divisor,
        }
    }

    #[inline(always)]
    pub(crate) fn rem(self, x: u64) -> u64 {
        match self.shift {
            Some(s) => x & ((1u64 << s) - 1),
            None => x % self.divisor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::FastDiv;

    #[test]
    fn matches_hardware_division() {
        for divisor in [1u64, 2, 3, 7, 8, 16, 64, 100, 512, 2048] {
            let d = FastDiv::new(divisor);
            for x in [0u64, 1, 63, 64, 65, 1000, 123_456_789, u64::MAX / 2] {
                assert_eq!(d.div(x), x / divisor, "{x} / {divisor}");
                assert_eq!(d.rem(x), x % divisor, "{x} % {divisor}");
                assert_eq!(d.divisor(), divisor);
            }
        }
    }
}
