//! Memory-layout arithmetic shared by all formats.
//!
//! The SGCN paper's traffic argument is entirely about *cacheline- and
//! burst-aligned* transfers (§IV, §V-A): a format's useful compression only
//! translates to DRAM-traffic reduction if the bytes it avoids reading fall
//! on cachelines that are never touched. This module centralises the
//! alignment math so every format and the memory simulator agree on it.

/// Cacheline size in bytes, matching the 64 B line assumed throughout the
/// paper (§V-A uses "64B cachelines"; HBM2 bursts are modelled at the same
/// granularity).
pub const CACHELINE_BYTES: u64 = 64;

/// Bytes per feature element. The evaluated accelerator uses 32-bit fixed
/// point for features and weights (Table III), so 4 bytes.
pub const ELEM_BYTES: u64 = 4;

/// A contiguous byte range in a format's private address space.
///
/// Spans are produced by [`crate::FeatureFormat`] implementations and later
/// rebased onto the simulated physical address space by the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Span {
    /// Starting byte offset.
    pub offset: u64,
    /// Length in bytes. Zero-length spans are legal and mean "no traffic".
    pub bytes: u32,
}

impl Span {
    /// Creates a span covering `bytes` bytes starting at `offset`.
    pub fn new(offset: u64, bytes: u32) -> Self {
        Span { offset, bytes }
    }

    /// The first byte past the end of the span.
    pub fn end(&self) -> u64 {
        self.offset + u64::from(self.bytes)
    }

    /// Whether the span covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes == 0
    }

    /// Number of cachelines this span touches once issued to memory.
    pub fn cachelines(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            let first = self.offset / CACHELINE_BYTES;
            let last = (self.end() - 1) / CACHELINE_BYTES;
            last - first + 1
        }
    }

    /// Traffic in bytes after rounding the span out to cacheline boundaries.
    pub fn cacheline_bytes(&self) -> u64 {
        self.cachelines() * CACHELINE_BYTES
    }
}

/// Rounds `value` up to the next multiple of `align`.
///
/// # Panics
///
/// Panics if `align` is zero.
pub fn align_up(value: u64, align: u64) -> u64 {
    assert!(align > 0, "alignment must be non-zero");
    value.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_up_basics() {
        assert_eq!(align_up(0, 64), 0);
        assert_eq!(align_up(1, 64), 64);
        assert_eq!(align_up(64, 64), 64);
        assert_eq!(align_up(65, 64), 128);
        assert_eq!(align_up(7, 1), 7);
    }

    #[test]
    #[should_panic(expected = "alignment must be non-zero")]
    fn align_up_zero_align_panics() {
        let _ = align_up(1, 0);
    }

    #[test]
    fn span_cachelines_aligned() {
        assert_eq!(Span::new(0, 64).cachelines(), 1);
        assert_eq!(Span::new(0, 65).cachelines(), 2);
        assert_eq!(Span::new(0, 128).cachelines(), 2);
    }

    #[test]
    fn span_cachelines_unaligned_crosses_boundary() {
        // 16 bytes starting at offset 56 straddles two lines.
        assert_eq!(Span::new(56, 16).cachelines(), 2);
        // The same 16 bytes aligned fits in one.
        assert_eq!(Span::new(0, 16).cachelines(), 1);
    }

    #[test]
    fn span_empty() {
        let s = Span::new(100, 0);
        assert!(s.is_empty());
        assert_eq!(s.cachelines(), 0);
        assert_eq!(s.cacheline_bytes(), 0);
    }
}
