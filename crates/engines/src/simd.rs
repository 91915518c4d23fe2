//! SIMD MAC lanes of the aggregation engine.
//!
//! "Each sparse aggregator of SGCN has 16 multipliers, which can process a
//! single cache line worth of data together" (§V-D); the baseline
//! aggregator uses the same SIMD width on dense rows (§III-B, Table III:
//! 16-way SIMD).

/// A bank of SIMD MAC lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimdMacs {
    lanes: usize,
}

impl Default for SimdMacs {
    /// Table III: 16-way.
    fn default() -> Self {
        SimdMacs { lanes: 16 }
    }
}

impl SimdMacs {
    /// Cycles to stream `elements` MACs through the lanes.
    pub fn cycles_for(&self, elements: usize) -> u64 {
        elements.div_ceil(self.lanes) as u64
    }

    /// Functional dense AXPY: `acc[i] += weight * values[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn axpy(acc: &mut [f32], values: &[f32], weight: f32) {
        assert_eq!(acc.len(), values.len(), "axpy length mismatch");
        for (a, &v) in acc.iter_mut().zip(values) {
            *a += weight * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_rounding() {
        let s = SimdMacs::default();
        assert_eq!(s.cycles_for(0), 0);
        assert_eq!(s.cycles_for(1), 1);
        assert_eq!(s.cycles_for(16), 1);
        assert_eq!(s.cycles_for(17), 2);
        assert_eq!(s.cycles_for(256), 16);
    }

    #[test]
    fn axpy_accumulates() {
        let mut acc = vec![1.0, 2.0];
        SimdMacs::axpy(&mut acc, &[10.0, 20.0], 0.5);
        assert_eq!(acc, vec![6.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_mismatch_panics() {
        let mut acc = vec![0.0];
        SimdMacs::axpy(&mut acc, &[1.0, 2.0], 1.0);
    }
}
