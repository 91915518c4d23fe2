//! The parallel prefix-sum unit.
//!
//! In the sparse aggregator (§V-D, step 2′) the bitmap at the head of a
//! BEICSR entry "is processed by a parallel prefix sum unit to convert the
//! 1's in the bitmap to a reversed index to the non-zero values". This is
//! the only extra logic SGCN adds to the baseline aggregator (§V-F). We
//! model a Kogge–Stone scan: `log2(width)` stages of `width` adders.

use sgcn_formats::Bitmap;

/// A fixed-width parallel prefix-sum (scan) unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrefixSumUnit {
    width: usize,
}

impl PrefixSumUnit {
    /// Creates a unit over `width` bitmap bits (one cacheline's worth of
    /// elements in the paper's design).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "prefix-sum width must be non-zero");
        PrefixSumUnit { width }
    }

    /// Exclusive scan over the first `width` bits of `bitmap`: `out[i]` is
    /// the packed-value index of element `i` (valid where the bit is set).
    /// Implemented as the hardware's Kogge–Stone network would compute it.
    pub fn scan(&self, bitmap: &Bitmap) -> Vec<u32> {
        let n = self.width.min(bitmap.len());
        // Inclusive Kogge–Stone...
        let mut incl: Vec<u32> = (0..n).map(|i| u32::from(bitmap.get(i))).collect();
        let mut shift = 1;
        while shift < n {
            let prev = incl.clone();
            for i in shift..n {
                incl[i] += prev[i - shift];
            }
            shift <<= 1;
        }
        // ...converted to the exclusive form the accumulator indexes with.
        let mut out = vec![0u32; n];
        if n > 1 {
            out[1..n].copy_from_slice(&incl[..n - 1]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_software_reference() {
        let bm = Bitmap::from_values(&[1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0]);
        let unit = PrefixSumUnit::new(8);
        assert_eq!(unit.scan(&bm), bm.prefix_sums());
    }

    #[test]
    fn paper_example() {
        // Fig. 8: bitmap 1 0 1 1 0 → reversed indices 0 _ 1 2 _.
        let bm = Bitmap::from_values(&[1.0, 0.0, 2.0, 3.0, 0.0]);
        let unit = PrefixSumUnit::new(5);
        let scan = unit.scan(&bm);
        assert_eq!(scan[0], 0);
        assert_eq!(scan[2], 1);
        assert_eq!(scan[3], 2);
    }

    #[test]
    fn wider_bitmap_than_unit_truncates() {
        let bm = Bitmap::from_values(&[1.0; 32]);
        let unit = PrefixSumUnit::new(16);
        let scan = unit.scan(&bm);
        assert_eq!(scan.len(), 16);
        assert_eq!(scan[15], 15);
    }

    #[test]
    fn all_zero_bitmap_scans_to_zero() {
        let bm = Bitmap::new(16);
        let unit = PrefixSumUnit::new(16);
        assert!(unit.scan(&bm).iter().all(|&v| v == 0));
    }
}
