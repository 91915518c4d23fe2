//! Blocked ELLPACK features.
//!
//! ELLPACK pads every (block-)row to the maximum number of stored blocks in
//! the matrix so rows have uniform width — friendly to SIMD hardware, but at
//! unstructured ~50% sparsity the padding makes it strictly worse than BSR:
//! the densest block-row dictates everyone's storage. This reproduces the
//! "Blocked Ellpack" bar of the paper's Fig. 3.

use crate::layout::{Span, ELEM_BYTES};
use crate::traits::{ColRange, FeatureFormat};
use crate::DenseMatrix;

/// Sentinel block-column index marking a padded slot.
const PAD: u32 = u32::MAX;

/// Feature matrix in blocked ELLPACK with `BR×BC` blocks and uniform row
/// width `K` (max stored blocks over all block-rows).
///
/// Layout: block-row-major array of `K` slots, each slot = 4 B block-column
/// index + `BR·BC·4` B dense payload.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BlockedEllpack {
    rows: usize,
    cols: usize,
    br: usize,
    bc: usize,
    k: usize,
    /// `block_rows * k` slot indices (PAD for padding).
    slot_cols: Vec<u32>,
    /// `block_rows * k * br * bc` values.
    slot_vals: Vec<f32>,
}

impl BlockedEllpack {
    /// Encodes with 2×2 blocks.
    pub fn encode(dense: &DenseMatrix) -> Self {
        Self::encode_with_blocks(dense, 2, 2)
    }

    /// Encodes with `br×bc` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `br` or `bc` is zero.
    pub fn encode_with_blocks(dense: &DenseMatrix, br: usize, bc: usize) -> Self {
        assert!(br > 0 && bc > 0, "block dimensions must be non-zero");
        let rows = dense.rows();
        let cols = dense.cols();
        let block_rows = rows.div_ceil(br);
        let block_cols_n = cols.div_ceil(bc);

        // First pass: collect non-empty blocks per block-row.
        let mut per_row: Vec<Vec<(u32, Vec<f32>)>> = Vec::with_capacity(block_rows);
        for bri in 0..block_rows {
            let mut blocks = Vec::new();
            for bci in 0..block_cols_n {
                let mut block = vec![0.0f32; br * bc];
                let mut any = false;
                for dr in 0..br {
                    let r = bri * br + dr;
                    if r >= rows {
                        continue;
                    }
                    for dc in 0..bc {
                        let c = bci * bc + dc;
                        if c >= cols {
                            continue;
                        }
                        let v = dense.get(r, c);
                        if v != 0.0 {
                            any = true;
                        }
                        block[dr * bc + dc] = v;
                    }
                }
                if any {
                    blocks.push((bci as u32, block));
                }
            }
            per_row.push(blocks);
        }
        let k = per_row.iter().map(Vec::len).max().unwrap_or(0);

        let mut slot_cols = vec![PAD; block_rows * k];
        let mut slot_vals = vec![0.0f32; block_rows * k * br * bc];
        for (bri, blocks) in per_row.iter().enumerate() {
            for (slot, (bci, block)) in blocks.iter().enumerate() {
                slot_cols[bri * k + slot] = *bci;
                let base = (bri * k + slot) * br * bc;
                slot_vals[base..base + br * bc].copy_from_slice(block);
            }
        }
        BlockedEllpack {
            rows,
            cols,
            br,
            bc,
            k,
            slot_cols,
            slot_vals,
        }
    }

    fn slot_bytes(&self) -> u64 {
        4 + (self.br * self.bc) as u64 * ELEM_BYTES
    }

    fn block_row_of(&self, row: usize) -> usize {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        row / self.br
    }
}

impl FeatureFormat for BlockedEllpack {
    fn format_name(&self) -> &'static str {
        "Blocked Ellpack"
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn capacity_bytes(&self) -> u64 {
        (self.rows.div_ceil(self.br) * self.k) as u64 * self.slot_bytes()
    }

    fn for_each_row_span(&self, row: usize, f: &mut dyn FnMut(Span)) {
        // Uniform width: the whole K-slot block-row is fetched. No row
        // pointer is needed — that is ELLPACK's one saving.
        let bri = self.block_row_of(row);
        let bytes = self.k as u64 * self.slot_bytes();
        if bytes == 0 {
            return;
        }
        f(Span::new(bri as u64 * bytes, bytes as u32));
    }

    fn for_each_slice_span(&self, row: usize, _range: ColRange, f: &mut dyn FnMut(Span)) {
        // Slots are not column-sorted after padding; the hardware scans the
        // fixed-width row. Same cost as a full-row read.
        self.for_each_row_span(row, f);
    }

    fn decode_row(&self, row: usize) -> Vec<f32> {
        let bri = self.block_row_of(row);
        let dr = row % self.br;
        let mut out = vec![0.0; self.cols];
        for slot in 0..self.k {
            let bci = self.slot_cols[bri * self.k + slot];
            if bci == PAD {
                continue;
            }
            let base = (bri * self.k + slot) * self.br * self.bc;
            for dc in 0..self.bc {
                let c = bci as usize * self.bc + dc;
                if c < self.cols {
                    out[c] = self.slot_vals[base + dr * self.bc + dc];
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (DenseMatrix, BlockedEllpack) {
        let mut m = DenseMatrix::zeros(4, 8);
        m.set(0, 0, 1.0);
        m.set(0, 3, 2.0);
        m.set(0, 6, 3.0); // block row 0: 3 blocks
        m.set(2, 5, 4.0); // block row 1: 1 block
        (m.clone(), BlockedEllpack::encode(&m))
    }

    #[test]
    fn roundtrip() {
        let (m, ell) = sample();
        for r in 0..m.rows() {
            assert_eq!(ell.decode_row(r), m.row(r), "row {r}");
        }
    }

    #[test]
    fn padded_to_max_row() {
        let (_, ell) = sample();
        assert_eq!(ell.k, 3);
        // Block row 1 has one real block but pays for 3.
        let spans = ell.row_spans(2);
        assert_eq!(spans[0].bytes as u64, 3 * (4 + 16));
    }

    #[test]
    fn uniform_row_cost() {
        let (_, ell) = sample();
        let b0: u64 = ell.row_spans(0).iter().map(|s| u64::from(s.bytes)).sum();
        let b2: u64 = ell.row_spans(2).iter().map(|s| u64::from(s.bytes)).sum();
        assert_eq!(b0, b2, "ELLPACK rows cost the same regardless of fill");
    }

    #[test]
    fn empty_matrix_has_zero_slots() {
        let m = DenseMatrix::zeros(4, 4);
        let ell = BlockedEllpack::encode(&m);
        assert_eq!(ell.k, 0);
        assert_eq!(ell.capacity_bytes(), 0);
        assert!(ell.row_spans(0).is_empty());
        assert_eq!(ell.decode_row(3), vec![0.0; 4]);
    }

    #[test]
    fn padded_row_costs_more_than_bsr_under_skew() {
        use crate::BsrFeatures;
        use crate::FeatureFormat as _;
        let (m, ell) = sample();
        let bsr = BsrFeatures::encode(&m);
        // Row 2's block-row holds one real block; ELLPACK pads it to 3 and
        // pays the padded traffic, BSR reads just the stored block.
        let ell_raw: u64 = ell.row_spans(2).iter().map(|s| u64::from(s.bytes)).sum();
        let bsr_raw: u64 = bsr.row_spans(2).iter().map(|s| u64::from(s.bytes)).sum();
        assert!(ell_raw > bsr_raw, "ellpack {ell_raw} vs bsr {bsr_raw}");
    }
}
