//! Block compressed sparse row features.
//!
//! BSR compresses at block granularity (2×2 by default): a block is stored
//! iff it contains at least one non-zero, and then it is stored *densely*.
//! The paper observes BSR "is beneficial only when there are many empty
//! blocks … GCN intermediate activations seldom exhibit such patterns"
//! (§II-B): at ~50% unstructured sparsity almost every 2×2 block has a
//! non-zero, so BSR degenerates to dense storage plus index overhead.

use crate::layout::{align_up, Span, CACHELINE_BYTES, ELEM_BYTES};
use crate::traits::{ColRange, FeatureFormat};
use crate::DenseMatrix;

/// Feature matrix in BSR with `BR×BC` blocks.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BsrFeatures {
    rows: usize,
    cols: usize,
    block_rows: usize,
    br: usize,
    bc: usize,
    /// `block_ptr[i]..block_ptr[i+1]` indexes block-row `i`'s blocks.
    block_ptr: Vec<u32>,
    /// Column-block index of each stored block.
    block_cols: Vec<u32>,
    /// Dense block payloads, `br*bc` values each, row-major within a block.
    block_vals: Vec<f32>,
}

impl BsrFeatures {
    /// Encodes with the paper's example 2×2 blocks.
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
        let mut block_ptr = Vec::with_capacity(block_rows + 1);
        let mut block_cols = Vec::new();
        let mut block_vals = Vec::new();
        block_ptr.push(0);
        for bri in 0..block_rows {
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
                    block_cols.push(bci as u32);
                    block_vals.extend_from_slice(&block);
                }
            }
            block_ptr.push(block_cols.len() as u32);
        }
        BsrFeatures {
            rows,
            cols,
            block_rows,
            br,
            bc,
            block_ptr,
            block_cols,
            block_vals,
        }
    }

    /// Number of stored (non-empty) blocks.
    pub fn stored_blocks(&self) -> usize {
        self.block_cols.len()
    }

    fn block_bytes(&self) -> u64 {
        (self.br * self.bc) as u64 * ELEM_BYTES
    }

    fn block_row_bounds(&self, row: usize) -> (usize, usize) {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        let bri = row / self.br;
        (
            self.block_ptr[bri] as usize,
            self.block_ptr[bri + 1] as usize,
        )
    }

    fn idx_base(&self) -> u64 {
        align_up((self.block_rows as u64 + 1) * 4, CACHELINE_BYTES)
    }

    fn vals_base(&self) -> u64 {
        align_up(
            self.idx_base() + self.stored_blocks() as u64 * 4,
            CACHELINE_BYTES,
        )
    }
}

impl FeatureFormat for BsrFeatures {
    fn format_name(&self) -> &'static str {
        "BSR"
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn capacity_bytes(&self) -> u64 {
        self.vals_base() + self.stored_blocks() as u64 * self.block_bytes()
    }

    fn for_each_row_span(&self, row: usize, f: &mut dyn FnMut(Span)) {
        // A row passes through every stored block of its block-row, and each
        // block is fetched whole (the zero rows of the block ride along —
        // that is BSR's cost at unstructured sparsity).
        let (s, e) = self.block_row_bounds(row);
        let bri = row / self.br;
        f(Span::new(bri as u64 * 4, 8));
        if e > s {
            f(Span::new(
                self.idx_base() + s as u64 * 4,
                ((e - s) * 4) as u32,
            ));
            f(Span::new(
                self.vals_base() + s as u64 * self.block_bytes(),
                ((e - s) as u64 * self.block_bytes()) as u32,
            ));
        }
    }

    fn for_each_slice_span(&self, row: usize, range: ColRange, f: &mut dyn FnMut(Span)) {
        let (s, e) = self.block_row_bounds(row);
        let bri = row / self.br;
        let cols = &self.block_cols[s..e];
        let lo = cols.partition_point(|&c| ((c as usize + 1) * self.bc) <= range.start);
        let hi = cols.partition_point(|&c| (c as usize * self.bc) < range.end);
        f(Span::new(bri as u64 * 4, 8));
        if e > s {
            // Scan the block-row's indices to find the window.
            f(Span::new(
                self.idx_base() + s as u64 * 4,
                ((e - s) * 4) as u32,
            ));
        }
        if hi > lo {
            f(Span::new(
                self.vals_base() + (s + lo) as u64 * self.block_bytes(),
                ((hi - lo) as u64 * self.block_bytes()) as u32,
            ));
        }
    }

    fn decode_row(&self, row: usize) -> Vec<f32> {
        let (s, e) = self.block_row_bounds(row);
        let dr = row % self.br;
        let mut out = vec![0.0; self.cols];
        for b in s..e {
            let bci = self.block_cols[b] as usize;
            for dc in 0..self.bc {
                let c = bci * self.bc + dc;
                if c < self.cols {
                    out[c] = self.block_vals[b * self.br * self.bc + dr * self.bc + dc];
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (DenseMatrix, BsrFeatures) {
        let mut m = DenseMatrix::zeros(4, 8);
        // Block (0,0) dense-ish, block (0,3) single value, block row 1 empty
        // except block (1,1).
        m.set(0, 0, 1.0);
        m.set(1, 1, 2.0);
        m.set(0, 7, 3.0);
        m.set(3, 2, 4.0);
        (m.clone(), BsrFeatures::encode(&m))
    }

    #[test]
    fn roundtrip() {
        let (m, bsr) = sample();
        for r in 0..m.rows() {
            assert_eq!(bsr.decode_row(r), m.row(r), "row {r}");
        }
    }

    #[test]
    fn stores_only_nonempty_blocks() {
        let (_, bsr) = sample();
        assert_eq!(bsr.stored_blocks(), 3);
        assert_eq!((bsr.br, bsr.bc), (2, 2));
    }

    #[test]
    fn whole_blocks_ride_along_on_row_reads() {
        let (_, bsr) = sample();
        // Row 0's block row stores 2 blocks → 2×16 B of values even though
        // row 0 only has 2 non-zeros.
        let spans = bsr.row_spans(0);
        assert_eq!(spans[2].bytes, 32);
    }

    #[test]
    fn dense_at_50pct_sparsity() {
        // Checkerboard: 50% sparse, but *every* 2×2 block is non-empty, so
        // BSR stores the full dense payload — the paper's §II-B point.
        let mut m = DenseMatrix::zeros(8, 8);
        for r in 0..8 {
            for c in 0..8 {
                if (r + c) % 2 == 0 {
                    m.set(r, c, 1.0);
                }
            }
        }
        let bsr = BsrFeatures::encode(&m);
        assert_eq!(bsr.stored_blocks(), 16); // all blocks stored
        assert!(bsr.capacity_bytes() > m.capacity_bytes());
    }

    #[test]
    fn slice_spans_select_block_window() {
        let (_, bsr) = sample();
        // Row 0 blocks at block-cols 0 and 3. Window [6,8) hits block 3 only.
        let spans = bsr.slice_spans(0, ColRange::new(6, 8));
        let vals = spans.last().unwrap();
        assert_eq!(vals.bytes, 16); // one block
    }

    #[test]
    fn uneven_dimensions() {
        let mut m = DenseMatrix::zeros(3, 5);
        m.set(2, 4, 9.0);
        let bsr = BsrFeatures::encode(&m);
        assert_eq!(bsr.decode_row(2)[4], 9.0);
        assert_eq!(bsr.decode_row(0), vec![0.0; 5]);
    }

    #[test]
    #[should_panic(expected = "block dimensions")]
    fn zero_block_dims_panic() {
        let m = DenseMatrix::zeros(2, 2);
        let _ = BsrFeatures::encode_with_blocks(&m, 0, 2);
    }
}
