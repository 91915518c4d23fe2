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

    /// Encodes with `br×bc` blocks: one pass counts the non-empty blocks
    /// so the arrays are allocated exactly (plus one slot of slack), a
    /// second stores every block at a running counter that advances only
    /// past non-empty ones — no per-block allocation or branch.
    ///
    /// # Panics
    ///
    /// Panics if `br` or `bc` is zero.
    pub fn encode_with_blocks(dense: &DenseMatrix, br: usize, bc: usize) -> Self {
        let mut grid = BlockGrid::new(dense, br, bc);
        let block_rows = grid.block_rows();
        let stored: usize = (0..block_rows).map(|bri| grid.stored_in(bri)).sum();
        let bs = br * bc;
        let mut block_ptr = Vec::with_capacity(block_rows + 1);
        let mut block_cols = vec![0u32; stored + 1];
        let mut block_vals = vec![0.0f32; (stored + 1) * bs];
        let mut k = 0;
        block_ptr.push(0);
        for bri in 0..block_rows {
            let (strip, any) = grid.strip(bri);
            for (bci, (block, &nz)) in strip.chunks_exact(bs).zip(any).enumerate() {
                block_cols[k] = bci as u32;
                block_vals[k * bs..(k + 1) * bs].copy_from_slice(block);
                k += usize::from(nz);
            }
            block_ptr.push(k as u32);
        }
        block_cols.truncate(stored);
        block_vals.truncate(stored * bs);
        Self::from_parts(
            dense.rows(),
            dense.cols(),
            br,
            bc,
            block_ptr,
            block_cols,
            block_vals,
        )
    }

    /// Assembles BSR features with `br×bc` blocks from their arrays: one
    /// pointer per block-row (plus one) into the stored blocks' column
    /// indices and their dense, row-major payloads.
    ///
    /// # Panics
    ///
    /// Panics if `br` or `bc` is zero or the arrays' lengths disagree with
    /// each other or the shape.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        br: usize,
        bc: usize,
        block_ptr: Vec<u32>,
        block_cols: Vec<u32>,
        block_vals: Vec<f32>,
    ) -> Self {
        assert!(br > 0 && bc > 0, "block dimensions must be non-zero");
        let block_rows = rows.div_ceil(br);
        assert!(
            block_ptr.len() == block_rows + 1
                && block_ptr[block_rows] as usize == block_cols.len()
                && block_vals.len() == block_cols.len() * br * bc,
            "block pointers must end at the block count, with br·bc values per block"
        );
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

/// The `br×bc` block grid of a dense matrix, gathered one block-row at a
/// time into a reused strip buffer — the block encoders' shared front end.
/// Each element is scattered to its block through a per-column map, so
/// the inner loops run over whole rows rather than `bc`-wide fragments.
pub(crate) struct BlockGrid<'a> {
    dense: &'a DenseMatrix,
    br: usize,
    bc: usize,
    /// The block-column of each column.
    block_of: Vec<u32>,
    /// The current block-row's blocks, each `br·bc` values, row-major.
    strip: Vec<f32>,
    /// Whether each block of the current block-row holds a non-zero.
    any: Vec<bool>,
}

impl<'a> BlockGrid<'a> {
    /// A grid of `br×bc` blocks over `dense`.
    pub(crate) fn new(dense: &'a DenseMatrix, br: usize, bc: usize) -> Self {
        assert!(br > 0 && bc > 0, "block dimensions must be non-zero");
        let blocks = dense.cols().div_ceil(bc);
        BlockGrid {
            dense,
            br,
            bc,
            block_of: (0..dense.cols()).map(|c| (c / bc) as u32).collect(),
            strip: vec![0.0; blocks * br * bc],
            any: vec![false; blocks],
        }
    }

    pub(crate) fn block_rows(&self) -> usize {
        self.dense.rows().div_ceil(self.br)
    }

    /// The matrix rows of block-row `bri`.
    fn rows_of(&self, bri: usize) -> std::ops::Range<usize> {
        bri * self.br..(bri * self.br + self.br).min(self.dense.rows())
    }

    /// How many blocks of block-row `bri` hold a non-zero.
    pub(crate) fn stored_in(&mut self, bri: usize) -> usize {
        self.any.fill(false);
        for r in self.rows_of(bri) {
            for (&b, &v) in self.block_of.iter().zip(self.dense.row_slice(r)) {
                self.any[b as usize] |= v != 0.0;
            }
        }
        self.any.iter().filter(|&&any| any).count()
    }

    /// Gathers block-row `bri`: its blocks' payloads, one `br·bc` chunk
    /// per block-column, and whether each holds a non-zero. Elements past
    /// a ragged matrix edge read as zero, and `-0.0` is stored as `+0.0`,
    /// so a payload depends only on the values that compare non-zero.
    pub(crate) fn strip(&mut self, bri: usize) -> (&[f32], &[bool]) {
        let (br, bc) = (self.br, self.bc);
        let rows = self.rows_of(bri);
        // Cells past the last column are never written and stay zero;
        // rows past the last matrix row still hold the previous strip's.
        if rows.len() < br {
            self.strip.fill(0.0);
        }
        self.any.fill(false);
        // Column `c` of block `b` sits at `b·br·bc + c % bc`, which is
        // `c + b·(br - 1)·bc`.
        let skip = (br - 1) * bc;
        for (dr, r) in rows.enumerate() {
            let strip = &mut self.strip[dr * bc..];
            let cells = self
                .block_of
                .iter()
                .enumerate()
                .zip(self.dense.row_slice(r));
            for ((c, &b), &v) in cells {
                strip[c + b as usize * skip] = v + 0.0;
                self.any[b as usize] |= v != 0.0;
            }
        }
        (&self.strip, &self.any)
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
