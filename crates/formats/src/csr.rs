//! Compressed sparse row features — the naïve alternative the paper argues
//! against (§II-B, §V-A).
//!
//! CSR stores one 32-bit column index per non-zero plus a row-pointer array.
//! At the ~50% sparsity of deep-GCN intermediate features the index overhead
//! equals the value payload, so CSR *increases* traffic relative to dense
//! storage — the effect Fig. 3 shows. CSR only wins beyond ~90% sparsity
//! (Fig. 19), which is also why SGCN still uses CSR for the ultra-sparse
//! one-hot *input* layer (§VII-B).

use crate::layout::{align_up, Span, CACHELINE_BYTES, ELEM_BYTES};
use crate::traits::{ColRange, FeatureFormat};
use crate::DenseMatrix;

/// Feature matrix in CSR: `row_ptr`, `col_idx`, `values` arrays laid out
/// back-to-back (each cacheline-aligned).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CsrFeatures {
    rows: usize,
    cols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl CsrFeatures {
    /// Encodes a dense matrix into CSR: counts the non-zeros, allocates
    /// the index and value arrays exactly (plus one slot of slack), then
    /// stores every element at a running counter that advances by
    /// `(v != 0.0)` — one branch-free pass (the compressor kernel of
    /// §V-E, with a column index in place of the bitmap bit).
    pub fn encode(dense: &DenseMatrix) -> Self {
        let nnz = dense.count_nonzeros();
        let mut row_ptr = Vec::with_capacity(dense.rows() + 1);
        let mut col_idx = vec![0u32; nnz + 1];
        let mut values = vec![0.0f32; nnz + 1];
        let mut n = 0;
        row_ptr.push(0);
        for r in 0..dense.rows() {
            for (c, &v) in dense.row_slice(r).iter().enumerate() {
                col_idx[n] = c as u32;
                values[n] = v;
                n += usize::from(v != 0.0);
            }
            row_ptr.push(n as u32);
        }
        col_idx.truncate(nnz);
        values.truncate(nnz);
        Self::from_parts(dense.rows(), dense.cols(), row_ptr, col_idx, values)
    }

    /// Assembles CSR features from their arrays: `rows + 1` row pointers
    /// into the parallel column-index and value arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays' lengths disagree with each other or `rows`.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        assert_eq!(row_ptr.len(), rows + 1, "one row pointer per row, plus one");
        assert_eq!(col_idx.len(), values.len(), "one column index per value");
        assert_eq!(
            row_ptr[rows] as usize,
            values.len(),
            "row pointers end at nnz"
        );
        CsrFeatures {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Total non-zeros stored.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column indices of `row`.
    pub fn row_cols(&self, row: usize) -> &[u32] {
        let (s, e) = self.row_bounds(row);
        &self.col_idx[s..e]
    }

    /// Values of `row`.
    pub fn row_values(&self, row: usize) -> &[f32] {
        let (s, e) = self.row_bounds(row);
        &self.values[s..e]
    }

    fn row_bounds(&self, row: usize) -> (usize, usize) {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        (self.row_ptr[row] as usize, self.row_ptr[row + 1] as usize)
    }

    fn col_idx_base(&self) -> u64 {
        align_up((self.rows as u64 + 1) * 4, CACHELINE_BYTES)
    }

    fn values_base(&self) -> u64 {
        align_up(self.col_idx_base() + self.nnz() as u64 * 4, CACHELINE_BYTES)
    }
}

impl FeatureFormat for CsrFeatures {
    fn format_name(&self) -> &'static str {
        "CSR"
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn capacity_bytes(&self) -> u64 {
        self.values_base() + self.nnz() as u64 * ELEM_BYTES
    }

    fn for_each_row_span(&self, row: usize, f: &mut dyn FnMut(Span)) {
        let (s, e) = self.row_bounds(row);
        let nnz = (e - s) as u64;
        f(Span::new(row as u64 * 4, 8)); // row_ptr[r], row_ptr[r+1]
        if nnz > 0 {
            f(Span::new(
                self.col_idx_base() + s as u64 * 4,
                (nnz * 4) as u32,
            ));
            f(Span::new(
                self.values_base() + s as u64 * 4,
                (nnz * 4) as u32,
            ));
        }
    }

    fn for_each_slice_span(&self, row: usize, range: ColRange, f: &mut dyn FnMut(Span)) {
        let (s, e) = self.row_bounds(row);
        let cols = self.row_cols(row);
        let lo = cols.partition_point(|&c| (c as usize) < range.start);
        let hi = cols.partition_point(|&c| (c as usize) < range.end);
        f(Span::new(row as u64 * 4, 8));
        if e > s {
            f(Span::new(
                self.col_idx_base() + s as u64 * 4,
                ((e - s) * 4) as u32,
            ));
        }
        if hi > lo {
            f(Span::new(
                self.values_base() + (s + lo) as u64 * 4,
                ((hi - lo) * 4) as u32,
            ));
        }
    }

    fn decode_row(&self, row: usize) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for (&c, &v) in self.row_cols(row).iter().zip(self.row_values(row)) {
            out[c as usize] = v;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (DenseMatrix, CsrFeatures) {
        // The example of the paper's Fig. 6a.
        let mut m = DenseMatrix::zeros(4, 8);
        for (r, c, v) in [
            (0, 1, 7.0),
            (0, 4, 2.0),
            (0, 5, 3.0),
            (1, 7, 5.0),
            (1, 2, 1.0),
            (1, 6, 4.0),
            (2, 0, 1.0),
            (2, 1, 2.0),
            (2, 3, 3.0),
            (3, 1, 9.0),
            (3, 3, 8.0),
            (3, 5, 7.0),
        ] {
            m.set(r, c, v);
        }
        let csr = CsrFeatures::encode(&m);
        (m, csr)
    }

    #[test]
    fn roundtrip_all_rows() {
        let (m, csr) = sample();
        for r in 0..m.rows() {
            assert_eq!(csr.decode_row(r), m.row(r), "row {r}");
        }
    }

    #[test]
    fn nnz_counts() {
        let (_, csr) = sample();
        assert_eq!(csr.nnz(), 12);
        assert_eq!(csr.row_cols(0).len(), 3);
        assert_eq!(csr.row_cols(1), &[2, 6, 7]);
    }

    #[test]
    fn row_spans_have_index_overhead() {
        let (_, csr) = sample();
        let spans = csr.row_spans(0);
        // row_ptr 8B + indices 12B + values 12B
        let raw: u64 = spans.iter().map(|s| u64::from(s.bytes)).sum();
        assert_eq!(raw, 8 + 12 + 12);
        // CSR pays one extra u32 per non-zero vs the pure value payload —
        // index bytes equal value bytes.
        assert_eq!(spans[1].bytes, spans[2].bytes);
    }

    #[test]
    fn empty_row_touches_only_row_ptr() {
        let m = DenseMatrix::zeros(3, 8);
        let csr = CsrFeatures::encode(&m);
        let spans = csr.row_spans(1);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].bytes, 8);
        assert_eq!(csr.decode_row(1), vec![0.0; 8]);
    }

    #[test]
    fn slice_spans_scan_indices_fetch_value_window() {
        let (_, csr) = sample();
        // Row 0 non-zeros at cols 1, 4, 5. Window [4, 8) holds 2 of them.
        let spans = csr.slice_spans(0, ColRange::new(4, 8));
        // row_ptr + full index run + 2-value window
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].bytes, 12);
        assert_eq!(spans[2].bytes, 8);
    }

    #[test]
    fn slice_window_with_no_nonzeros() {
        let (_, csr) = sample();
        // Row 1 non-zeros at 2, 6, 7; window [3, 6) is empty.
        let spans = csr.slice_spans(1, ColRange::new(3, 6));
        assert_eq!(spans.len(), 2); // no value span
    }

    #[test]
    fn capacity_accounts_three_arrays() {
        let (_, csr) = sample();
        // 5 row ptrs (20 B → 64 aligned), 12 idx (48 → next region at 128),
        // 12 values.
        assert_eq!(csr.capacity_bytes(), 128 + 48);
    }
}
