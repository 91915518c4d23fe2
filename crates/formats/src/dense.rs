//! Dense row-major feature matrices.
//!
//! `DenseMatrix` doubles as (a) the functional representation all other
//! formats encode from / decode to, and (b) the "Dense" baseline of the
//! paper's format comparison (Fig. 3): every row occupies its full
//! `cols × 4` bytes regardless of sparsity.

use crate::layout::{Span, ELEM_BYTES};
use crate::traits::{ColRange, FeatureFormat};

/// A dense, row-major `f32` matrix.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DenseMatrix {
    /// Creates an all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        DenseMatrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> Vec<f32> {
        self.row_slice(r).to_vec()
    }

    /// Borrowed view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_slice(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of range {}", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of range {}", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(c < self.cols, "col {c} out of range {}", self.cols);
        self.row_slice(r)[c]
    }

    /// Element mutator.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(c < self.cols, "col {c} out of range {}", self.cols);
        self.row_slice_mut(r)[c] = v;
    }

    /// Underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Number of non-zero elements in the whole matrix.
    pub fn count_nonzeros(&self) -> usize {
        self.data.iter().filter(|&&v| v != 0.0).count()
    }

    /// Fraction of elements that are exactly zero — the paper's notion of
    /// feature sparsity.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        1.0 - self.count_nonzeros() as f64 / self.data.len() as f64
    }
}

impl FeatureFormat for DenseMatrix {
    fn format_name(&self) -> &'static str {
        "Dense"
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn capacity_bytes(&self) -> u64 {
        self.rows as u64 * self.cols as u64 * ELEM_BYTES
    }

    fn decode_row(&self, row: usize) -> Vec<f32> {
        self.row(row)
    }

    fn for_each_row_span(&self, row: usize, f: &mut dyn FnMut(Span)) {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        let bytes = self.cols as u64 * ELEM_BYTES;
        f(Span::new(row as u64 * bytes, bytes as u32));
    }

    fn for_each_slice_span(&self, row: usize, range: ColRange, f: &mut dyn FnMut(Span)) {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        let range = range.clamp_to(self.cols);
        let row_base = (row * self.cols) as u64 * ELEM_BYTES;
        let offset = row_base + range.start as u64 * ELEM_BYTES;
        let bytes = (range.end - range.start) as u64 * ELEM_BYTES;
        f(Span::new(offset, bytes as u32));
    }

    // Dense reads/writes are a single contiguous span, so the line run is
    // computed directly — no compactor pass.
    fn for_each_row_run(&self, row: usize, line_bytes: u64, f: &mut dyn FnMut(crate::LineRun)) {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        let bytes = self.cols as u64 * ELEM_BYTES;
        if bytes == 0 {
            return;
        }
        let offset = row as u64 * bytes;
        let first = offset / line_bytes;
        f(crate::LineRun::contiguous(
            first,
            (offset + bytes - 1) / line_bytes - first + 1,
        ));
    }

    fn for_each_slice_run(
        &self,
        row: usize,
        range: ColRange,
        line_bytes: u64,
        f: &mut dyn FnMut(crate::LineRun),
    ) {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        let range = range.clamp_to(self.cols);
        let bytes = (range.end - range.start) as u64 * ELEM_BYTES;
        if bytes == 0 {
            return;
        }
        let offset = (row * self.cols + range.start) as u64 * ELEM_BYTES;
        let first = offset / line_bytes;
        f(crate::LineRun::contiguous(
            first,
            (offset + bytes - 1) / line_bytes - first + 1,
        ));
    }

    fn for_each_write_run(&self, row: usize, line_bytes: u64, f: &mut dyn FnMut(crate::LineRun)) {
        self.for_each_row_run(row, line_bytes, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::CACHELINE_BYTES;

    fn sample() -> DenseMatrix {
        let mut m = DenseMatrix::zeros(3, 16);
        m.set(0, 0, 1.0);
        m.set(1, 8, -2.0);
        m.set(2, 15, 3.5);
        m
    }

    #[test]
    fn construction_and_access() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 16);
        assert_eq!(m.get(1, 8), -2.0);
        assert_eq!(m.count_nonzeros(), 3);
        assert!((m.sparsity() - (1.0 - 3.0 / 48.0)).abs() < 1e-12);
    }

    #[test]
    fn from_vec_roundtrip() {
        let data: Vec<f32> = (0..6).map(|x| x as f32).collect();
        let m = DenseMatrix::from_vec(2, 3, data.clone());
        assert_eq!(m.as_slice(), &data[..]);
        assert_eq!(m.row(1), vec![3.0, 4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_wrong_len_panics() {
        let _ = DenseMatrix::from_vec(2, 3, vec![0.0; 5]);
    }

    #[test]
    fn row_spans_cover_full_row() {
        let m = sample();
        let spans = m.row_spans(1);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0], Span::new(64, 64));
        assert_eq!(spans[0].cachelines(), 1);
    }

    #[test]
    fn slice_spans_subrange() {
        let m = sample();
        let spans = m.slice_spans(2, ColRange::new(4, 12));
        assert_eq!(spans, vec![Span::new(128 + 16, 32)]);
    }

    #[test]
    fn dense_traffic_ignores_sparsity() {
        // An all-zero row still costs a full row of traffic: the paper's
        // "Dense" baseline.
        let m = DenseMatrix::zeros(2, 64);
        let bytes: u64 = m.row_spans(0).iter().map(Span::cacheline_bytes).sum();
        assert_eq!(bytes, 64 * 4);
        assert_eq!(bytes % CACHELINE_BYTES, 0);
    }
}
