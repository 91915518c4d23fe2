//! Coordinate-format features.
//!
//! COO stores a `(row, col, value)` triple per non-zero — 12 bytes at 32-bit
//! indices. The paper notes COO "has even more index overheads [than CSR]
//! because it stores both row and column indices for each non-zero element"
//! (§II-B); it exists here to reproduce that bar of Fig. 3.

use crate::layout::{align_up, Span, CACHELINE_BYTES};
use crate::traits::{ColRange, FeatureFormat};
use crate::DenseMatrix;

const TRIPLE_BYTES: u64 = 12;

/// Feature matrix as row-sorted COO triples with a per-row directory for
/// random access.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CooFeatures {
    rows: usize,
    cols: usize,
    /// Triples sorted by (row, col): parallel arrays for decoding.
    entry_rows: Vec<u32>,
    entry_cols: Vec<u32>,
    entry_vals: Vec<f32>,
    /// `directory[r]..directory[r+1]` indexes the row's triples.
    directory: Vec<u32>,
}

impl CooFeatures {
    /// Encodes a dense matrix into row-sorted COO.
    pub fn encode(dense: &DenseMatrix) -> Self {
        let rows = dense.rows();
        let cols = dense.cols();
        let mut entry_rows = Vec::new();
        let mut entry_cols = Vec::new();
        let mut entry_vals = Vec::new();
        let mut directory = Vec::with_capacity(rows + 1);
        directory.push(0);
        for r in 0..rows {
            for (c, &v) in dense.row_slice(r).iter().enumerate() {
                if v != 0.0 {
                    entry_rows.push(r as u32);
                    entry_cols.push(c as u32);
                    entry_vals.push(v);
                }
            }
            directory.push(entry_rows.len() as u32);
        }
        CooFeatures {
            rows,
            cols,
            entry_rows,
            entry_cols,
            entry_vals,
            directory,
        }
    }

    /// Total non-zeros stored.
    pub fn nnz(&self) -> usize {
        self.entry_vals.len()
    }

    fn row_bounds(&self, row: usize) -> (usize, usize) {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        (
            self.directory[row] as usize,
            self.directory[row + 1] as usize,
        )
    }

    /// Triples live at offset 0; the directory follows, cacheline-aligned.
    fn directory_base(&self) -> u64 {
        align_up(self.nnz() as u64 * TRIPLE_BYTES, CACHELINE_BYTES)
    }
}

impl FeatureFormat for CooFeatures {
    fn format_name(&self) -> &'static str {
        "COO"
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn capacity_bytes(&self) -> u64 {
        self.directory_base() + (self.rows as u64 + 1) * 4
    }

    fn for_each_row_span(&self, row: usize, f: &mut dyn FnMut(Span)) {
        let (s, e) = self.row_bounds(row);
        f(Span::new(self.directory_base() + row as u64 * 4, 8));
        if e > s {
            f(Span::new(
                s as u64 * TRIPLE_BYTES,
                ((e - s) as u64 * TRIPLE_BYTES) as u32,
            ));
        }
    }

    fn for_each_slice_span(&self, row: usize, _range: ColRange, f: &mut dyn FnMut(Span)) {
        // Column information is interleaved with the payload, so a column
        // window still fetches the row's full triple run.
        self.for_each_row_span(row, f);
    }

    fn decode_row(&self, row: usize) -> Vec<f32> {
        let (s, e) = self.row_bounds(row);
        let mut out = vec![0.0; self.cols];
        for i in s..e {
            out[self.entry_cols[i] as usize] = self.entry_vals[i];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrFeatures;

    fn sample() -> (DenseMatrix, CooFeatures) {
        let mut m = DenseMatrix::zeros(3, 6);
        m.set(0, 1, 1.5);
        m.set(0, 4, -0.5);
        m.set(2, 0, 2.0);
        m.set(2, 5, 3.0);
        let coo = CooFeatures::encode(&m);
        (m, coo)
    }

    #[test]
    fn roundtrip() {
        let (m, coo) = sample();
        for r in 0..m.rows() {
            assert_eq!(coo.decode_row(r), m.row(r), "row {r}");
        }
    }

    #[test]
    fn triple_overhead_exceeds_csr() {
        // COO's raw row payload (12 B/nnz) strictly exceeds CSR's (8 B/nnz).
        let (m, coo) = sample();
        let csr = CsrFeatures::encode(&m);
        let coo_raw: u64 = coo.row_spans(0).iter().map(|s| u64::from(s.bytes)).sum();
        let csr_raw: u64 = csr.row_spans(0).iter().map(|s| u64::from(s.bytes)).sum();
        assert!(coo_raw > csr_raw, "coo {coo_raw} vs csr {csr_raw}");
    }

    #[test]
    fn empty_row_costs_only_directory() {
        let (_, coo) = sample();
        let spans = coo.row_spans(1);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].bytes, 8);
    }

    #[test]
    fn slice_reads_full_row_run() {
        let (_, coo) = sample();
        assert_eq!(
            coo.slice_spans(2, ColRange::new(0, 3)),
            coo.row_spans(2),
            "column windows cannot avoid the interleaved triples"
        );
    }

    #[test]
    fn nnz_and_capacity() {
        let (_, coo) = sample();
        assert_eq!(coo.nnz(), 4);
        // 4 triples = 48 B → directory at 64; directory = 4 rows + 1 = 16 B.
        assert_eq!(coo.capacity_bytes(), 64 + 16);
    }
}
