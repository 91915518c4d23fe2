//! Ablation variants of BEICSR isolating its two structural design
//! choices (§V-A):
//!
//! * [`SeparateBitmapCsr`] — same bitmap index and packed values, but the
//!   bitmaps live in a *separate* index array instead of being embedded at
//!   the head of each row. The paper argues embedding wins because "the
//!   accesses to the bit vector index are almost always followed by the
//!   non-zero values": a separate array costs one extra (usually
//!   unshared) cacheline per row access.
//! * [`PackedBeicsr`] — embedded bitmaps, but rows are stored
//!   back-to-back at their *compressed* length with a row-pointer
//!   indirection array instead of in place. Capacity shrinks, but row
//!   starts lose cacheline alignment, an indirection array must be read
//!   per access, and parallel writes would serialize (the paper's §V-A
//!   "in-place" argument).
//!
//! Neither variant is part of SGCN proper; they exist so the design
//! claims can be measured (see `sgcn_fig ablation_beicsr` in `sgcn-bench`).

use crate::bitmap::Bitmap;
use crate::layout::{align_up, Span, CACHELINE_BYTES, ELEM_BYTES};
use crate::traits::{ColRange, FeatureFormat};
use crate::DenseMatrix;

/// BEICSR with the bitmap index split into a separate array (ablation of
/// the "embedded" choice).
#[derive(Debug, Clone, PartialEq)]
pub struct SeparateBitmapCsr {
    rows: usize,
    cols: usize,
    bitmap_bytes_per_row: u64,
    /// Reserved per-row value capacity (in place, like BEICSR).
    slot_bytes: u64,
    bitmaps: Vec<Bitmap>,
    values: Vec<f32>,
    nnz: Vec<u32>,
}

impl SeparateBitmapCsr {
    /// Encodes a dense matrix with BEICSR's compressor kernel: each row
    /// in one branch-free pass into its in-place value slot, whose tail
    /// past the non-zeros stays zero.
    pub fn encode(dense: &DenseMatrix) -> Self {
        let (rows, cols) = (dense.rows(), dense.cols());
        let mut bitmaps = Vec::with_capacity(rows);
        let mut values = vec![0.0f32; rows * cols];
        let mut nnz = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = dense.row_slice(r);
            let dst = &mut values[r * cols..(r + 1) * cols];
            let mut bm = Bitmap::new(cols);
            let n = bm.compress(row, dst);
            dst[n..].fill(0.0);
            nnz.push(n as u32);
            bitmaps.push(bm);
        }
        Self::from_parts(rows, cols, bitmaps, values, nnz)
    }

    /// Assembles the variant from its per-row bitmaps, non-zero counts and
    /// in-place value slots (`cols` values per row, packed non-zeros first
    /// and zeros after them).
    ///
    /// # Panics
    ///
    /// Panics if an array's length or a bitmap's width disagrees with the
    /// shape.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        bitmaps: Vec<Bitmap>,
        values: Vec<f32>,
        nnz: Vec<u32>,
    ) -> Self {
        assert_eq!(nnz.len(), rows, "one non-zero count per row");
        assert_eq!(values.len(), rows * cols, "cols values per row");
        assert!(
            bitmaps.len() == rows && bitmaps.iter().all(|bm| bm.len() == cols),
            "one bitmap per row, as wide as the row"
        );
        SeparateBitmapCsr {
            rows,
            cols,
            bitmap_bytes_per_row: (cols as u64).div_ceil(8),
            slot_bytes: align_up(cols as u64 * ELEM_BYTES, CACHELINE_BYTES),
            bitmaps,
            values,
            nnz,
        }
    }

    /// The bitmap-index region lives at offset 0; one bitmap per row,
    /// packed (this is exactly the layout the paper argues against: a
    /// row's index and its values land on unrelated cachelines).
    fn bitmap_offset(&self, row: usize) -> u64 {
        row as u64 * self.bitmap_bytes_per_row
    }

    fn values_base(&self) -> u64 {
        align_up(
            self.rows as u64 * self.bitmap_bytes_per_row,
            CACHELINE_BYTES,
        )
    }

    fn value_offset(&self, row: usize) -> u64 {
        self.values_base() + row as u64 * self.slot_bytes
    }
}

impl FeatureFormat for SeparateBitmapCsr {
    fn format_name(&self) -> &'static str {
        "Separate-bitmap CSR"
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn capacity_bytes(&self) -> u64 {
        self.values_base() + self.rows as u64 * self.slot_bytes
    }

    fn for_each_row_span(&self, row: usize, f: &mut dyn FnMut(Span)) {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        f(Span::new(
            self.bitmap_offset(row),
            self.bitmap_bytes_per_row as u32,
        ));
        let nnz = u64::from(self.nnz[row]);
        if nnz > 0 {
            f(Span::new(self.value_offset(row), (nnz * ELEM_BYTES) as u32));
        }
    }

    fn for_each_slice_span(&self, row: usize, range: ColRange, f: &mut dyn FnMut(Span)) {
        let range = range.clamp_to(self.cols);
        if range.is_empty() {
            return;
        }
        let bm = &self.bitmaps[row];
        let lo = bm.rank(range.start);
        let hi = bm.rank(range.end);
        f(Span::new(
            self.bitmap_offset(row),
            self.bitmap_bytes_per_row as u32,
        ));
        if hi > lo {
            f(Span::new(
                self.value_offset(row) + lo as u64 * ELEM_BYTES,
                ((hi - lo) as u64 * ELEM_BYTES) as u32,
            ));
        }
    }

    fn decode_row(&self, row: usize) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for (k, i) in self.bitmaps[row].iter_ones().enumerate() {
            out[i] = self.values[row * self.cols + k];
        }
        out
    }
}

/// BEICSR with packed (variable-length) rows plus a row-pointer array
/// (ablation of the "in-place" choice).
#[derive(Debug, Clone, PartialEq)]
pub struct PackedBeicsr {
    rows: usize,
    cols: usize,
    bitmap_bytes_per_row: u64,
    /// Byte offset of each row's compressed record (bitmap + values),
    /// packed back-to-back with no alignment.
    row_offsets: Vec<u64>,
    bitmaps: Vec<Bitmap>,
    values: Vec<f32>,
    value_starts: Vec<u32>,
}

impl PackedBeicsr {
    /// Encodes a dense matrix with BEICSR's compressor kernel: counts the
    /// non-zeros, allocates the packed value array exactly (plus one slot
    /// of slack), then compresses each row in one branch-free pass to the
    /// end of the previous one.
    pub fn encode(dense: &DenseMatrix) -> Self {
        let (rows, cols) = (dense.rows(), dense.cols());
        let nnz = dense.count_nonzeros();
        let mut bitmaps = Vec::with_capacity(rows);
        let mut values = vec![0.0f32; nnz + 1];
        let mut value_starts = Vec::with_capacity(rows);
        let mut start = 0;
        for r in 0..rows {
            let mut bm = Bitmap::new(cols);
            value_starts.push(start as u32);
            start += bm.compress(dense.row_slice(r), &mut values[start..]);
            bitmaps.push(bm);
        }
        values.truncate(nnz);
        Self::from_parts(rows, cols, bitmaps, values, value_starts)
    }

    /// Assembles the variant from its per-row bitmaps and the packed
    /// non-zeros, row `r`'s starting at `value_starts[r]`; the records'
    /// byte offsets follow from the bitmaps' populations.
    ///
    /// # Panics
    ///
    /// Panics if an array's length or a bitmap's width disagrees with the
    /// shape.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        bitmaps: Vec<Bitmap>,
        values: Vec<f32>,
        value_starts: Vec<u32>,
    ) -> Self {
        assert_eq!(value_starts.len(), rows, "one value start per row");
        assert!(
            bitmaps.len() == rows && bitmaps.iter().all(|bm| bm.len() == cols),
            "one bitmap per row, as wide as the row"
        );
        let bitmap_bytes_per_row = (cols as u64).div_ceil(8);
        let mut row_offsets = Vec::with_capacity(rows + 1);
        let mut offset = 0u64;
        row_offsets.push(offset);
        for bm in &bitmaps {
            offset += bitmap_bytes_per_row + bm.count_ones() as u64 * ELEM_BYTES;
            row_offsets.push(offset);
        }
        assert_eq!(
            offset - rows as u64 * bitmap_bytes_per_row,
            values.len() as u64 * ELEM_BYTES,
            "one packed value per set bit"
        );
        PackedBeicsr {
            rows,
            cols,
            bitmap_bytes_per_row,
            row_offsets,
            bitmaps,
            values,
            value_starts,
        }
    }

    /// The row-pointer (indirection) array lives after the packed data.
    fn indirection_base(&self) -> u64 {
        align_up(self.row_offsets[self.rows], CACHELINE_BYTES)
    }

    fn record_bytes(&self, row: usize) -> u64 {
        self.row_offsets[row + 1] - self.row_offsets[row]
    }
}

impl FeatureFormat for PackedBeicsr {
    fn format_name(&self) -> &'static str {
        "Packed BEICSR"
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn capacity_bytes(&self) -> u64 {
        // Packed data + the indirection array — the capacity win the
        // paper forgoes.
        self.indirection_base() + (self.rows as u64 + 1) * 8
    }

    fn for_each_row_span(&self, row: usize, f: &mut dyn FnMut(Span)) {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        // Indirection lookup first (two row pointers), then the unaligned
        // packed record.
        f(Span::new(self.indirection_base() + row as u64 * 8, 16));
        f(Span::new(
            self.row_offsets[row],
            self.record_bytes(row) as u32,
        ));
    }

    fn for_each_slice_span(&self, row: usize, range: ColRange, f: &mut dyn FnMut(Span)) {
        let range = range.clamp_to(self.cols);
        if range.is_empty() {
            return;
        }
        let bm = &self.bitmaps[row];
        let lo = bm.rank(range.start);
        let hi = bm.rank(range.end);
        let base = self.row_offsets[row];
        f(Span::new(self.indirection_base() + row as u64 * 8, 16));
        f(Span::new(base, self.bitmap_bytes_per_row as u32));
        if hi > lo {
            f(Span::new(
                base + self.bitmap_bytes_per_row + lo as u64 * ELEM_BYTES,
                ((hi - lo) as u64 * ELEM_BYTES) as u32,
            ));
        }
    }

    fn decode_row(&self, row: usize) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        let start = self.value_starts[row] as usize;
        for (k, i) in self.bitmaps[row].iter_ones().enumerate() {
            out[i] = self.values[start + k];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Beicsr, BeicsrConfig};

    fn sample(rows: usize, cols: usize) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if (r * 31 + c * 7) % 2 == 0 {
                    m.set(r, c, (r * cols + c) as f32 + 0.5);
                }
            }
        }
        m
    }

    #[test]
    fn separate_bitmap_roundtrip() {
        let m = sample(6, 100);
        let f = SeparateBitmapCsr::encode(&m);
        for r in 0..6 {
            assert_eq!(f.decode_row(r), m.row(r), "row {r}");
        }
    }

    #[test]
    fn packed_roundtrip() {
        let m = sample(6, 100);
        let f = PackedBeicsr::encode(&m);
        for r in 0..6 {
            assert_eq!(f.decode_row(r), m.row(r), "row {r}");
        }
    }

    /// Irregular per-row density (≈44%, varying) so record sizes don't sit
    /// exactly on cacheline boundaries.
    fn sample_irregular(rows: usize, cols: usize) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if (r * 31 + c * 7 + r * c) % 9 < 4 {
                    m.set(r, c, (r + c) as f32 + 0.25);
                }
            }
        }
        m
    }

    #[test]
    fn separate_bitmap_costs_an_extra_line_per_row() {
        // The embedded layout touches fewer cachelines per random row
        // access than the separate-index layout — the §V-A locality claim.
        let m = sample_irregular(64, 256);
        let embedded = Beicsr::encode(&m, BeicsrConfig::non_sliced());
        let separate = SeparateBitmapCsr::encode(&m);
        let lines = |spans: Vec<Span>| spans.iter().map(Span::cachelines).sum::<u64>();
        let mut emb = 0u64;
        let mut sep = 0u64;
        for r in 0..64 {
            emb += lines(embedded.row_spans(r));
            sep += lines(separate.row_spans(r));
        }
        assert!(sep > emb, "separate {sep} lines vs embedded {emb}");
    }

    #[test]
    fn packed_saves_capacity_but_misaligns() {
        let m = sample_irregular(64, 256);
        let in_place = Beicsr::encode(&m, BeicsrConfig::non_sliced());
        let packed = PackedBeicsr::encode(&m);
        // Packed genuinely saves capacity…
        assert!(packed.capacity_bytes() < in_place.capacity_bytes());
        // …but most rows start unaligned,
        let misaligned = (0..64)
            .filter(|&r| packed.row_spans(r)[1].offset % CACHELINE_BYTES != 0)
            .count();
        assert!(misaligned > 32, "only {misaligned} rows misaligned");
        // and random row reads cost at least as many cachelines
        // (indirection + straddling).
        let lines = |spans: Vec<Span>| spans.iter().map(Span::cachelines).sum::<u64>();
        let mut ip = 0u64;
        let mut pk = 0u64;
        for r in 0..64 {
            ip += lines(in_place.row_spans(r));
            pk += lines(packed.row_spans(r));
        }
        assert!(pk > ip, "packed {pk} lines vs in-place {ip}");
    }

    #[test]
    fn packed_offsets_are_contiguous() {
        let m = sample(8, 64);
        let f = PackedBeicsr::encode(&m);
        for r in 0..8 {
            let spans = f.row_spans(r);
            assert_eq!(u64::from(spans[1].bytes), f.record_bytes(r));
        }
        // Records tile the packed region exactly.
        let total: u64 = (0..8).map(|r| f.record_bytes(r)).sum();
        assert_eq!(total, f.row_offsets[8]);
    }

    #[test]
    fn slice_windows_match_between_variants() {
        let m = sample(4, 128);
        let sep = SeparateBitmapCsr::encode(&m);
        let pk = PackedBeicsr::encode(&m);
        let emb = Beicsr::encode(&m, BeicsrConfig::non_sliced());
        for r in 0..4 {
            let range = ColRange::new(32, 96);
            // All three fetch the same number of value bytes for a window.
            let val_bytes = |spans: Vec<Span>| u64::from(spans.last().unwrap().bytes);
            let e = val_bytes(emb.slice_spans(r, range));
            let s = val_bytes(sep.slice_spans(r, range));
            let p = val_bytes(pk.slice_spans(r, range));
            assert_eq!(e, s, "row {r}");
            assert_eq!(e, p, "row {r}");
        }
    }

    #[test]
    fn empty_matrix_variants() {
        let m = DenseMatrix::zeros(3, 32);
        let sep = SeparateBitmapCsr::encode(&m);
        let pk = PackedBeicsr::encode(&m);
        assert_eq!(sep.decode_row(2), vec![0.0; 32]);
        assert_eq!(pk.decode_row(2), vec![0.0; 32]);
        // Packed rows still carry their bitmaps.
        assert_eq!(pk.record_bytes(0), 4);
    }
}
