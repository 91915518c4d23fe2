//! **BEICSR** — Bitmap-index Embedded In-place CSR, the SGCN paper's
//! compressed feature format (§V-A, §V-B).
//!
//! Three design choices, each mapped to a mechanism here:
//!
//! 1. **Embedded bitmap index** — instead of one 32-bit column index per
//!    non-zero, a bitmap (1 bit per element) is placed *at the head of the
//!    same array* as the packed non-zero values. At 50% sparsity and 32-bit
//!    elements the index overhead is `n / 16n` = 6.25%. Because the bitmap
//!    rides in the same cachelines as the values it indexes, the
//!    bitmap-then-values access pattern of aggregation touches no extra
//!    lines.
//! 2. **In-place compression** — each row (or slice) is stored at the fixed
//!    offset it would occupy *uncompressed*: `offset = id × slot_bytes`.
//!    Capacity is not saved, but (a) reads stay cacheline-aligned, (b) rows
//!    can be written in parallel without serializing on variable lengths,
//!    and (c) no indirection (row-pointer) array is needed.
//! 3. **Slicing support** — for tiled dataflows the bitmap is partitioned
//!    per unit slice of `C` elements (default `C = 96`), each slice slot
//!    aligned to the burst boundary, so a column window is read without the
//!    unaligned-access penalty a monolithic row bitmap would cause (§V-B).

use crate::bitmap::Bitmap;
use crate::layout::{align_up, Span, CACHELINE_BYTES, ELEM_BYTES};
use crate::traits::{ColRange, FeatureFormat};
use crate::DenseMatrix;

/// Configuration for [`Beicsr`] encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BeicsrConfig {
    slice_elems: Option<usize>,
}

impl BeicsrConfig {
    /// The paper's empirically chosen default unit-slice width (§V-B):
    /// 96 elements = 384 B of single-precision features per slice.
    pub const DEFAULT_SLICE_ELEMS: usize = 96;

    /// Non-sliced BEICSR (§V-A): one bitmap for the whole row, embedded at
    /// the row head. Used by the paper's ablation (Fig. 12, "Non-sliced").
    pub fn non_sliced() -> Self {
        BeicsrConfig { slice_elems: None }
    }

    /// Sliced BEICSR with unit slices of `slice_elems` columns (§V-B).
    ///
    /// # Panics
    ///
    /// Panics if `slice_elems` is zero.
    pub fn sliced(slice_elems: usize) -> Self {
        assert!(slice_elems > 0, "slice width must be non-zero");
        BeicsrConfig {
            slice_elems: Some(slice_elems),
        }
    }

    /// The unit-slice width this config resolves to for a matrix of `cols`
    /// columns.
    pub fn resolve_slice_elems(&self, cols: usize) -> usize {
        match self.slice_elems {
            Some(c) => c,
            None => cols.max(1),
        }
    }

    /// Whether this is the sliced variant.
    pub fn is_sliced(&self) -> bool {
        self.slice_elems.is_some()
    }
}

impl Default for BeicsrConfig {
    /// Sliced, with the paper's default `C = 96`.
    fn default() -> Self {
        BeicsrConfig::sliced(Self::DEFAULT_SLICE_ELEMS)
    }
}

/// A feature matrix stored in BEICSR.
#[derive(Debug, Clone, PartialEq)]
pub struct Beicsr {
    rows: usize,
    cols: usize,
    sliced: bool,
    slice_elems: usize,
    nslices: usize,
    bitmap_bytes: u64,
    slot_bytes: u64,
    /// Per (row, slice) bitmap, row-major.
    bitmaps: Vec<Bitmap>,
    /// Per (row, slice) packed non-zero values; slot `i`'s values occupy
    /// `values[i*slice_elems .. i*slice_elems + nnz[i]]`.
    values: Vec<f32>,
    /// Per (row, slice) non-zero count.
    nnz: Vec<u32>,
}

impl Beicsr {
    /// Encodes a dense matrix.
    pub fn encode(dense: &DenseMatrix, config: BeicsrConfig) -> Self {
        let mut me = Self::with_shape(dense.rows(), dense.cols(), config);
        for r in 0..dense.rows() {
            me.set_row_from_dense(r, dense.row_slice(r));
        }
        me
    }

    /// The original per-bit encoder, kept verbatim as the executable
    /// reference: a fresh [`Bitmap`] is allocated per slot and populated
    /// bit by bit. Produces a value equal to [`Beicsr::encode`]; the
    /// encoder-equivalence tests drive it.
    pub fn encode_reference(dense: &DenseMatrix, config: BeicsrConfig) -> Self {
        let mut me = Self::with_shape(dense.rows(), dense.cols(), config);
        for row in 0..dense.rows() {
            let data = dense.row_slice(row);
            for s in 0..me.nslices {
                let start = s * me.slice_elems;
                let end = (start + me.slice_elems).min(me.cols);
                let window = &data[start..end];
                let slot = row * me.nslices + s;
                let mut bm = Bitmap::new(window.len());
                let mut count = 0usize;
                let vbase = slot * me.slice_elems;
                for (i, &v) in window.iter().enumerate() {
                    if v != 0.0 {
                        bm.set(i, true);
                        me.values[vbase + count] = v;
                        count += 1;
                    }
                }
                me.bitmaps[slot] = bm;
                me.nnz[slot] = count as u32;
            }
        }
        me
    }

    /// Creates an all-zero BEICSR matrix of the given shape — the layer
    /// output buffer the compressor unit writes into.
    pub fn with_shape(rows: usize, cols: usize, config: BeicsrConfig) -> Self {
        let slice_elems = config.resolve_slice_elems(cols);
        let nslices = cols.div_ceil(slice_elems).max(1);
        let bitmap_bytes = (slice_elems as u64).div_ceil(8);
        // In-place reservation: bitmap + a dense slice of values, rounded to
        // the burst/cacheline boundary so every slot starts aligned.
        let slot_bytes = align_up(
            bitmap_bytes + slice_elems as u64 * ELEM_BYTES,
            CACHELINE_BYTES,
        );
        let slots = rows * nslices;
        Beicsr {
            rows,
            cols,
            sliced: config.is_sliced(),
            slice_elems,
            nslices,
            bitmap_bytes,
            slot_bytes,
            bitmaps: (0..slots)
                .map(|i| {
                    let s = i % nslices;
                    Bitmap::new(Self::slice_width_for(cols, slice_elems, s))
                })
                .collect(),
            values: vec![0.0; slots * slice_elems],
            nnz: vec![0; slots],
        }
    }

    fn slice_width_for(cols: usize, slice_elems: usize, s: usize) -> usize {
        let start = s * slice_elems;
        slice_elems.min(cols.saturating_sub(start))
    }

    /// Overwrites `row` from dense contents — the operation the paper's
    /// post-combination compressor performs (§V-E), done in place.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `data.len() != cols`.
    pub fn set_row_from_dense(&mut self, row: usize, data: &[f32]) {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        assert_eq!(
            data.len(),
            self.cols,
            "row data must have {} columns",
            self.cols
        );
        for s in 0..self.nslices {
            let start = s * self.slice_elems;
            let end = (start + self.slice_elems).min(self.cols);
            let window = &data[start..end];
            let slot = row * self.nslices + s;
            let mut count = 0usize;
            let vbase = slot * self.slice_elems;
            for &v in window {
                if v != 0.0 {
                    self.values[vbase + count] = v;
                    count += 1;
                }
            }
            // Word-at-a-time bitmap rebuild into the existing slot — no
            // per-slot allocation, no per-bit read-modify-write.
            self.bitmaps[slot].fill_from_values(window);
            self.nnz[slot] = count as u32;
        }
    }

    /// Number of unit slices per row (1 for non-sliced).
    pub fn num_slices(&self) -> usize {
        self.nslices
    }

    /// Unit-slice width in elements.
    pub fn slice_elems(&self) -> usize {
        self.slice_elems
    }

    /// Reserved bytes per slice slot (bitmap + dense value capacity, aligned).
    pub fn slot_bytes(&self) -> u64 {
        self.slot_bytes
    }

    /// Bytes of bitmap at the head of each slot.
    pub fn bitmap_bytes(&self) -> u64 {
        self.bitmap_bytes
    }

    /// Total non-zeros stored.
    pub fn total_nnz(&self) -> u64 {
        self.nnz.iter().map(|&n| u64::from(n)).sum()
    }

    /// Non-zeros in slice `s` of `row`.
    pub fn slot_nnz(&self, row: usize, s: usize) -> usize {
        self.nnz[self.slot_index(row, s)] as usize
    }

    /// The bitmap of slice `s` of `row`.
    pub fn slot_bitmap(&self, row: usize, s: usize) -> &Bitmap {
        &self.bitmaps[self.slot_index(row, s)]
    }

    /// The packed non-zero values of slice `s` of `row`.
    pub fn slot_values(&self, row: usize, s: usize) -> &[f32] {
        let slot = self.slot_index(row, s);
        let base = slot * self.slice_elems;
        &self.values[base..base + self.nnz[slot] as usize]
    }

    /// Physical offset of slice `s` of `row` — a pure multiplication, the
    /// in-place property that removes the indirection array (§V-A).
    pub fn slot_offset(&self, row: usize, s: usize) -> u64 {
        self.slot_index(row, s) as u64 * self.slot_bytes
    }

    /// The span actually transferred when reading slice `s` of `row`:
    /// bitmap head plus the packed non-zeros, starting at the aligned slot
    /// offset. Empty slices still read the bitmap (the aggregator cannot
    /// know a slice is empty without it).
    pub fn slot_read_span(&self, row: usize, s: usize) -> Span {
        let slot = self.slot_index(row, s);
        let bytes = self.bitmap_bytes + u64::from(self.nnz[slot]) * ELEM_BYTES;
        Span::new(self.slot_offset(row, s), bytes as u32)
    }

    /// Unit-slice indices overlapping a column range.
    pub fn slices_covering(&self, range: ColRange) -> std::ops::Range<usize> {
        if range.is_empty() {
            return 0..0;
        }
        let first = (range.start / self.slice_elems).min(self.nslices.saturating_sub(1));
        let last = ((range.end - 1) / self.slice_elems).min(self.nslices.saturating_sub(1));
        first..last + 1
    }

    fn slot_index(&self, row: usize, s: usize) -> usize {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        assert!(s < self.nslices, "slice {s} out of range {}", self.nslices);
        row * self.nslices + s
    }
}

impl FeatureFormat for Beicsr {
    fn format_name(&self) -> &'static str {
        if self.sliced {
            "BEICSR"
        } else {
            "Non-sliced BEICSR"
        }
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn capacity_bytes(&self) -> u64 {
        (self.rows * self.nslices) as u64 * self.slot_bytes
    }

    fn for_each_row_span(&self, row: usize, f: &mut dyn FnMut(Span)) {
        for s in 0..self.nslices {
            f(self.slot_read_span(row, s));
        }
    }

    fn for_each_slice_span(&self, row: usize, range: ColRange, f: &mut dyn FnMut(Span)) {
        let range = ColRange::new(range.start.min(self.cols), range.end.min(self.cols));
        if range.is_empty() {
            return;
        }
        if self.sliced {
            // Whole aligned unit slices covering the window.
            for s in self.slices_covering(range) {
                f(self.slot_read_span(row, s));
            }
        } else {
            // Monolithic bitmap: read the bitmap head, then the value
            // window located via rank(). The window start is *not*
            // aligned — the unaligned-access cost §V-B warns about falls
            // out of the span arithmetic when the cache rounds to
            // cachelines.
            let bm = self.slot_bitmap(row, 0);
            let lo = bm.rank(range.start.min(bm.len()));
            let hi = bm.rank(range.end.min(bm.len()));
            let base = self.slot_offset(row, 0);
            f(Span::new(base, self.bitmap_bytes as u32));
            if hi > lo {
                f(Span::new(
                    base + self.bitmap_bytes + lo as u64 * ELEM_BYTES,
                    ((hi - lo) as u64 * ELEM_BYTES) as u32,
                ));
            }
        }
    }

    fn decode_row(&self, row: usize) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for s in 0..self.nslices {
            let start = s * self.slice_elems;
            let vals = self.slot_values(row, s);
            for (k, i) in self.slot_bitmap(row, s).iter_ones().enumerate() {
                out[start + i] = vals[k];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_50pct(rows: usize, cols: usize) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if (r + c) % 2 == 0 {
                    m.set(r, c, (r * cols + c) as f32 + 1.0);
                }
            }
        }
        m
    }

    #[test]
    fn paper_example_bitmap_and_values() {
        // §V-A: (0, 0.3, 0.5, 0) → bitmap 0110'b, values (0.3, 0.5).
        let m = DenseMatrix::from_vec(1, 4, vec![0.0, 0.3, 0.5, 0.0]);
        let b = Beicsr::encode(&m, BeicsrConfig::non_sliced());
        let bm = b.slot_bitmap(0, 0);
        assert!(!bm.get(0) && bm.get(1) && bm.get(2) && !bm.get(3));
        assert_eq!(b.slot_values(0, 0), &[0.3, 0.5]);
    }

    #[test]
    fn roundtrip_sliced_and_non_sliced() {
        let m = dense_50pct(7, 250);
        for cfg in [
            BeicsrConfig::non_sliced(),
            BeicsrConfig::default(),
            BeicsrConfig::sliced(32),
        ] {
            let b = Beicsr::encode(&m, cfg);
            for r in 0..m.rows() {
                assert_eq!(b.decode_row(r), m.row(r), "{cfg:?} row {r}");
            }
        }
    }

    #[test]
    fn index_overhead_is_6_25_pct_at_50pct_sparsity() {
        // §V-A: width n → bitmap n bits; values 16n bytes at 50% sparsity;
        // overhead n/8 ÷ 2n·… = 6.25% of the non-zero payload.
        let m = dense_50pct(4, 256);
        let b = Beicsr::encode(&m, BeicsrConfig::non_sliced());
        let bitmap = b.bitmap_bytes() as f64;
        let payload = (b.slot_nnz(0, 0) as u64 * ELEM_BYTES) as f64;
        assert!((bitmap / payload - 0.0625).abs() < 1e-9);
    }

    #[test]
    fn read_traffic_beats_dense_at_50pct() {
        let m = dense_50pct(8, 256);
        let b = Beicsr::encode(&m, BeicsrConfig::default());
        let dense_bytes: u64 = (0..8).map(|r| m.row_read_bytes(r)).sum();
        let beicsr_bytes: u64 = (0..8).map(|r| b.row_read_bytes(r)).sum();
        assert!(
            beicsr_bytes < dense_bytes * 7 / 10,
            "beicsr {beicsr_bytes} vs dense {dense_bytes}"
        );
    }

    #[test]
    fn slots_are_cacheline_aligned() {
        let b = Beicsr::with_shape(5, 256, BeicsrConfig::default());
        for r in 0..5 {
            for s in 0..b.num_slices() {
                assert_eq!(b.slot_offset(r, s) % CACHELINE_BYTES, 0);
            }
        }
    }

    #[test]
    fn default_slice_geometry_matches_paper() {
        // C = 96 → 384 B of dense values; at ~50% sparsity the read span is
        // 12 B bitmap + ~48 values ≈ 2–3 cachelines (§V-B).
        let m = dense_50pct(2, 96);
        let b = Beicsr::encode(&m, BeicsrConfig::default());
        assert_eq!(b.num_slices(), 1);
        assert_eq!(b.bitmap_bytes(), 12);
        let span = b.slot_read_span(0, 0);
        assert!(span.cachelines() <= 4, "{} lines", span.cachelines());
        assert!(span.cachelines() >= 3);
    }

    #[test]
    fn in_place_offsets_are_pure_multiplication() {
        let b = Beicsr::with_shape(10, 256, BeicsrConfig::sliced(96));
        assert_eq!(b.num_slices(), 3);
        for r in 0..10 {
            for s in 0..3 {
                assert_eq!(b.slot_offset(r, s), ((r * 3 + s) as u64) * b.slot_bytes());
            }
        }
    }

    #[test]
    fn sliced_window_reads_only_covering_slots() {
        let m = dense_50pct(3, 288);
        let b = Beicsr::encode(&m, BeicsrConfig::sliced(96));
        let spans = b.slice_spans(1, ColRange::new(96, 192));
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].offset, b.slot_offset(1, 1));
        // Partially-overlapping windows pull both slices.
        let spans = b.slice_spans(1, ColRange::new(90, 100));
        assert_eq!(spans.len(), 2);
    }

    #[test]
    fn non_sliced_window_is_unaligned() {
        let m = dense_50pct(1, 256);
        let b = Beicsr::encode(&m, BeicsrConfig::non_sliced());
        let spans = b.slice_spans(0, ColRange::new(128, 192));
        // Bitmap head + a value window that starts mid-row.
        assert_eq!(spans.len(), 2);
        assert!(!spans[1].offset.is_multiple_of(CACHELINE_BYTES));
    }

    #[test]
    fn empty_slice_reads_just_bitmap() {
        let m = DenseMatrix::zeros(2, 96);
        let b = Beicsr::encode(&m, BeicsrConfig::default());
        let span = b.slot_read_span(1, 0);
        assert_eq!(u64::from(span.bytes), b.bitmap_bytes());
        assert_eq!(span.cachelines(), 1);
    }

    #[test]
    fn capacity_is_not_reduced_in_place() {
        // In-place compression reserves the dense footprint (plus bitmap,
        // rounded up): no capacity saving, by design (§V-A).
        let m = dense_50pct(16, 256);
        let b = Beicsr::encode(&m, BeicsrConfig::default());
        assert!(b.capacity_bytes() >= m.capacity_bytes());
    }

    #[test]
    fn set_row_overwrites_in_place() {
        let mut b = Beicsr::with_shape(2, 8, BeicsrConfig::non_sliced());
        b.set_row_from_dense(0, &[1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 3.0]);
        assert_eq!(b.slot_nnz(0, 0), 3);
        b.set_row_from_dense(0, &[0.0; 8]);
        assert_eq!(b.slot_nnz(0, 0), 0);
        assert_eq!(b.decode_row(0), vec![0.0; 8]);
    }

    #[test]
    fn ragged_final_slice() {
        let m = dense_50pct(2, 100);
        let b = Beicsr::encode(&m, BeicsrConfig::sliced(96));
        assert_eq!(b.num_slices(), 2);
        assert_eq!(b.slot_bitmap(0, 1).len(), 4);
        assert_eq!(b.decode_row(0), m.row(0));
    }

    #[test]
    fn total_nnz_matches_dense() {
        let m = dense_50pct(9, 130);
        let b = Beicsr::encode(&m, BeicsrConfig::default());
        assert_eq!(b.total_nnz() as usize, m.count_nonzeros());
    }
}
