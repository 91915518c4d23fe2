//! The [`FeatureFormat`] abstraction and format selection.

use std::fmt;
use std::ops::Range;

use crate::layout::Span;
use crate::runs::{LineRun, RunCompactor};

/// A half-open column range `[start, end)` within a feature row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ColRange {
    /// First column (inclusive).
    pub start: usize,
    /// Last column (exclusive).
    pub end: usize,
}

impl ColRange {
    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(start: usize, end: usize) -> Self {
        assert!(start <= end, "invalid column range {start}..{end}");
        ColRange { start, end }
    }

    /// Number of columns covered.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Clamps the range to `[0, cols)` and returns it as a std `Range`.
    pub fn clamp_to(&self, cols: usize) -> Range<usize> {
        self.start.min(cols)..self.end.min(cols)
    }
}

impl fmt::Display for ColRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// A feature-matrix storage format whose access costs the simulator can
/// observe.
///
/// Implementations report the byte spans (in a private, zero-based address
/// space) that the accelerator must transfer to read a row or a column
/// slice of a row; a row write-back touches the spans of a row read. The
/// memory simulator rebases those spans onto physical addresses and runs
/// them through the cache and DRAM models, so a format's compression
/// quality and alignment behaviour — the crux of the SGCN paper's §V-A —
/// fall directly out of these methods.
pub trait FeatureFormat {
    /// Human-readable name used in reports ("Dense", "CSR", "BEICSR", …).
    fn format_name(&self) -> &'static str;

    /// Number of rows (vertices).
    fn rows(&self) -> usize;

    /// Number of columns (feature width).
    fn cols(&self) -> usize;

    /// Total reserved memory footprint in bytes.
    fn capacity_bytes(&self) -> u64;

    /// Reconstructs the dense contents of `row` (round-trip check and
    /// functional reads).
    fn decode_row(&self, row: usize) -> Vec<f32>;

    /// Visits the byte spans touched to read the whole of `row`, without
    /// allocating. This and [`for_each_slice_span`] are a format's only
    /// span code: every other span and run method derives from them.
    ///
    /// [`for_each_slice_span`]: FeatureFormat::for_each_slice_span
    fn for_each_row_span(&self, row: usize, f: &mut dyn FnMut(Span));

    /// Visits the byte spans touched to read columns `range` of `row`,
    /// without allocating.
    fn for_each_slice_span(&self, row: usize, range: ColRange, f: &mut dyn FnMut(Span));

    /// Byte spans touched to read the whole of `row`, collected from
    /// [`for_each_row_span`].
    ///
    /// [`for_each_row_span`]: FeatureFormat::for_each_row_span
    fn row_spans(&self, row: usize) -> Vec<Span> {
        let mut spans = Vec::new();
        self.for_each_row_span(row, &mut |s| spans.push(s));
        spans
    }

    /// Byte spans touched to read columns `range` of `row`, collected from
    /// [`for_each_slice_span`].
    ///
    /// [`for_each_slice_span`]: FeatureFormat::for_each_slice_span
    fn slice_spans(&self, row: usize, range: ColRange) -> Vec<Span> {
        let mut spans = Vec::new();
        self.for_each_slice_span(row, range, &mut |s| spans.push(s));
        spans
    }

    /// Visits the compacted line runs of a full-row read: the spans of
    /// [`for_each_row_span`] merged into maximal runs of consecutive
    /// `line_bytes`-sized cache lines (see [`crate::runs`] for the merge
    /// rules and the exactness contract). The memory system replays one
    /// run per call instead of one span, with batched set-index and
    /// DRAM-burst accounting.
    ///
    /// [`for_each_row_span`]: FeatureFormat::for_each_row_span
    fn for_each_row_run(&self, row: usize, line_bytes: u64, f: &mut dyn FnMut(LineRun)) {
        let mut c = RunCompactor::reads(line_bytes);
        self.for_each_row_span(row, &mut |s| c.push(s, f));
        c.finish(f);
    }

    /// Visits the compacted line runs of a column-window read (see
    /// [`for_each_row_run`]).
    ///
    /// [`for_each_row_run`]: FeatureFormat::for_each_row_run
    fn for_each_slice_run(
        &self,
        row: usize,
        range: ColRange,
        line_bytes: u64,
        f: &mut dyn FnMut(LineRun),
    ) {
        let mut c = RunCompactor::reads(line_bytes);
        self.for_each_slice_span(row, range, &mut |s| c.push(s, f));
        c.finish(f);
    }

    /// Visits the compacted line runs of a row write-back. A write touches
    /// the spans of a full-row read at the row's current occupancy: CSR
    /// appends its indices and values, BEICSR rewrites its slots in place,
    /// and Packed BEICSR charges the record plus its row pointer (the
    /// serialisation of §V-A is not modelled as extra traffic). Write runs
    /// merge only strictly contiguous spans (no seam merging — see
    /// [`crate::runs`]), so the streaming-write DRAM clock accumulates in
    /// the original burst order.
    fn for_each_write_run(&self, row: usize, line_bytes: u64, f: &mut dyn FnMut(LineRun)) {
        let mut c = RunCompactor::writes(line_bytes);
        self.for_each_row_span(row, &mut |s| c.push(s, f));
        c.finish(f);
    }

    /// Cacheline-rounded bytes to read the whole of `row` — convenience
    /// accounting used by analytic traffic reports.
    fn row_read_bytes(&self, row: usize) -> u64 {
        let mut bytes = 0;
        self.for_each_row_span(row, &mut |s| bytes += s.cacheline_bytes());
        bytes
    }
}

/// Identifies one of the formats compared in the paper's Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FormatKind {
    /// Uncompressed dense rows.
    Dense,
    /// Compressed sparse row with 32-bit column indices.
    Csr,
    /// Coordinate triples.
    Coo,
    /// Block CSR with 2×2 blocks.
    Bsr,
    /// Blocked ELLPACK with 2×2 blocks.
    BlockedEllpack,
    /// BEICSR without feature-matrix slicing (§V-A).
    BeicsrNonSliced,
    /// Sliced BEICSR (§V-B), the full SGCN format.
    Beicsr,
    /// Design ablation: bitmap index in a separate array (not in Fig. 3;
    /// see [`crate::ablation::SeparateBitmapCsr`]).
    SeparateBitmap,
    /// Design ablation: packed variable-length rows with indirection (not
    /// in Fig. 3; see [`crate::ablation::PackedBeicsr`]).
    PackedBeicsr,
}

impl FormatKind {
    /// All kinds, in the order the paper's Fig. 3 presents them.
    pub const ALL: [FormatKind; 7] = [
        FormatKind::Dense,
        FormatKind::Csr,
        FormatKind::Coo,
        FormatKind::Bsr,
        FormatKind::BlockedEllpack,
        FormatKind::BeicsrNonSliced,
        FormatKind::Beicsr,
    ];

    /// Display label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            FormatKind::Dense => "Dense",
            FormatKind::Csr => "CSR",
            FormatKind::Coo => "COO",
            FormatKind::Bsr => "BSR",
            FormatKind::BlockedEllpack => "Blocked Ellpack",
            FormatKind::BeicsrNonSliced => "Non-sliced BEICSR",
            FormatKind::Beicsr => "BEICSR",
            FormatKind::SeparateBitmap => "Separate-bitmap",
            FormatKind::PackedBeicsr => "Packed BEICSR",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn col_range_basics() {
        let r = ColRange::new(4, 12);
        assert_eq!(r.len(), 8);
        assert!(!r.is_empty());
        assert_eq!(r.clamp_to(10), 4..10);
        assert_eq!(r.to_string(), "4..12");
    }

    #[test]
    #[should_panic(expected = "invalid column range")]
    fn col_range_reversed_panics() {
        let _ = ColRange::new(5, 4);
    }

    #[test]
    fn format_kind_labels_unique() {
        let labels: Vec<&str> = FormatKind::ALL.iter().map(|k| k.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
