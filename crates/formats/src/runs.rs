//! Line-granular trace compaction.
//!
//! The simulator's hot loop replays feature-access [`Span`]s through the
//! cache + HBM model one span at a time; most of those spans are adjacent
//! in a format's address space (consecutive BEICSR slots, a bitmap head
//! followed by its value window, dense row after dense row). This module
//! coalesces a span stream into maximal runs of **consecutive cache
//! lines** ([`LineRun`]) *before* it reaches the memory system, so the
//! memory system can charge a whole run with one set-index computation
//! and one batched DRAM walk (`MemorySystem::access_lines` in
//! `sgcn-mem`).
//!
//! # Exactness contract
//!
//! Compaction changes how counters are *computed*, never what they
//! *count*: replaying the compacted runs must leave every cache, DRAM and
//! traffic-class counter — and the cache/DRAM state itself — bit-identical
//! to replaying the original span sequence. Two merge rules keep that
//! true:
//!
//! * **Reads** ([`RunCompactor::reads`]) merge a span that begins on the
//!   previous span's last line (a *seam*: BEICSR's value window starting
//!   on the line its bitmap head ends on). A span-at-a-time replay
//!   re-probes that line immediately after touching it, which is always a
//!   cache hit and never moves state (the line is already MRU of its set),
//!   so the merged run records it as a [`LineRun::seam_hits`] count that
//!   the memory system adds to the hit counters post-hoc.
//! * **Writes** ([`RunCompactor::writes`]) merge only strictly
//!   line-contiguous spans. Streaming writes send *every* line to DRAM,
//!   and the DRAM clocks accumulate `f64` service time per burst — a
//!   seam's duplicate burst must stay in sequence order for the float
//!   accumulation to round identically, so seams flush instead of merge
//!   (the duplicate line then replays at the head of the next run,
//!   exactly where the span path put it).
//!
//! Spans that overlap deeper than a seam, arrive out of order, or leave a
//! line-granular gap always flush; each such span becomes its own run and
//! replays exactly as the span path would.

use crate::layout::Span;

/// A maximal run of consecutive cache lines compacted from one or more
/// byte spans, plus the replay metadata the memory system needs to keep
/// its counters bit-identical to the original span sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LineRun {
    /// First line index (byte offset / line size) the run covers, in the
    /// same private address space as the spans it came from.
    pub first_line: u64,
    /// Number of **distinct** consecutive lines covered.
    pub lines: u64,
    /// Original spans merged into the run (each charged one request in
    /// the per-class traffic accounting).
    pub spans: u32,
    /// Seam re-probes: lines a merged span re-touched immediately after
    /// the previous span (guaranteed cache hits, no state change). Always
    /// zero for write runs.
    pub seam_hits: u32,
}

impl LineRun {
    /// A run covering `lines` consecutive lines from `first_line`, as a
    /// single original span — the common pre-aligned case (dense rows,
    /// warm-cache feature rows).
    pub fn contiguous(first_line: u64, lines: u64) -> Self {
        LineRun {
            first_line,
            lines,
            spans: 1,
            seam_hits: 0,
        }
    }

    /// Last line index covered (`lines` must be non-zero).
    pub fn last_line(&self) -> u64 {
        self.first_line + self.lines - 1
    }
}

/// Merge policy of a [`RunCompactor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Merge {
    /// Seam-merging (reads): a span starting on the current last line
    /// merges and counts a guaranteed-hit re-probe.
    Seams,
    /// Contiguous-only (writes): seams flush so every DRAM burst replays
    /// in original order.
    Contiguous,
}

/// Streaming span → [`LineRun`] compactor.
///
/// Push spans in the order the format emits them; compacted runs are
/// handed to the sink as soon as they are maximal. Call
/// [`RunCompactor::finish`] to flush the trailing run.
#[derive(Debug, Clone)]
pub struct RunCompactor {
    line_bytes: u64,
    /// Shift when `line_bytes` is a power of two (the universal case).
    shift: Option<u32>,
    merge: Merge,
    cur: Option<LineRun>,
}

impl RunCompactor {
    /// A compactor for read replays (seam-merging) over `line_bytes`
    /// cache lines.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is zero.
    pub fn reads(line_bytes: u64) -> Self {
        Self::new(line_bytes, Merge::Seams)
    }

    /// A compactor for streaming-write replays (contiguous-only merging)
    /// over `line_bytes` cache lines.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is zero.
    pub fn writes(line_bytes: u64) -> Self {
        Self::new(line_bytes, Merge::Contiguous)
    }

    fn new(line_bytes: u64, merge: Merge) -> Self {
        assert!(line_bytes > 0, "line size must be non-zero");
        RunCompactor {
            line_bytes,
            shift: line_bytes
                .is_power_of_two()
                .then(|| line_bytes.trailing_zeros()),
            merge,
            cur: None,
        }
    }

    #[inline]
    fn line_of(&self, byte: u64) -> u64 {
        match self.shift {
            Some(s) => byte >> s,
            None => byte / self.line_bytes,
        }
    }

    /// Feeds one span; emits any run the span cannot extend. Empty spans
    /// are dropped (the span path treats them as no-ops).
    #[inline]
    pub fn push(&mut self, span: Span, f: &mut dyn FnMut(LineRun)) {
        if span.is_empty() {
            return;
        }
        let first = self.line_of(span.offset);
        let last = self.line_of(span.end() - 1);
        let Some(cur) = &mut self.cur else {
            self.cur = Some(LineRun {
                first_line: first,
                lines: last - first + 1,
                spans: 1,
                seam_hits: 0,
            });
            return;
        };
        let cur_last = cur.last_line();
        if first == cur_last + 1 && cur.spans < u32::MAX {
            // Strictly contiguous: always merges.
            cur.lines += last - cur_last;
            cur.spans += 1;
        } else if first == cur_last
            && matches!(self.merge, Merge::Seams)
            && cur.spans < u32::MAX
            && cur.seam_hits < u32::MAX
        {
            // Seam: the span re-touches the line the run just ended on.
            cur.lines += last.saturating_sub(cur_last);
            cur.spans += 1;
            cur.seam_hits += 1;
        } else {
            // Gap, deep overlap, or out-of-order span: flush and restart.
            let done = *cur;
            *cur = LineRun {
                first_line: first,
                lines: last - first + 1,
                spans: 1,
                seam_hits: 0,
            };
            f(done);
        }
    }

    /// Flushes the trailing run, leaving the compactor reusable.
    #[inline]
    pub fn finish(&mut self, f: &mut dyn FnMut(LineRun)) {
        if let Some(run) = self.cur.take() {
            f(run);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compact(mode: fn(u64) -> RunCompactor, spans: &[Span]) -> Vec<LineRun> {
        let mut c = mode(64);
        let mut runs = Vec::new();
        for &s in spans {
            c.push(s, &mut |r| runs.push(r));
        }
        c.finish(&mut |r| runs.push(r));
        runs
    }

    #[test]
    fn single_span_single_run() {
        let runs = compact(RunCompactor::reads, &[Span::new(100, 200)]);
        assert_eq!(runs, vec![LineRun::contiguous(1, 4)]);
        assert_eq!(runs[0].spans, 1);
        assert_eq!(runs[0].last_line(), 4);
    }

    #[test]
    fn empty_spans_are_dropped() {
        assert!(compact(RunCompactor::reads, &[Span::new(10, 0)]).is_empty());
        let runs = compact(
            RunCompactor::reads,
            &[Span::new(0, 64), Span::new(30, 0), Span::new(64, 64)],
        );
        assert_eq!(
            runs,
            vec![LineRun {
                first_line: 0,
                lines: 2,
                spans: 2,
                seam_hits: 0
            }]
        );
    }

    #[test]
    fn contiguous_spans_merge() {
        // Lines 0..=1, then 2..=2: one run of 3 lines, 2 spans, no seams.
        let runs = compact(
            RunCompactor::reads,
            &[Span::new(0, 128), Span::new(128, 64)],
        );
        assert_eq!(
            runs,
            vec![LineRun {
                first_line: 0,
                lines: 3,
                spans: 2,
                seam_hits: 0
            }]
        );
    }

    #[test]
    fn seam_merges_for_reads() {
        // [0, 100) covers lines 0..=1; [100, 200) starts on line 1.
        let runs = compact(
            RunCompactor::reads,
            &[Span::new(0, 100), Span::new(100, 100)],
        );
        assert_eq!(
            runs,
            vec![LineRun {
                first_line: 0,
                lines: 4,
                spans: 2,
                seam_hits: 1
            }]
        );
    }

    #[test]
    fn seam_flushes_for_writes() {
        let runs = compact(
            RunCompactor::writes,
            &[Span::new(0, 100), Span::new(100, 100)],
        );
        assert_eq!(
            runs,
            vec![
                LineRun {
                    first_line: 0,
                    lines: 2,
                    spans: 1,
                    seam_hits: 0
                },
                LineRun {
                    first_line: 1,
                    lines: 3,
                    spans: 1,
                    seam_hits: 0
                },
            ]
        );
    }

    #[test]
    fn seam_span_within_last_line_adds_no_lines() {
        // Second span entirely inside line 1.
        let runs = compact(
            RunCompactor::reads,
            &[Span::new(0, 128), Span::new(100, 20)],
        );
        assert_eq!(
            runs,
            vec![LineRun {
                first_line: 0,
                lines: 2,
                spans: 2,
                seam_hits: 1
            }]
        );
    }

    #[test]
    fn gap_flushes() {
        let runs = compact(RunCompactor::reads, &[Span::new(0, 64), Span::new(192, 64)]);
        assert_eq!(
            runs,
            vec![LineRun::contiguous(0, 1), LineRun::contiguous(3, 1)]
        );
    }

    #[test]
    fn deep_overlap_and_out_of_order_flush() {
        // Second span reaches back past the seam line.
        let runs = compact(RunCompactor::reads, &[Span::new(0, 256), Span::new(64, 64)]);
        assert_eq!(
            runs,
            vec![LineRun::contiguous(0, 4), LineRun::contiguous(1, 1)]
        );
        // Fully out of order.
        let runs = compact(RunCompactor::reads, &[Span::new(256, 64), Span::new(0, 64)]);
        assert_eq!(
            runs,
            vec![LineRun::contiguous(4, 1), LineRun::contiguous(0, 1)]
        );
    }

    #[test]
    fn chained_seams_accumulate() {
        // Three spans, each starting on the previous span's last line.
        let runs = compact(
            RunCompactor::reads,
            &[Span::new(0, 100), Span::new(100, 100), Span::new(200, 60)],
        );
        assert_eq!(
            runs,
            vec![LineRun {
                first_line: 0,
                lines: 5,
                spans: 3,
                seam_hits: 2
            }]
        );
    }

    #[test]
    fn finish_is_reusable() {
        let mut c = RunCompactor::reads(64);
        let mut runs = Vec::new();
        c.push(Span::new(0, 64), &mut |r| runs.push(r));
        c.finish(&mut |r| runs.push(r));
        c.push(Span::new(640, 64), &mut |r| runs.push(r));
        c.finish(&mut |r| runs.push(r));
        assert_eq!(
            runs,
            vec![LineRun::contiguous(0, 1), LineRun::contiguous(10, 1)]
        );
        // A drained compactor flushes nothing.
        c.finish(&mut |_| panic!("nothing buffered"));
    }

    #[test]
    fn non_power_of_two_line_size() {
        let mut c = RunCompactor::reads(48);
        let mut runs = Vec::new();
        c.push(Span::new(0, 96), &mut |r| runs.push(r));
        c.push(Span::new(96, 10), &mut |r| runs.push(r));
        c.finish(&mut |r| runs.push(r));
        assert_eq!(
            runs,
            vec![LineRun {
                first_line: 0,
                lines: 3,
                spans: 2,
                seam_hits: 0
            }]
        );
    }

    #[test]
    #[should_panic(expected = "line size")]
    fn zero_line_size_panics() {
        let _ = RunCompactor::reads(0);
    }
}
