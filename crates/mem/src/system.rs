//! The cache + DRAM front-end driven by the accelerator models.
//!
//! Reads probe the global cache and go to DRAM on miss; writes stream to
//! DRAM (no-allocate, invalidating stale lines) — matching the paper's
//! architecture where the compressor flushes output slices straight to
//! DRAM (§V-E) while aggregation reads flow through the global cache
//! (§III-B). Every request is tagged with a [`Traffic`] class so reports
//! can reproduce the breakdown of Fig. 14.
//!
//! The span methods ([`MemorySystem::read_span`],
//! [`MemorySystem::read_uncached_span`] and [`MemorySystem::write_span`])
//! each walk a whole byte span line by line inside the crate in one call
//! (coalescing the per-line bookkeeping and letting the cache
//! short-circuit repeated probes) and return the per-span
//! [`SpanCounts`]; callers that only need the accumulated report ignore
//! it.
//!
//! DRAM moves whole lines: a missed, streamed or written-back line
//! larger than a DRAM burst reaches DRAM as its `line_bytes /
//! burst_bytes` bursts in ascending order, so the DRAM byte counters and
//! the per-class `dram_bytes` agree at any line size. That is also what
//! makes a [`CacheConfig::row_granular`] hierarchy exact: a missed
//! row-line issues the same bursts, in the same order, as the run of
//! missed lines it stands for.
//!
//! [`RowCache`] is the same cache with no DRAM behind it: a serving
//! engine's warm cache, read a whole feature row at a time, with
//! optional per-row residency counters.

use crate::cache::{Cache, CacheConfig, CacheModel, CacheStats, ResidencySink};
use crate::dram::{Dram, DramConfig, DramStats};
use crate::fastdiv::FastDiv;
use sgcn_formats::LineRun;
use std::ops::Range;

/// Traffic classes of the paper's memory-access breakdown (Fig. 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Traffic {
    /// Graph topology (`Ã` in CSR).
    Topology,
    /// Feature reads (X^l inputs to aggregation/combination).
    FeatureRead,
    /// Feature writes (X^(l+1) outputs).
    FeatureWrite,
    /// Weight matrices.
    Weight,
    /// Partial-sum spills (AWB-GCN's column-product dataflow).
    PartialSum,
}

impl Traffic {
    /// All classes in report order.
    pub const ALL: [Traffic; 5] = [
        Traffic::Topology,
        Traffic::FeatureRead,
        Traffic::FeatureWrite,
        Traffic::Weight,
        Traffic::PartialSum,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Traffic::Topology => "topology",
            Traffic::FeatureRead => "feature-in",
            Traffic::FeatureWrite => "feature-out",
            Traffic::Weight => "weights",
            Traffic::PartialSum => "partial-sums",
        }
    }

    fn index(&self) -> usize {
        match self {
            Traffic::Topology => 0,
            Traffic::FeatureRead => 1,
            Traffic::FeatureWrite => 2,
            Traffic::Weight => 3,
            Traffic::PartialSum => 4,
        }
    }
}

/// Per-class counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficStats {
    /// Requests issued.
    pub requests: u64,
    /// Cacheline-granular bytes requested (before cache filtering).
    pub bytes_requested: u64,
    /// Bytes that reached DRAM (read misses / streamed writes).
    pub dram_bytes: u64,
}

/// Per-span result of the batched span API: how many lines the span
/// covered and how the cache filtered them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanCounts {
    /// Cache lines the span touched.
    pub lines: u64,
    /// Lines that hit in the cache.
    pub hits: u64,
    /// Lines that missed (reached DRAM).
    pub misses: u64,
}

impl SpanCounts {
    /// Accumulates another span's counts.
    pub fn add(&mut self, other: SpanCounts) {
        self.lines += other.lines;
        self.hits += other.hits;
        self.misses += other.misses;
    }

    /// Every count multiplied by `granule` — converts counts from a
    /// [`CacheConfig::row_granular`] hierarchy's row-lines back into the
    /// lines of the geometry it twins.
    pub fn scaled(self, granule: u64) -> SpanCounts {
        SpanCounts {
            lines: self.lines * granule,
            hits: self.hits * granule,
            misses: self.misses * granule,
        }
    }
}

/// Snapshot returned by [`MemorySystem::report`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MemReport {
    /// Cache counters.
    pub cache: CacheStats,
    /// DRAM counters.
    pub dram: DramStats,
    /// Per-class counters, indexed per [`Traffic::ALL`].
    pub per_class: [TrafficStats; 5],
}

impl MemReport {
    /// Counters for one traffic class.
    pub fn traffic(&self, kind: Traffic) -> TrafficStats {
        self.per_class[kind.index()]
    }

    /// Bytes read from DRAM.
    pub fn dram_bytes_read(&self) -> u64 {
        self.dram.bytes_read
    }

    /// Total DRAM bytes moved (read + write).
    pub fn dram_total_bytes(&self) -> u64 {
        self.dram.total_bytes()
    }
}

/// How many of lines `first..=last` a read of `cache` would hit right
/// now: one set scan per line, no fill, no promotion.
fn peek_lines<C: CacheModel>(cache: &C, first: u64, last: u64) -> SpanCounts {
    let lines = last - first + 1;
    let hits = (first..=last).filter(|&line| cache.peek_line(line)).count() as u64;
    SpanCounts {
        lines,
        hits,
        misses: lines - hits,
    }
}

/// Exact per-row resident-line counters (see [`RowCache::track_rows`]):
/// row `r` owns lines `r·lines_per_row .. (r+1)·lines_per_row`.
#[derive(Debug, Clone)]
struct RowResidency {
    lines_per_row: FastDiv,
    /// Resident lines per row, grown on demand by fills.
    counts: Vec<u32>,
}

impl ResidencySink for RowResidency {
    #[inline]
    fn fill(&mut self, line: u64) {
        let row = self.lines_per_row.div(line) as usize;
        if row >= self.counts.len() {
            self.counts.resize(row + 1, 0);
        }
        self.counts[row] += 1;
    }

    #[inline]
    fn evict(&mut self, line: u64) {
        self.counts[self.lines_per_row.div(line) as usize] -= 1;
    }
}

/// The tracker slot as a sink: [`RowCache`] hands it to the cache, which
/// reports only fills and evictions, so an untracked read pays one
/// predictable branch per miss. Dispatching on the slot once per run
/// instead (a `()`-sink replay beside a tracked one) changed inlining
/// and measured ~25 % slower on the untracked serving path (80k-request
/// least-loaded `queue_sim`, one thread).
impl ResidencySink for Option<RowResidency> {
    #[inline]
    fn fill(&mut self, line: u64) {
        if let Some(rows) = self {
            rows.fill(line);
        }
    }

    #[inline]
    fn evict(&mut self, line: u64) {
        if let Some(rows) = self {
            rows.evict(line);
        }
    }

    #[inline]
    fn observing(&self) -> bool {
        self.is_some()
    }
}

/// How a cache line moves to and from DRAM: a line no larger than a
/// burst is one burst at the line's address; a larger line is its
/// `line_bytes / burst_bytes` bursts in ascending order, so every byte
/// the per-class counters book also reaches the DRAM counters.
#[derive(Debug, Clone, Copy)]
struct LineBursts {
    line_bytes: u64,
    /// Bursts per line (≥ 1).
    per_line: u64,
    /// Address step between consecutive bursts of a line run: the burst
    /// size for multi-burst lines, the line size otherwise.
    stride: u64,
}

impl LineBursts {
    /// # Panics
    ///
    /// Panics if a line larger than a burst is not a whole number of
    /// bursts.
    fn new(line_bytes: u64, burst_bytes: u64) -> Self {
        if line_bytes <= burst_bytes {
            return LineBursts {
                line_bytes,
                per_line: 1,
                stride: line_bytes,
            };
        }
        assert!(
            line_bytes.is_multiple_of(burst_bytes),
            "a {line_bytes} B line is not a whole number of {burst_bytes} B bursts"
        );
        LineBursts {
            line_bytes,
            per_line: line_bytes / burst_bytes,
            stride: burst_bytes,
        }
    }

    /// Moves `count` consecutive lines from line `first` in one batched
    /// DRAM walk (a line's bursts continue where the previous line's
    /// end).
    #[inline]
    fn run(self, dram: &mut Dram, first: u64, count: u64, is_write: bool) {
        dram.access_run(
            first * self.line_bytes,
            count * self.per_line,
            self.stride,
            is_write,
        );
    }
}

/// How a closed epoch ran (see [`MemorySystem::open_epoch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochOutcome {
    /// The cache ran every op, and the epoch's log became its key's
    /// template: there was no template, or the cache's entry state did
    /// not match it.
    Recorded,
    /// Every cache op was answered from the template's log.
    Replayed,
    /// The epoch began replaying, then made an op the template did not
    /// (or ended before the template did); it fell back to the cache and
    /// became the new template, or, if it diverged early, retired its
    /// key.
    Diverged,
    /// The cache ran every op without a log: the cache model can never
    /// replay ([`CacheModel::can_replay`]), or the key retired.
    Unrecorded,
}

/// An epoch that diverges before matching `1 / EARLY_DIVERGENCE` of its
/// template's ops retires its key: a stream that differs that soon does
/// not repeat, and recording it again would only cost time.
const EARLY_DIVERGENCE: usize = 16;

/// Marks an invalidate run in [`LoggedOp::lines`]; probes leave it clear.
const INVALIDATE: u32 = 1 << 31;

/// One cache op of a recorded epoch and its outcome: 24 bytes. The op is
/// `first`, `lines` and `seam_hits`; a replaying epoch must make the
/// same op to be answered from `hits` and the miss runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LoggedOp {
    first: u64,
    /// Line count, with [`INVALIDATE`] set for an invalidate run.
    lines: u32,
    /// Booked seam hits of a probe (zero for an invalidate).
    seam_hits: u32,
    /// Lines of the probe that hit. A probe with no hit missed as one
    /// run; only a probe that both hit and missed stores its miss runs.
    hits: u32,
    /// End of this op's miss runs in [`Template::runs`].
    runs_end: u32,
}

impl LoggedOp {
    /// The op part of a log entry; its outcome is filled in by the caller.
    ///
    /// # Panics
    ///
    /// Panics if the op spans 2^31 lines or more.
    fn new(first: u64, lines: u64, seam_hits: u32, invalidate: bool) -> Self {
        let lines = u32::try_from(lines)
            .ok()
            .filter(|&n| n < INVALIDATE)
            .expect("an epoch op spans fewer than 2^31 lines");
        LoggedOp {
            first,
            lines: if invalidate {
                lines | INVALIDATE
            } else {
                lines
            },
            seam_hits,
            hits: 0,
            runs_end: 0,
        }
    }

    fn same_op(&self, other: &LoggedOp) -> bool {
        (self.first, self.lines, self.seam_hits) == (other.first, other.lines, other.seam_hits)
    }
}

/// A recorded epoch: the cache at its entry and exit, and its op log.
#[derive(Debug, Clone)]
struct Template<C> {
    entry: C,
    exit: C,
    ops: Vec<LoggedOp>,
    /// Miss runs `(lines past the op's first line, lines)` of the probes
    /// that both hit and missed, in op order.
    runs: Vec<(u32, u32)>,
}

impl<C> Template<C> {
    /// Where op `i`'s miss runs start in [`Template::runs`].
    fn runs_start(&self, i: usize) -> usize {
        i.checked_sub(1)
            .map_or(0, |p| self.ops[p].runs_end as usize)
    }
}

/// What one epoch key holds.
#[derive(Debug, Clone)]
enum KeyMemo<C> {
    /// No epoch has opened under the key.
    Fresh,
    Template(Template<C>),
    /// An epoch under the key diverged early; its epochs run unlogged.
    Retired,
}

impl<C> KeyMemo<C> {
    fn template(&self) -> &Template<C> {
        match self {
            KeyMemo::Template(tpl) => tpl,
            _ => unreachable!("the key holds a template"),
        }
    }

    fn template_mut(&mut self) -> &mut Template<C> {
        match self {
            KeyMemo::Template(tpl) => tpl,
            _ => unreachable!("the key holds a template"),
        }
    }
}

/// The open epoch, if any.
#[derive(Debug, Clone, Copy)]
enum Epoch {
    Closed,
    /// Logging into `key`'s template; `diverged` if it began replaying.
    Recording {
        key: usize,
        diverged: bool,
    },
    /// Answering from `key`'s template, whose first `next` ops matched.
    Replaying {
        key: usize,
        next: usize,
    },
    /// Running on the cache without a log; `diverged` if it began
    /// replaying.
    Unlogged {
        diverged: bool,
    },
}

/// The memory hierarchy: global cache in front of HBM.
///
/// Generic over the cache model: production code uses the default
/// [`Cache`]; the equivalence tests run the same hierarchy on
/// [`crate::ListCache`].
///
/// # Epoch memo
///
/// A caller whose op stream repeats can bracket each repeat in an
/// *epoch* ([`MemorySystem::open_epoch`] / [`MemorySystem::close_epoch`])
/// so that the cache model answers it from a log instead of probing
/// again. The simulator opens one per layer of a net of four layers or
/// more, from layer 1 on, keyed by layer parity. A dense layer then
/// makes the same cache ops, with the same hits, as the layer two before
/// it.
///
/// * **Dead lines.** Opening an epoch declares a line range dead (the
///   weights of the layers so far): no later op may touch it, and every
///   probe and invalidate panics if one does. Dead tags therefore never
///   hit again, and two caches equal up to the identity of their dead
///   tags answer every later op identically.
/// * **Recording.** An epoch with no matching template runs on the
///   cache and logs each op with its outcome (hits and miss runs, 24
///   bytes per op), plus the cache at entry and exit.
/// * **Replay.** An epoch replays when the cache at its entry equals
///   the key's template entry ([`CacheModel::same_state`]: slot by slot,
///   `len` per set and the BIP counter, dead tags compared as
///   anonymous). Each op must then equal the template's next op; it is
///   answered from the log without touching the cache. DRAM walks,
///   per-class accounting and uncached reads still run for real, so
///   the `f64` DRAM clocks stay bit-exact. At the end the cache takes
///   the template's exit state and its counter delta: it differs from a
///   full simulation only in which dead tags it holds.
/// * **Divergence.** The first op that differs from the template (or an
///   end before the template's) falls back: the cache, untouched since
///   the epoch opened, runs the matched prefix for real without DRAM
///   (those walks already ran), and the epoch records on as the key's
///   new template. An epoch that diverges within the first sixteenth of
///   its template instead retires its key: it and every later epoch
///   under the key run on the cache without a log.
///
/// The memo does not engage where the stream or state does not repeat:
/// SGCN's per-layer BEICSR encodings differ (its epochs diverge at their
/// first ops, so both keys retire after one attempt each), BIP's
/// insertion counter grows with every miss, nets of fewer than four
/// layers open no epoch, and [`RowCache`] has none. A model whose
/// [`CacheModel::can_replay`] is false (BIP, and the
/// [`crate::ListCache`] reference, which keeps the default) runs every
/// epoch unlogged, so `ListCache` stays a memo-free oracle.
/// Inside a replaying epoch the cache is stale, so [`MemorySystem::report`]
/// and [`MemorySystem::peek_span`] panic there.
#[derive(Debug, Clone)]
pub struct MemorySystem<C: CacheModel = Cache> {
    cache: C,
    dram: Dram,
    per_class: [TrafficStats; 5],
    line_bytes: u64,
    /// How each missed or streamed line reaches DRAM.
    bursts: LineBursts,
    /// Line-byte divider (shift when power-of-two) — every span/run call
    /// derives line indices through it.
    line_div: FastDiv,
    /// Declared-dead lines: no cache op may touch them.
    dead: Range<u64>,
    /// What each epoch key holds.
    memos: Vec<KeyMemo<C>>,
    epoch: Epoch,
}

impl<C: CacheModel> MemorySystem<C> {
    /// Builds the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the cache or DRAM geometry is degenerate, or if a line
    /// larger than a DRAM burst is not a whole number of bursts.
    pub fn new(cache_config: CacheConfig, dram_config: DramConfig) -> Self {
        let line_bytes = cache_config.line_bytes;
        MemorySystem {
            cache: C::new(cache_config),
            dram: Dram::new(dram_config),
            per_class: [TrafficStats::default(); 5],
            line_bytes,
            bursts: LineBursts::new(line_bytes, dram_config.burst_bytes),
            line_div: FastDiv::new(line_bytes),
            dead: 0..0,
            memos: Vec::new(),
            epoch: Epoch::Closed,
        }
    }

    /// Cache line size in bytes — what callers compact spans against
    /// before handing runs to [`MemorySystem::access_lines`].
    #[inline]
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// First and last line indices a span covers (`bytes > 0`).
    #[inline]
    fn line_range(&self, addr: u64, bytes: u64) -> (u64, u64) {
        (self.line_div.div(addr), self.line_div.div(addr + bytes - 1))
    }

    /// Reads `bytes` bytes at `addr` through the cache in one batched
    /// call; misses go to DRAM. Returns the span's line/hit/miss counts.
    #[inline]
    pub fn read_span(&mut self, addr: u64, bytes: u64, kind: Traffic) -> SpanCounts {
        if bytes == 0 {
            return SpanCounts::default();
        }
        let (first, last) = self.line_range(addr, bytes);
        self.read_lines(first, last - first + 1, 1, 0, kind)
    }

    /// Replays a compacted read run (`base` is the byte base of the
    /// format's address region, which must be line-aligned — region bases
    /// are multiples of the region stride). Bit-identical counters and
    /// state to replaying the run's original spans through
    /// [`MemorySystem::read_span`] one by one: distinct lines probe once
    /// in ascending order, seam lines book their guaranteed hits without
    /// re-probing, and each merged span charges one request.
    #[inline]
    pub fn access_lines(&mut self, base: u64, run: LineRun, kind: Traffic) -> SpanCounts {
        if run.lines == 0 {
            return SpanCounts::default();
        }
        debug_assert!(
            base.is_multiple_of(self.line_bytes),
            "region base {base:#x} not aligned to {}-byte lines",
            self.line_bytes
        );
        self.read_lines(
            self.line_div.div(base) + run.first_line,
            run.lines,
            u64::from(run.spans),
            run.seam_hits,
            kind,
        )
    }

    /// The shared read replay: `lines` consecutive cache lines from
    /// `first` charged as `spans` requests plus `seam_hits` booked
    /// repeat hits.
    fn read_lines(
        &mut self,
        first: u64,
        lines: u64,
        spans: u64,
        seam_hits: u32,
        kind: Traffic,
    ) -> SpanCounts {
        let hits = self.cache_op(first, lines, seam_hits, false);
        let seam_hits = u64::from(seam_hits);
        let stats = &mut self.per_class[kind.index()];
        stats.requests += spans;
        stats.bytes_requested += (lines + seam_hits) * self.line_bytes;
        stats.dram_bytes += (lines - hits) * self.line_bytes;
        let misses = lines - hits;
        SpanCounts {
            lines: lines + seam_hits,
            hits: hits + seam_hits,
            misses,
        }
    }

    /// One cache op — a probe of `lines` lines from `first` (missed runs
    /// walk DRAM, `seam_hits` repeat hits are booked) or, with
    /// `invalidate`, an invalidate run — through the open epoch, if any.
    /// Returns the probe's hits (zero for an invalidate).
    ///
    /// # Panics
    ///
    /// Panics if the op touches a declared-dead line.
    #[inline]
    fn cache_op(&mut self, first: u64, lines: u64, seam_hits: u32, invalidate: bool) -> u64 {
        assert!(
            first >= self.dead.end || first + lines <= self.dead.start,
            "cache op on lines {first}..{} touches declared-dead lines {:?}",
            first + lines,
            self.dead
        );
        if let Epoch::Replaying { key, next } = self.epoch {
            match self.replay_op(key, next, first, lines, seam_hits, invalidate) {
                Some(hits) => return hits,
                None => self.diverge(key, next),
            }
        }
        let log = match self.epoch {
            Epoch::Recording { key, .. } => Some(key),
            _ => None,
        };
        self.run_op(first, lines, seam_hits, invalidate, log)
    }

    /// Answers a cache op from op `next` of `key`'s template if it is
    /// the same op: walks the logged miss runs through DRAM and returns
    /// the logged hits, leaving the cache untouched. `None` if the op
    /// differs or the template has ended.
    fn replay_op(
        &mut self,
        key: usize,
        next: usize,
        first: u64,
        lines: u64,
        seam_hits: u32,
        invalidate: bool,
    ) -> Option<u64> {
        let op = LoggedOp::new(first, lines, seam_hits, invalidate);
        let tpl = self.memos[key].template();
        let logged = tpl.ops.get(next).filter(|logged| logged.same_op(&op))?;
        let hits = u64::from(logged.hits);
        if !invalidate && hits == 0 {
            self.bursts.run(&mut self.dram, first, lines, false);
        } else {
            // Empty for an invalidate and for a probe that only hit.
            for &(offset, count) in &tpl.runs[tpl.runs_start(next)..logged.runs_end as usize] {
                let (offset, count) = (u64::from(offset), u64::from(count));
                self.bursts
                    .run(&mut self.dram, first + offset, count, false);
            }
        }
        self.epoch = Epoch::Replaying {
            key,
            next: next + 1,
        };
        Some(hits)
    }

    /// Runs a cache op on the cache (see [`MemorySystem::cache_op`]),
    /// logging it and its outcome into `log`'s template when given.
    fn run_op(
        &mut self,
        first: u64,
        lines: u64,
        seam_hits: u32,
        invalidate: bool,
        log: Option<usize>,
    ) -> u64 {
        let mut tpl = log.map(|key| self.memos[key].template_mut());
        let hits = if invalidate {
            self.cache.invalidate_run(first, lines);
            0
        } else {
            let (bursts, dram) = (self.bursts, &mut self.dram);
            let mut runs = tpl.as_mut().map(|t| &mut t.runs);
            let mark = runs.as_ref().map_or(0, |r| r.len());
            let hits = self
                .cache
                .probe_run(first, lines, |miss_first, miss_count| {
                    bursts.run(dram, miss_first, miss_count, false);
                    if let Some(runs) = runs.as_mut() {
                        runs.push(((miss_first - first) as u32, miss_count as u32));
                    }
                });
            if hits == 0 {
                // A probe with no hit is its own one miss run.
                if let Some(runs) = runs {
                    runs.truncate(mark);
                }
            }
            self.cache.count_repeat_hits(u64::from(seam_hits));
            hits
        };
        if let Some(tpl) = tpl {
            tpl.ops.push(LoggedOp {
                hits: hits as u32,
                runs_end: u32::try_from(tpl.runs.len()).expect("under 2^32 logged miss runs"),
                ..LoggedOp::new(first, lines, seam_hits, invalidate)
            });
        }
        hits
    }

    /// Falls back from replaying `key`'s template after its first `next`
    /// ops matched. The cache, untouched since the epoch opened, runs
    /// those ops for real without DRAM (their walks already ran). If they
    /// are a sixteenth of the template or more, the cache at entry
    /// becomes the template's entry, the template is cut to them and the
    /// epoch records on; otherwise the key retires and the epoch runs on
    /// unlogged.
    fn diverge(&mut self, key: usize, next: usize) {
        let tpl = self.memos[key].template_mut();
        let retire = next * EARLY_DIVERGENCE < tpl.ops.len();
        if !retire {
            tpl.entry.clone_from(&self.cache);
        }
        for op in &tpl.ops[..next] {
            let lines = u64::from(op.lines & !INVALIDATE);
            if op.lines & INVALIDATE != 0 {
                self.cache.invalidate_run(op.first, lines);
            } else {
                let hits = self.cache.probe_run(op.first, lines, |_, _| {});
                assert_eq!(
                    hits,
                    u64::from(op.hits),
                    "replayed op {op:?} changed outcome"
                );
                self.cache.count_repeat_hits(u64::from(op.seam_hits));
            }
        }
        if retire {
            self.memos[key] = KeyMemo::Retired;
            self.epoch = Epoch::Unlogged { diverged: true };
            return;
        }
        let runs_start = tpl.runs_start(next);
        tpl.ops.truncate(next);
        tpl.runs.truncate(runs_start);
        self.epoch = Epoch::Recording {
            key,
            diverged: true,
        };
    }

    /// Opens an epoch keyed `key` and declares the lines of byte range
    /// `dead` dead (see the [epoch memo](MemorySystem#epoch-memo)). The
    /// epoch replays `key`'s template if the cache's state matches the
    /// template's entry, runs unlogged if the cache model cannot replay
    /// or the key retired, and records otherwise.
    ///
    /// # Panics
    ///
    /// Panics if an epoch is open, or if `dead` does not cover the lines
    /// declared dead before (dead lines stay dead). An op inside the
    /// epoch that spans 2^31 lines or more panics too.
    pub fn open_epoch(&mut self, key: usize, dead: Range<u64>) {
        assert!(
            matches!(self.epoch, Epoch::Closed),
            "an epoch is already open"
        );
        let dead = if dead.is_empty() {
            0..0
        } else {
            self.line_div.div(dead.start)..self.line_div.div(dead.end - 1) + 1
        };
        assert!(
            self.dead.is_empty() || (dead.start <= self.dead.start && dead.end >= self.dead.end),
            "dead lines {:?} must stay dead, not shrink to {dead:?}",
            self.dead
        );
        self.dead = dead;
        if self.memos.len() <= key {
            self.memos.resize_with(key + 1, || KeyMemo::Fresh);
        }
        let memo = &mut self.memos[key];
        if !self.cache.can_replay() || matches!(memo, KeyMemo::Retired) {
            self.epoch = Epoch::Unlogged { diverged: false };
            return;
        }
        if let KeyMemo::Template(tpl) = memo {
            if self.cache.same_state(&tpl.entry, &self.dead) {
                self.epoch = Epoch::Replaying { key, next: 0 };
                return;
            }
            tpl.entry.clone_from(&self.cache);
            tpl.ops.clear();
            tpl.runs.clear();
        } else {
            *memo = KeyMemo::Template(Template {
                entry: self.cache.clone(),
                exit: self.cache.clone(),
                ops: Vec::new(),
                runs: Vec::new(),
            });
        }
        self.epoch = Epoch::Recording {
            key,
            diverged: false,
        };
    }

    /// Closes the open epoch and says how it ran.
    ///
    /// # Panics
    ///
    /// Panics if no epoch is open.
    pub fn close_epoch(&mut self) -> EpochOutcome {
        if let Epoch::Replaying { key, next } = self.epoch {
            let tpl = self.memos[key].template();
            if next == tpl.ops.len() {
                self.cache.adopt_state(&tpl.entry, &tpl.exit);
                self.epoch = Epoch::Closed;
                return EpochOutcome::Replayed;
            }
            self.diverge(key, next);
        }
        match std::mem::replace(&mut self.epoch, Epoch::Closed) {
            Epoch::Closed => panic!("no epoch is open"),
            Epoch::Replaying { .. } => unreachable!("a divergence ended the replay"),
            Epoch::Recording { key, diverged } => {
                self.memos[key].template_mut().exit.clone_from(&self.cache);
                if diverged {
                    EpochOutcome::Diverged
                } else {
                    EpochOutcome::Recorded
                }
            }
            Epoch::Unlogged { diverged: true } => EpochOutcome::Diverged,
            Epoch::Unlogged { diverged: false } => EpochOutcome::Unrecorded,
        }
    }

    /// Panics inside a replaying epoch, where the cache is stale.
    fn assert_cache_current(&self, what: &str) {
        assert!(
            !matches!(self.epoch, Epoch::Replaying { .. }),
            "{what} inside a replaying epoch, whose cache is stale"
        );
    }

    /// Non-mutating residency probe of a span: how many of its lines a
    /// read *would* hit right now. No fill, no promotion, no counters.
    ///
    /// # Panics
    ///
    /// Panics inside a replaying epoch.
    pub fn peek_span(&self, addr: u64, bytes: u64) -> SpanCounts {
        self.assert_cache_current("peek_span");
        if bytes == 0 {
            return SpanCounts::default();
        }
        let (first, last) = self.line_range(addr, bytes);
        peek_lines(&self.cache, first, last)
    }

    /// Reads a span bypassing the cache — streaming accesses (e.g.
    /// topology in accelerators that do not cache it). Every line counts
    /// as a miss.
    pub fn read_uncached_span(&mut self, addr: u64, bytes: u64, kind: Traffic) -> SpanCounts {
        if bytes == 0 {
            return SpanCounts::default();
        }
        let (first, last) = self.line_range(addr, bytes);
        let lines = last - first + 1;
        self.bursts.run(&mut self.dram, first, lines, false);
        let stats = &mut self.per_class[kind.index()];
        stats.requests += 1;
        stats.bytes_requested += lines * self.line_bytes;
        stats.dram_bytes += lines * self.line_bytes;
        SpanCounts {
            lines,
            hits: 0,
            misses: lines,
        }
    }

    /// Streams a span to DRAM (write-no-allocate), invalidating any stale
    /// cached lines. Every line counts as a miss (it reaches DRAM).
    pub fn write_span(&mut self, addr: u64, bytes: u64, kind: Traffic) -> SpanCounts {
        if bytes == 0 {
            return SpanCounts::default();
        }
        let (first, last) = self.line_range(addr, bytes);
        self.write_lines_inner(first, last - first + 1, 1, kind)
    }

    /// Replays a compacted write run (see [`MemorySystem::access_lines`]
    /// for the `base` contract). Write runs carry no seams — the write
    /// compactor merges only strictly contiguous spans, so the streamed
    /// DRAM bursts replay in the original order and every clock/counter
    /// matches the span-at-a-time path bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the run carries seam hits (reads-only metadata).
    #[inline]
    pub fn write_lines(&mut self, base: u64, run: LineRun, kind: Traffic) -> SpanCounts {
        if run.lines == 0 {
            return SpanCounts::default();
        }
        assert_eq!(run.seam_hits, 0, "write runs never merge seams");
        debug_assert!(
            base.is_multiple_of(self.line_bytes),
            "region base {base:#x} not aligned to {}-byte lines",
            self.line_bytes
        );
        self.write_lines_inner(
            self.line_div.div(base) + run.first_line,
            run.lines,
            u64::from(run.spans),
            kind,
        )
    }

    /// The shared streaming-write replay: invalidate + DRAM burst for
    /// `lines` consecutive lines, charged as `spans` requests.
    fn write_lines_inner(
        &mut self,
        first: u64,
        lines: u64,
        spans: u64,
        kind: Traffic,
    ) -> SpanCounts {
        self.cache_op(first, lines, 0, true);
        self.bursts.run(&mut self.dram, first, lines, true);
        let stats = &mut self.per_class[kind.index()];
        stats.requests += spans;
        stats.bytes_requested += lines * self.line_bytes;
        stats.dram_bytes += lines * self.line_bytes;
        SpanCounts {
            lines,
            hits: 0,
            misses: lines,
        }
    }

    /// The DRAM device, read-only: its `Debug` rendering carries every
    /// open row and every `f64` channel and bank clock, so two
    /// hierarchies can be compared bit for bit.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Elapsed DRAM time (busiest channel) in cycles.
    pub fn elapsed_dram_cycles(&self) -> u64 {
        self.dram.elapsed_cycles()
    }

    /// Counters snapshot.
    ///
    /// # Panics
    ///
    /// Panics inside a replaying epoch.
    pub fn report(&self) -> MemReport {
        self.assert_cache_current("report");
        MemReport {
            cache: self.cache.stats(),
            dram: self.dram.stats(),
            per_class: self.per_class,
        }
    }
}

/// A global cache with no memory behind it: the hierarchy a serving
/// engine keeps warm across requests. Reads probe the cache model
/// exactly as [`MemorySystem::access_lines`] does on the same model, so
/// contents, hits and evictions match it line for line (the
/// `proptest_row_cache` oracle test checks it), but a miss walks no DRAM
/// and books no per-class traffic — an engine prices its warm hits at
/// its class's effective bandwidth and never reads the device.
///
/// Optional per-row residency counters ([`RowCache::track_rows`]) turn
/// "how many lines of this feature row are resident" into one array
/// read, which is what cache-affinity routing scores engines by.
#[derive(Debug, Clone)]
pub struct RowCache<C: CacheModel = Cache> {
    cache: C,
    /// Line-byte divider (its divisor is the line size).
    line_div: FastDiv,
    /// Opt-in row-residency counters; `None` keeps every read
    /// unobserved.
    rows: Option<RowResidency>,
}

impl<C: CacheModel> RowCache<C> {
    /// An empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the cache geometry is degenerate.
    pub fn new(config: CacheConfig) -> Self {
        RowCache {
            cache: C::new(config),
            line_div: FastDiv::new(config.line_bytes),
            rows: None,
        }
    }

    /// Arms exact per-row residency counting: from now on every fill and
    /// eviction updates a resident-line count for row
    /// `line / lines_per_row`, read back by [`RowCache::resident_lines`].
    /// The counts equal [`RowCache::peek_span`] over a row's byte range
    /// as long as rows are line-aligned runs of `lines_per_row` lines
    /// from address 0 — which is how a serving engine's cache holds
    /// feature rows.
    ///
    /// # Panics
    ///
    /// Panics if `lines_per_row` is zero or the cache already holds
    /// lines (arm tracking on a cold cache).
    pub fn track_rows(&mut self, lines_per_row: u64) {
        assert!(lines_per_row > 0, "a row spans at least one line");
        assert_eq!(
            self.cache.occupancy(),
            0,
            "arm row tracking on a cold cache"
        );
        self.rows = Some(RowResidency {
            lines_per_row: FastDiv::new(lines_per_row),
            counts: Vec::new(),
        });
    }

    /// Whether [`RowCache::track_rows`] armed the row counters.
    pub fn tracks_rows(&self) -> bool {
        self.rows.is_some()
    }

    /// Lines of row `row` resident right now: one array read.
    ///
    /// # Panics
    ///
    /// Panics unless [`RowCache::track_rows`] armed the counters.
    #[inline]
    pub fn resident_lines(&self, row: u64) -> u64 {
        let rows = self.rows.as_ref().expect("row tracking is armed");
        usize::try_from(row)
            .ok()
            .and_then(|r| rows.counts.get(r))
            .map_or(0, |&c| u64::from(c))
    }

    /// Cache line size in bytes.
    #[inline]
    pub fn line_bytes(&self) -> u64 {
        self.line_div.divisor()
    }

    /// Reads `lines` consecutive lines from line `first_line` — a whole
    /// feature row, or a run of adjacent rows — filling every miss.
    /// Returns the run's hits and misses.
    #[inline]
    pub fn read_lines(&mut self, first_line: u64, lines: u64) -> SpanCounts {
        let hits = self
            .cache
            .probe_run_observed(first_line, lines, |_, _| {}, &mut self.rows);
        SpanCounts {
            lines,
            hits,
            misses: lines - hits,
        }
    }

    /// Non-mutating residency probe of a span: how many of its lines a
    /// read *would* hit right now. No fill, no promotion. One set scan
    /// per line, so it is the oracle the O(1)-per-row
    /// [`RowCache::resident_lines`] counters are tested against, not the
    /// scheduler's path.
    pub fn peek_span(&self, addr: u64, bytes: u64) -> SpanCounts {
        if bytes == 0 {
            return SpanCounts::default();
        }
        let (first, last) = (self.line_div.div(addr), self.line_div.div(addr + bytes - 1));
        peek_lines(&self.cache, first, last)
    }

    /// Power-cycle flush — the failure-drill hook: an engine recovering
    /// from a crash (or spun up by an autoscaler) comes back *cold*,
    /// holding no lines, with every row counter at zero, so the first
    /// requests it serves honestly pay the warm-up again. It then
    /// replays any trace exactly like a fresh cache.
    pub fn flush(&mut self) {
        self.cache.flush();
        if let Some(rows) = &mut self.rows {
            rows.counts.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{ListCache, ReplacementPolicy};

    fn sys() -> MemorySystem {
        MemorySystem::new(CacheConfig::default(), DramConfig::hbm2())
    }

    #[test]
    fn read_hits_second_time() {
        let mut m = sys();
        m.read_span(0, 256, Traffic::FeatureRead);
        m.read_span(0, 256, Traffic::FeatureRead);
        let r = m.report();
        assert_eq!(r.cache.misses, 4);
        assert_eq!(r.cache.hits, 4);
        assert_eq!(r.dram_bytes_read(), 256);
        assert_eq!(r.traffic(Traffic::FeatureRead).bytes_requested, 512);
        assert_eq!(r.traffic(Traffic::FeatureRead).dram_bytes, 256);
    }

    #[test]
    fn unaligned_read_touches_extra_line() {
        let mut m = sys();
        m.read_span(60, 8, Traffic::FeatureRead); // straddles two lines
        assert_eq!(m.report().dram_bytes_read(), 128);
    }

    #[test]
    fn write_streams_and_invalidates() {
        let mut m = sys();
        m.read_span(0, 64, Traffic::FeatureRead);
        m.write_span(0, 64, Traffic::FeatureWrite);
        // The line was invalidated: next read misses again.
        m.read_span(0, 64, Traffic::FeatureRead);
        let r = m.report();
        assert_eq!(r.cache.hits, 0);
        assert_eq!(r.dram.bytes_written, 64);
        assert_eq!(r.dram_bytes_read(), 128);
        assert_eq!(r.traffic(Traffic::FeatureWrite).dram_bytes, 64);
    }

    #[test]
    fn uncached_read_never_fills() {
        let mut m = sys();
        m.read_uncached_span(0, 128, Traffic::Topology);
        m.read_span(0, 128, Traffic::Topology);
        let r = m.report();
        // The cached read still misses: the uncached one did not fill.
        assert_eq!(r.cache.misses, 2);
        assert_eq!(r.traffic(Traffic::Topology).dram_bytes, 128 + 128);
    }

    #[test]
    fn traffic_classes_are_separate() {
        let mut m = sys();
        m.read_span(0, 64, Traffic::Topology);
        m.read_span(1 << 20, 64, Traffic::Weight);
        m.write_span(2 << 20, 64, Traffic::PartialSum);
        let r = m.report();
        assert_eq!(r.traffic(Traffic::Topology).requests, 1);
        assert_eq!(r.traffic(Traffic::Weight).requests, 1);
        assert_eq!(r.traffic(Traffic::PartialSum).requests, 1);
        assert_eq!(r.traffic(Traffic::FeatureRead).requests, 0);
    }

    #[test]
    fn zero_byte_ops_are_noops() {
        let mut m = sys();
        m.read_span(0, 0, Traffic::FeatureRead);
        m.write_span(0, 0, Traffic::FeatureWrite);
        assert_eq!(
            m.read_span(0, 0, Traffic::FeatureRead),
            SpanCounts::default()
        );
        let r = m.report();
        assert_eq!(r.cache.accesses(), 0);
        assert_eq!(r.dram_total_bytes(), 0);
    }

    #[test]
    fn span_counts_partition_lines() {
        let mut m = sys();
        let cold = m.read_span(0, 256, Traffic::FeatureRead);
        assert_eq!(
            cold,
            SpanCounts {
                lines: 4,
                hits: 0,
                misses: 4
            }
        );
        let warm = m.read_span(0, 256, Traffic::FeatureRead);
        assert_eq!(
            warm,
            SpanCounts {
                lines: 4,
                hits: 4,
                misses: 0
            }
        );
        let w = m.write_span(0, 100, Traffic::FeatureWrite);
        assert_eq!(
            w,
            SpanCounts {
                lines: 2,
                hits: 0,
                misses: 2
            }
        );
    }

    #[test]
    fn labels_are_unique() {
        let mut l: Vec<&str> = Traffic::ALL.iter().map(|t| t.label()).collect();
        l.sort_unstable();
        l.dedup();
        assert_eq!(l.len(), 5);
    }

    #[test]
    fn peek_span_counts_residency_without_mutating() {
        let mut m = sys();
        assert_eq!(
            m.peek_span(0, 256),
            SpanCounts {
                lines: 4,
                hits: 0,
                misses: 4
            }
        );
        m.read_span(0, 128, Traffic::FeatureRead);
        let before = m.report();
        let p = m.peek_span(0, 256);
        assert_eq!(
            p,
            SpanCounts {
                lines: 4,
                hits: 2,
                misses: 2
            }
        );
        assert_eq!(m.report(), before, "peek must leave every counter alone");
        assert_eq!(m.peek_span(0, 0), SpanCounts::default());
    }

    /// A 4-set × 2-way cache of 64 B lines.
    fn small_rows<C: CacheModel>() -> RowCache<C> {
        RowCache::new(CacheConfig {
            capacity_bytes: 512,
            ways: 2,
            line_bytes: 64,
            ..CacheConfig::default()
        })
    }

    fn row_counters_follow<C: CacheModel>() {
        // Rows of 2 lines, so rows 0 and 2 share sets 0–1 and row 4
        // evicts the older of them.
        let mut m = small_rows::<C>();
        m.track_rows(2);
        assert!(m.tracks_rows());
        assert_eq!(m.resident_lines(7), 0, "untouched row");
        m.read_lines(0, 2); // row 0
        m.read_lines(8, 2); // row 4
        assert_eq!((m.resident_lines(0), m.resident_lines(4)), (2, 2));
        m.read_lines(16, 2); // row 8 evicts row 0
        assert_eq!(
            (
                m.resident_lines(0),
                m.resident_lines(4),
                m.resident_lines(8)
            ),
            (0, 2, 2)
        );
        m.flush();
        assert_eq!(m.resident_lines(8), 0);
        m.read_lines(0, 1);
        assert_eq!(m.resident_lines(0), 1);
        m.flush();
        assert_eq!(m.resident_lines(0), 0);
    }

    #[test]
    fn row_counters_follow_fills_evictions_and_flushes() {
        row_counters_follow::<Cache>();
        row_counters_follow::<ListCache>();
    }

    #[test]
    #[should_panic(expected = "cold cache")]
    fn row_tracking_arms_only_on_a_cold_cache() {
        let mut m = small_rows::<Cache>();
        m.read_lines(0, 1);
        m.track_rows(1);
    }

    #[test]
    #[should_panic(expected = "row tracking is armed")]
    fn resident_lines_needs_armed_tracking() {
        let _ = small_rows::<Cache>().resident_lines(0);
    }

    fn flush_drops_contents<C: CacheModel>() {
        let mut m = RowCache::<C>::new(CacheConfig::default());
        m.read_lines(0, 4);
        assert_eq!(m.peek_span(0, 256).hits, 4, "lines resident");
        m.flush();
        assert_eq!(m.peek_span(0, 256).hits, 0, "contents gone");
        // The re-read pays cold misses again.
        let cold = m.read_lines(0, 4);
        assert_eq!(cold.hits, 0);
    }

    #[test]
    fn flush_drops_contents_on_both_engines() {
        flush_drops_contents::<Cache>();
        flush_drops_contents::<ListCache>();
    }

    fn flush_matches_fresh<C: CacheModel>() {
        let mut recovered = RowCache::<C>::new(CacheConfig::default());
        recovered.track_rows(4);
        recovered.read_lines(0, 64);
        recovered.flush();
        let mut fresh = RowCache::<C>::new(CacheConfig::default());
        fresh.track_rows(4);
        for _ in 0..2 {
            assert_eq!(recovered.read_lines(2, 11), fresh.read_lines(2, 11));
        }
        for row in 0..16 {
            assert_eq!(recovered.resident_lines(row), fresh.resident_lines(row));
        }
        assert_eq!(recovered.peek_span(0, 4096), fresh.peek_span(0, 4096));
    }

    #[test]
    fn flush_matches_a_fresh_cache() {
        // A recovered engine must be indistinguishable from a brand-new
        // one: replaying the same trace on both yields identical counts
        // and residency — the honesty guarantee failure drills rest on.
        flush_matches_fresh::<Cache>();
        flush_matches_fresh::<ListCache>();
    }

    #[test]
    fn access_lines_matches_read_span() {
        let mut by_span = sys();
        let mut by_run = sys();
        by_span.read_span(128, 300, Traffic::FeatureRead);
        by_run.access_lines(0, LineRun::contiguous(2, 5), Traffic::FeatureRead);
        assert_eq!(by_span.report(), by_run.report());
        assert_eq!(by_span.elapsed_dram_cycles(), by_run.elapsed_dram_cycles());
    }

    #[test]
    fn access_lines_books_seams_as_hits_and_requests_per_span() {
        // Two byte-adjacent spans sharing a boundary line, merged into
        // one run with a seam: [0, 100) then [100, 200).
        let mut by_span = sys();
        by_span.read_span(0, 100, Traffic::FeatureRead);
        by_span.read_span(100, 100, Traffic::FeatureRead);
        let mut by_run = sys();
        let run = LineRun {
            first_line: 0,
            lines: 4,
            spans: 2,
            seam_hits: 1,
        };
        let counts = by_run.access_lines(0, run, Traffic::FeatureRead);
        assert_eq!(by_span.report(), by_run.report());
        // 4 distinct lines + 1 seam re-probe, all misses except the seam.
        assert_eq!(
            counts,
            SpanCounts {
                lines: 5,
                hits: 1,
                misses: 4
            }
        );
        let t = by_run.report().traffic(Traffic::FeatureRead);
        assert_eq!(t.requests, 2);
        assert_eq!(t.bytes_requested, 5 * 64);
        assert_eq!(t.dram_bytes, 4 * 64);
    }

    #[test]
    fn write_lines_matches_write_span() {
        let mut by_span = sys();
        let mut by_run = sys();
        for m in [&mut by_span, &mut by_run] {
            m.read_span(0, 256, Traffic::FeatureRead); // lines to invalidate
        }
        by_span.write_span(64, 192, Traffic::FeatureWrite);
        by_run.write_lines(
            0,
            LineRun {
                first_line: 1,
                lines: 3,
                spans: 1,
                seam_hits: 0,
            },
            Traffic::FeatureWrite,
        );
        assert_eq!(by_span.report(), by_run.report());
        assert_eq!(by_span.elapsed_dram_cycles(), by_run.elapsed_dram_cycles());
        // The written lines were invalidated in both.
        assert_eq!(by_span.peek_span(0, 256), by_run.peek_span(0, 256));
    }

    #[test]
    #[should_panic(expected = "never merge seams")]
    fn write_lines_rejects_seam_runs() {
        let mut m = sys();
        m.write_lines(
            0,
            LineRun {
                first_line: 0,
                lines: 2,
                spans: 2,
                seam_hits: 1,
            },
            Traffic::FeatureWrite,
        );
    }

    #[test]
    fn empty_runs_are_noops() {
        let mut m = sys();
        assert_eq!(
            m.access_lines(0, LineRun::default(), Traffic::FeatureRead),
            SpanCounts::default()
        );
        assert_eq!(
            m.write_lines(0, LineRun::default(), Traffic::FeatureWrite),
            SpanCounts::default()
        );
        assert_eq!(m.report().cache.accesses(), 0);
        assert_eq!(m.report().dram_total_bytes(), 0);
    }

    #[test]
    fn access_lines_rebases_onto_region_base() {
        let mut by_span = sys();
        let mut by_run = sys();
        let base = 1u64 << 20;
        by_span.read_span(base, 256, Traffic::Weight);
        by_run.access_lines(base, LineRun::contiguous(0, 4), Traffic::Weight);
        assert_eq!(by_span.report(), by_run.report());
    }

    fn multi_burst_lines<C: CacheModel>() {
        let mut m = MemorySystem::<C>::new(
            CacheConfig {
                line_bytes: 128,
                ..CacheConfig::default()
            },
            DramConfig::hbm2(),
        );
        m.read_span(0, 1000, Traffic::FeatureRead); // 8 missed lines
        m.read_span(0, 1000, Traffic::FeatureRead); // all hits
        m.read_uncached_span(1 << 20, 256, Traffic::Topology); // 2 lines
        m.write_span(2 << 20, 384, Traffic::FeatureWrite); // 3 lines
        let r = m.report();
        assert_eq!(r.cache.misses, 8);
        assert_eq!(r.dram.read_bursts, 2 * (8 + 2));
        assert_eq!(r.dram.write_bursts, 2 * 3);
        let per_class: u64 = r.per_class.iter().map(|t| t.dram_bytes).sum();
        assert_eq!(r.dram_total_bytes(), per_class);
    }

    #[test]
    fn multi_burst_lines_move_every_burst() {
        // 128 B lines over 64 B bursts: each missed or streamed line is
        // two DRAM bursts, so the DRAM byte totals equal the per-class
        // ones on every path.
        multi_burst_lines::<Cache>();
        multi_burst_lines::<ListCache>();
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn lines_must_be_whole_bursts() {
        MemorySystem::<Cache>::new(
            CacheConfig {
                capacity_bytes: 96 * 16 * 4,
                line_bytes: 96,
                ..CacheConfig::default()
            },
            DramConfig::hbm2(),
        );
    }

    #[test]
    fn engines_report_identical_counters() {
        fn drive<C: CacheModel>() -> MemorySystem<C> {
            let mut m = MemorySystem::<C>::new(CacheConfig::default(), DramConfig::hbm2());
            m.read_span(0, 300, Traffic::FeatureRead);
            m.read_span(128, 64, Traffic::FeatureRead);
            m.write_span(64, 256, Traffic::FeatureWrite);
            m.read_span(0, 512, Traffic::PartialSum);
            m.read_uncached_span(4096, 128, Traffic::Topology);
            m
        }
        let (flat, list) = (drive::<Cache>(), drive::<ListCache>());
        assert_eq!(flat.report(), list.report());
        assert_eq!(format!("{:?}", flat.dram()), format!("{:?}", list.dram()));
    }

    /// Byte base of the synthetic weight region: layer `l`'s one weight
    /// line sits `l` strides above it, always in set 0 of the 4-set epoch
    /// cache, so the last two layers' weights stay resident as dead tags.
    const WEIGHTS: u64 = 1 << 20;
    const WEIGHT_STRIDE: u64 = 4096;
    /// Steps of one synthetic layer.
    const STEPS: usize = 11;
    /// Layers [`drive_epochs`] runs; epochs open from layer 1 on.
    const LAYERS: usize = 8;

    /// How [`drive_epochs`] departs from the repeating stream.
    #[derive(Clone, Copy, PartialEq)]
    enum Twist {
        None,
        /// An extra read before step `.1` of layer `.0`.
        Extra(usize, usize),
        /// Layer `.0` ends after `.1` steps.
        Stop(usize, usize),
    }

    /// One step of the synthetic layer stream over the feature region at
    /// `base`. It touches sets 1–3 only, so set 0 keeps the weights; it
    /// covers all-miss, all-hit and mixed probes, seam hits, an
    /// invalidate and an uncached read.
    fn stream_step<C: CacheModel>(m: &mut MemorySystem<C>, base: u64, step: usize) {
        let group = |g: u64| LineRun::contiguous(4 * g + 1, 3);
        match step {
            0..=5 => m.access_lines(base, group(step as u64), Traffic::FeatureRead),
            6 | 7 => m.access_lines(base, group(step as u64 - 2), Traffic::FeatureRead),
            8 => m.write_span(base + 22 * 64, 64, Traffic::FeatureWrite),
            9 => m.read_uncached_span(base + (1 << 16), 128, Traffic::Topology),
            _ => m.access_lines(
                base,
                LineRun {
                    first_line: 21,
                    lines: 3,
                    spans: 2,
                    seam_hits: 1,
                },
                Traffic::FeatureRead,
            ),
        };
    }

    /// Runs [`LAYERS`] synthetic layers through a 4-set × 2-way hierarchy
    /// the way the simulator does: a weight read, then (from layer 1 on)
    /// an epoch keyed by parity that declares the weights so far dead,
    /// around a stream that repeats every two layers. Returns the
    /// hierarchy and every epoch's outcome.
    fn drive_epochs<C: CacheModel>(
        policy: ReplacementPolicy,
        twist: Twist,
    ) -> (MemorySystem<C>, Vec<EpochOutcome>) {
        let mut m = MemorySystem::<C>::new(
            CacheConfig {
                capacity_bytes: 512,
                ways: 2,
                line_bytes: 64,
                policy,
            },
            DramConfig::hbm2(),
        );
        let mut outcomes = Vec::new();
        for l in 0..LAYERS {
            let weights = WEIGHTS + l as u64 * WEIGHT_STRIDE;
            m.read_span(weights, 64, Traffic::Weight);
            if l >= 1 {
                m.open_epoch(l % 2, WEIGHTS..weights + WEIGHT_STRIDE);
            }
            let base = (2 + (l % 2) as u64) << 24;
            for step in 0..=STEPS {
                if twist == Twist::Extra(l, step) {
                    m.read_span(base + 4097 * 64, 64, Traffic::FeatureRead);
                }
                if twist == Twist::Stop(l, step) || step == STEPS {
                    break;
                }
                stream_step(&mut m, base, step);
            }
            if l >= 1 {
                outcomes.push(m.close_epoch());
            }
        }
        (m, outcomes)
    }

    /// Drives both cache models and demands equal reports and DRAM state;
    /// returns the `Cache` run's epoch outcomes.
    fn epochs_match_the_list_reference(
        policy: ReplacementPolicy,
        twist: Twist,
    ) -> Vec<EpochOutcome> {
        let (flat, outcomes) = drive_epochs::<Cache>(policy, twist);
        let (list, list_outcomes) = drive_epochs::<ListCache>(policy, twist);
        assert_eq!(flat.report(), list.report(), "{policy:?}");
        assert_eq!(format!("{:?}", flat.dram()), format!("{:?}", list.dram()));
        assert!(
            list_outcomes.iter().all(|&o| o == EpochOutcome::Unrecorded),
            "the reference runs every epoch unlogged: {list_outcomes:?}"
        );
        outcomes
    }

    #[test]
    fn repeating_epochs_replay_like_the_list_reference() {
        use EpochOutcome::{Recorded, Replayed};
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo] {
            let outcomes = epochs_match_the_list_reference(policy, Twist::None);
            assert_eq!(
                outcomes,
                [Recorded, Recorded, Replayed, Replayed, Replayed, Replayed, Replayed],
                "{policy:?}"
            );
        }
    }

    #[test]
    fn early_divergence_retires_its_key() {
        use EpochOutcome::{Diverged, Recorded, Replayed, Unrecorded};
        // Layer 5 departs from layer 3's template at its first op, so
        // layer 7, under the same key, runs unlogged; layer 6's key
        // still replays.
        let outcomes = epochs_match_the_list_reference(ReplacementPolicy::Lru, Twist::Extra(5, 0));
        assert_eq!(
            outcomes,
            [Recorded, Recorded, Replayed, Replayed, Diverged, Replayed, Unrecorded]
        );
        // Departing after four of the template's ten ops keeps the key
        // recording: layer 7 replays layer 5's log and diverges again.
        let outcomes = epochs_match_the_list_reference(ReplacementPolicy::Lru, Twist::Extra(5, 4));
        assert_eq!(
            outcomes,
            [Recorded, Recorded, Replayed, Replayed, Diverged, Replayed, Diverged]
        );
    }

    #[test]
    fn diverging_epochs_fall_back_exactly() {
        // Layer 5 replays layer 3's template until it makes an op the
        // template did not: at its first op, mid-stream, past the
        // template's end, or by ending early.
        for twist in [
            Twist::Extra(5, 0),
            Twist::Extra(5, 4),
            Twist::Extra(5, STEPS),
            Twist::Stop(5, 7),
        ] {
            let outcomes = epochs_match_the_list_reference(ReplacementPolicy::Lru, twist);
            assert_eq!(
                outcomes[..4],
                [
                    EpochOutcome::Recorded,
                    EpochOutcome::Recorded,
                    EpochOutcome::Replayed,
                    EpochOutcome::Replayed
                ]
            );
            assert_eq!(outcomes[4], EpochOutcome::Diverged);
        }
    }

    #[test]
    fn bip_counter_mismatch_refuses_replay() {
        // BIP's insertion counter ticks with every miss, so no epoch
        // would enter with its template's counter: BIP records nothing.
        let outcomes = epochs_match_the_list_reference(ReplacementPolicy::Bip, Twist::None);
        assert!(
            outcomes.iter().all(|&o| o == EpochOutcome::Unrecorded),
            "{outcomes:?}"
        );
        // The same tags under another counter do not match.
        let mut a = Cache::new(CacheConfig {
            capacity_bytes: 512,
            ways: 2,
            line_bytes: 64,
            policy: ReplacementPolicy::Bip,
        });
        assert!(!a.can_replay());
        a.access(0);
        a.access(64);
        let mut b = a.clone();
        assert!(a.same_state(&b, &(0..0)));
        b.access(128); // a miss into an empty set ticks the counter...
        b.invalidate(128); // ...and leaves the tags as they were.
        assert_eq!(b.occupancy(), a.occupancy());
        assert!(!a.same_state(&b, &(0..0)));
    }

    #[test]
    fn same_state_anonymises_dead_tags_only() {
        let mut a = Cache::new(CacheConfig {
            capacity_bytes: 512,
            ways: 2,
            line_bytes: 64,
            ..CacheConfig::default()
        });
        let mut b = a.clone();
        a.access(4 * 64); // line 4, set 0
        b.access(8 * 64); // line 8, set 0
        assert!(a.same_state(&b, &(4..12)), "both tags dead");
        assert!(!a.same_state(&b, &(4..8)), "line 8 is live");
        assert!(!a.same_state(&b, &(0..0)));
    }

    #[test]
    #[should_panic(expected = "declared-dead")]
    fn ops_on_dead_lines_panic() {
        let mut m = sys();
        m.read_span(WEIGHTS, 64, Traffic::Weight);
        m.open_epoch(0, WEIGHTS..WEIGHTS + WEIGHT_STRIDE);
        m.close_epoch();
        m.read_span(WEIGHTS + 64, 64, Traffic::Weight);
    }
}
