//! The cache + DRAM front-end driven by the accelerator models.
//!
//! Reads probe the global cache and go to DRAM on miss; writes stream to
//! DRAM (no-allocate, invalidating stale lines) — matching the paper's
//! architecture where the compressor flushes output slices straight to
//! DRAM (§V-E) while aggregation reads flow through the global cache
//! (§III-B). Every request is tagged with a [`Traffic`] class so reports
//! can reproduce the breakdown of Fig. 14.
//!
//! The span methods ([`MemorySystem::read_span`] and friends) are the
//! allocation-free fast path: one call walks a whole byte span line by
//! line inside the crate (coalescing the per-line bookkeeping and letting
//! the cache short-circuit repeated probes) and returns the per-span
//! [`SpanCounts`]. The legacy single-shot methods (`read`, `write`, …)
//! delegate to them, so every caller sees identical counters.
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

impl std::fmt::Display for Traffic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
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

/// The memory hierarchy: global cache in front of HBM.
///
/// Generic over the cache model: production code uses the default
/// [`Cache`]; the equivalence tests run the same hierarchy on
/// [`crate::ListCache`].
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
            u64::from(run.seam_hits),
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
        seam_hits: u64,
        kind: Traffic,
    ) -> SpanCounts {
        let (bursts, dram) = (self.bursts, &mut self.dram);
        let hits = self
            .cache
            .probe_run(first, lines, |miss_first, miss_count| {
                bursts.run(dram, miss_first, miss_count, false)
            });
        self.cache.count_repeat_hits(seam_hits);
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

    /// Reads `bytes` bytes at `addr` through the cache; misses go to DRAM.
    pub fn read(&mut self, addr: u64, bytes: u64, kind: Traffic) {
        self.read_span(addr, bytes, kind);
    }

    /// Non-mutating residency probe of a span: how many of its lines a
    /// read *would* hit right now. No fill, no promotion, no counters.
    pub fn peek_span(&self, addr: u64, bytes: u64) -> SpanCounts {
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

    /// Reads bypassing the cache — streaming accesses (e.g. topology in
    /// accelerators that do not cache it).
    pub fn read_uncached(&mut self, addr: u64, bytes: u64, kind: Traffic) {
        self.read_uncached_span(addr, bytes, kind);
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
        self.cache.invalidate_run(first, lines);
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

    /// Streams `bytes` bytes at `addr` to DRAM (write-no-allocate),
    /// invalidating any stale cached lines.
    pub fn write(&mut self, addr: u64, bytes: u64, kind: Traffic) {
        self.write_span(addr, bytes, kind);
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
    pub fn report(&self) -> MemReport {
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
    use crate::cache::ListCache;

    fn sys() -> MemorySystem {
        MemorySystem::new(CacheConfig::default(), DramConfig::hbm2())
    }

    #[test]
    fn read_hits_second_time() {
        let mut m = sys();
        m.read(0, 256, Traffic::FeatureRead);
        m.read(0, 256, Traffic::FeatureRead);
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
        m.read(60, 8, Traffic::FeatureRead); // straddles two lines
        assert_eq!(m.report().dram_bytes_read(), 128);
    }

    #[test]
    fn write_streams_and_invalidates() {
        let mut m = sys();
        m.read(0, 64, Traffic::FeatureRead);
        m.write(0, 64, Traffic::FeatureWrite);
        // The line was invalidated: next read misses again.
        m.read(0, 64, Traffic::FeatureRead);
        let r = m.report();
        assert_eq!(r.cache.hits, 0);
        assert_eq!(r.dram.bytes_written, 64);
        assert_eq!(r.dram_bytes_read(), 128);
        assert_eq!(r.traffic(Traffic::FeatureWrite).dram_bytes, 64);
    }

    #[test]
    fn uncached_read_never_fills() {
        let mut m = sys();
        m.read_uncached(0, 128, Traffic::Topology);
        m.read(0, 128, Traffic::Topology);
        let r = m.report();
        // The cached read still misses: the uncached one did not fill.
        assert_eq!(r.cache.misses, 2);
        assert_eq!(r.traffic(Traffic::Topology).dram_bytes, 128 + 128);
    }

    #[test]
    fn traffic_classes_are_separate() {
        let mut m = sys();
        m.read(0, 64, Traffic::Topology);
        m.read(1 << 20, 64, Traffic::Weight);
        m.write(2 << 20, 64, Traffic::PartialSum);
        let r = m.report();
        assert_eq!(r.traffic(Traffic::Topology).requests, 1);
        assert_eq!(r.traffic(Traffic::Weight).requests, 1);
        assert_eq!(r.traffic(Traffic::PartialSum).requests, 1);
        assert_eq!(r.traffic(Traffic::FeatureRead).requests, 0);
    }

    #[test]
    fn zero_byte_ops_are_noops() {
        let mut m = sys();
        m.read(0, 0, Traffic::FeatureRead);
        m.write(0, 0, Traffic::FeatureWrite);
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
        m.read(0, 128, Traffic::FeatureRead);
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
            m.read(0, 256, Traffic::FeatureRead); // lines to invalidate
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
        m.read(0, 1000, Traffic::FeatureRead); // 8 missed lines
        m.read(0, 1000, Traffic::FeatureRead); // all hits
        m.read_uncached(1 << 20, 256, Traffic::Topology); // 2 lines
        m.write(2 << 20, 384, Traffic::FeatureWrite); // 3 lines
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
            m.read(0, 300, Traffic::FeatureRead);
            m.read(128, 64, Traffic::FeatureRead);
            m.write(64, 256, Traffic::FeatureWrite);
            m.read(0, 512, Traffic::PartialSum);
            m.read_uncached(4096, 128, Traffic::Topology);
            m
        }
        let (flat, list) = (drive::<Cache>(), drive::<ListCache>());
        assert_eq!(flat.report(), list.report());
        assert_eq!(format!("{:?}", flat.dram()), format!("{:?}", list.dram()));
    }
}
