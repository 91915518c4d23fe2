//! Set-associative global cache.
//!
//! Models the accelerator's on-chip global cache (Table III: 512 KB,
//! 16-way, LRU, 64 B lines) "resembling a last-level cache in modern CPUs"
//! (§III-B). Accesses are line-granular; the [`crate::MemorySystem`] breaks
//! byte spans into lines before probing.
//!
//! Two implementations share the replacement semantics bit for bit:
//!
//! * [`Cache`] — the fast path: one flat `Box<[u64]>` tag array with
//!   each set's tags kept in recency order (slot 0 = MRU). A probe is a
//!   linear scan over one set's (≤ 16) contiguous tags; promotions shift
//!   a few in-L1 words in place; no per-access heap traffic or per-set
//!   pointer chasing. Because hot lines sit at MRU, repeated probes of
//!   the same line short-circuit on the first compare — the dominant
//!   pattern when spans are swept line by line. (A per-way recency-stamp
//!   variant was measured slower; see the [`Cache`] docs.) A *cold* run
//!   — it covers every set, the policy is LRU or FIFO, no residency
//!   sink observes it, and none of its lines is resident — cannot hit,
//!   so [`Cache::probe_run`] writes each set's end state in closed form
//!   instead of probing line by line. BIP (a global insertion counter
//!   ticked per miss) and observed probes (per-line fill/evict
//!   callbacks in probe order) keep the per-line walk.
//! * [`ListCache`] — the original recency-list model (`Vec` per set,
//!   `remove`/`insert` on every promotion). Kept as the executable
//!   specification: it implements only the per-line primitives of
//!   [`CacheModel`], so every run replay it performs is the trait's
//!   per-line default. The equivalence tests drive both on randomized
//!   traces and demand identical [`CacheStats`], and run the whole
//!   simulator on it through `AccelModel::simulate_on::<ListCache>`.
//!
//! The memory hierarchy is generic over [`CacheModel`]
//! (`MemorySystem<C = Cache>`, `RowCache<C = Cache>`); production code
//! instantiates only [`Cache`]. Only [`Cache`] implements
//! [`CacheModel::can_replay`] (for LRU and FIFO) and
//! [`CacheModel::same_state`], the entry check of `MemorySystem`'s
//! epoch memo, so the memo replays layers on [`Cache`] alone and a
//! [`ListCache`] run is the memo-free oracle of it.

/// Replacement policy for the global cache.
///
/// Table III specifies LRU; the alternatives exist for the replacement
/// ablation (`sgcn_fig ablation_cache` in `sgcn-bench`) — the paper's §V-C
/// motivates SAC precisely by LRU's thrashing pattern on oversized
/// working sets, the problem BIP-style insertion policies attack
/// (Qureshi et al., ISCA'07, the paper's reference \[61\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Least-recently-used (the paper's configuration).
    #[default]
    Lru,
    /// First-in first-out: insertion order, no recency promotion.
    Fifo,
    /// Bimodal insertion: new lines insert at LRU position except one in
    /// `1/32` inserted at MRU — thrash-resistant for cyclic working sets.
    Bip,
}

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Replacement policy.
    pub policy: ReplacementPolicy,
}

impl Default for CacheConfig {
    /// The paper's Table III cache: 512 KB, 16-way, 64 B lines, LRU.
    fn default() -> Self {
        CacheConfig {
            capacity_bytes: 512 * 1024,
            ways: 16,
            line_bytes: 64,
            policy: ReplacementPolicy::Lru,
        }
    }
}

impl CacheConfig {
    /// Convenience constructor with capacity in KiB.
    pub fn with_capacity_kib(kib: u64) -> Self {
        CacheConfig {
            capacity_bytes: kib * 1024,
            ..CacheConfig::default()
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways/line, or capacity not
    /// a multiple of `ways × line_bytes`).
    pub fn sets(&self) -> usize {
        assert!(
            self.ways > 0 && self.line_bytes > 0,
            "degenerate cache geometry"
        );
        let set_bytes = self.ways as u64 * self.line_bytes;
        assert!(
            self.capacity_bytes.is_multiple_of(set_bytes) && self.capacity_bytes > 0,
            "capacity {} not a multiple of way×line {}",
            self.capacity_bytes,
            set_bytes
        );
        (self.capacity_bytes / set_bytes) as usize
    }

    /// The row-granular twin of this geometry for a cache that only
    /// ever sees whole rows of `lines_per_row` lines laid out from
    /// address 0: `sets / lines_per_row` sets of one
    /// `lines_per_row × line_bytes` line per row, same ways and
    /// capacity. `Some` only when the twin is exact — `lines_per_row ≥
    /// 1` divides the set count and the policy is LRU or FIFO.
    ///
    /// Row `v`'s line `j` lands in set `k·(v mod S/k) + j` (`k` lines
    /// per row, `S` sets), so every set of a `k`-set group receives the
    /// identical row sequence. Under LRU or FIFO each set evolves on its
    /// own sequence alone, so the group's sets hold the same rows in the
    /// same order and every row access hits or misses on all `k` lines
    /// together: the twin replays it hit for hit and eviction for
    /// eviction, with every count divided by `k`. BIP is excluded — its
    /// bimodal counter is global and ticks per missed line, so the sets
    /// of a group diverge.
    pub fn row_granular(self, lines_per_row: u64) -> Option<CacheConfig> {
        let exact = lines_per_row >= 1
            && (self.sets() as u64).is_multiple_of(lines_per_row)
            && matches!(
                self.policy,
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo
            );
        exact.then(|| CacheConfig {
            line_bytes: self.line_bytes * lines_per_row,
            ..self
        })
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Line accesses that hit.
    pub hits: u64,
    /// Line accesses that missed.
    pub misses: u64,
    /// Evictions of valid lines.
    pub evictions: u64,
}

impl CacheStats {
    /// Total line accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; zero when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

use std::ops::Range;

use crate::fastdiv::FastDiv;

/// Observer of line-residency changes during a probe: told of every line
/// a miss fills and of every valid line a fill evicts. The row-residency
/// counters behind [`crate::RowCache::track_rows`] implement it; the
/// simulator's [`crate::MemorySystem`] probes through the empty `()`
/// sink.
pub trait ResidencySink {
    /// `line` was filled into the cache.
    fn fill(&mut self, line: u64);
    /// `line`, previously resident, left the cache.
    fn evict(&mut self, line: u64);
    /// Whether the hooks do anything. A sink that answers `false` lets
    /// the cache skip its per-line fill/evict reports, which is what
    /// admits a run to [`Cache`]'s cold-run replay.
    fn observing(&self) -> bool {
        true
    }
}

/// The untracked sink: both hooks are empty, so an unobserved probe
/// monomorphises to the plain replay.
impl ResidencySink for () {
    #[inline(always)]
    fn fill(&mut self, _line: u64) {}
    #[inline(always)]
    fn evict(&mut self, _line: u64) {}
    #[inline(always)]
    fn observing(&self) -> bool {
        false
    }
}

/// A cache model the memory hierarchy drives: [`Cache`] in production,
/// [`ListCache`] as the reference the equivalence tests run in its place.
///
/// A model implements the per-line primitives; the run methods default to
/// the per-line seed loops over them, which a faster model overrides with
/// a batched walk that must stay counter-for-counter and state-for-state
/// identical (the equivalence tests check it). The epoch-memo hooks
/// ([`CacheModel::can_replay`], [`CacheModel::same_state`],
/// [`CacheModel::adopt_state`]) default to "never replay".
pub trait CacheModel: Clone + std::fmt::Debug {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (see [`CacheConfig::sets`]).
    fn new(config: CacheConfig) -> Self;

    /// Geometry.
    fn config(&self) -> CacheConfig;

    /// Counters so far.
    fn stats(&self) -> CacheStats;

    /// Probes the line containing `addr`, reporting the fill and the
    /// evicted line of a miss to `sink`; fills on miss, evicting per the
    /// configured policy. Returns `true` on hit.
    fn access_observed<S: ResidencySink>(&mut self, addr: u64, sink: &mut S) -> bool;

    /// Non-mutating presence probe by line index: no fill, no promotion,
    /// no statistics.
    fn peek_line(&self, line: u64) -> bool;

    /// Invalidates the line containing `addr` if present (used by
    /// streaming writes that bypass the cache, so later reads see fresh
    /// data). Returns `true` if a line was dropped.
    fn invalidate(&mut self, addr: u64) -> bool;

    /// Books `n` additional hits without touching contents — the seam
    /// accounting of the line-run replay: a compacted read run's seam
    /// lines would each have re-probed the line touched immediately
    /// before (a guaranteed hit that never moves replacement state), so
    /// the replay skips the probe and records the hits here.
    fn count_repeat_hits(&mut self, n: u64);

    /// Valid lines currently held.
    fn occupancy(&self) -> u64;

    /// Invalidates all lines and restarts BIP's insertion count, keeping
    /// the statistics: a flushed cache replays any trace exactly like a
    /// fresh one.
    fn flush(&mut self);

    /// Probes the line containing `addr` (see
    /// [`CacheModel::access_observed`]).
    #[inline]
    fn access(&mut self, addr: u64) -> bool {
        self.access_observed(addr, &mut ())
    }

    /// Probes `lines` consecutive lines starting at `first_line` — the
    /// line-run replay behind `MemorySystem::access_lines`. Every maximal
    /// sub-run of consecutive *misses* is reported to `on_miss_run` as
    /// `(first missed line, count)` so the caller can batch the DRAM
    /// walk. Returns the hit count.
    #[inline]
    fn probe_run(&mut self, first_line: u64, lines: u64, on_miss_run: impl FnMut(u64, u64)) -> u64 {
        self.probe_run_observed(first_line, lines, on_miss_run, &mut ())
    }

    /// [`CacheModel::probe_run`] reporting every fill and every eviction
    /// to `sink`, in probe order. The default probes each line through
    /// [`CacheModel::access_observed`] in ascending order.
    fn probe_run_observed<S: ResidencySink>(
        &mut self,
        first_line: u64,
        lines: u64,
        mut on_miss_run: impl FnMut(u64, u64),
        sink: &mut S,
    ) -> u64 {
        let line_bytes = self.config().line_bytes;
        let (mut hits, mut miss_start, mut miss_len) = (0u64, 0u64, 0u64);
        for line in first_line..first_line + lines {
            if self.access_observed(line * line_bytes, sink) {
                hits += 1;
                if miss_len > 0 {
                    on_miss_run(miss_start, miss_len);
                    miss_len = 0;
                }
            } else {
                if miss_len == 0 {
                    miss_start = line;
                }
                miss_len += 1;
            }
        }
        if miss_len > 0 {
            on_miss_run(miss_start, miss_len);
        }
        hits
    }

    /// Invalidates `lines` consecutive lines starting at `first_line`
    /// (the streaming-write line-run replay). The default invalidates
    /// each line through [`CacheModel::invalidate`] in ascending order.
    fn invalidate_run(&mut self, first_line: u64, lines: u64) {
        let line_bytes = self.config().line_bytes;
        for line in first_line..first_line + lines {
            self.invalidate(line * line_bytes);
        }
    }

    /// Whether [`CacheModel::same_state`] can match a later state of this
    /// cache against an earlier one, so that [`crate::MemorySystem`]'s
    /// epoch memo is worth recording. The default is false, like
    /// `same_state`'s, and the memo then runs every epoch unlogged.
    fn can_replay(&self) -> bool {
        false
    }

    /// Whether `self` and `other` are in the same replacement state once
    /// every tag in `dead` is made anonymous: slot by slot the same valid
    /// tags, or dead tags on both sides, and the same BIP counter.
    /// Statistics are not state. Two such caches answer every op that
    /// touches no dead line identically, and end again in the same state
    /// up to dead tags. [`crate::MemorySystem`]'s epoch memo replays a
    /// recorded epoch only when this holds at the epoch's entry.
    ///
    /// The default never matches. The memo asks only models whose
    /// [`CacheModel::can_replay`] holds, so [`ListCache`], which keeps
    /// both defaults, stays a memo-free oracle.
    fn same_state(&self, _other: &Self, _dead: &Range<u64>) -> bool {
        false
    }

    /// Ends a replayed epoch: takes `exit`'s contents and replacement
    /// state, and adds the counters `exit` gained over `entry` to this
    /// cache's. Called only after [`CacheModel::same_state`] matched
    /// `entry`, so the default, for models that never match, is
    /// unreachable.
    fn adopt_state(&mut self, _entry: &Self, _exit: &Self) {
        unreachable!("a model whose same_state never matches never replays")
    }
}

/// A set-associative cache over 64 B (configurable) lines with a
/// selectable replacement policy (LRU by default) — the allocation-free
/// fast path.
///
/// All sets live in **one** flat `Box<[u64]>` tag array (row-major,
/// `ways` slots per set), with each set's tags kept in recency order
/// (slot 0 = MRU). A probe is a linear scan over ≤ `ways` contiguous
/// words; promotions shift a handful of in-L1 words with `copy_within`.
/// Compared to the original per-set `Vec` lists ([`ListCache`]) this
/// removes the per-set heap indirection and all per-access allocation,
/// and because hot lines sit at MRU, a repeated probe short-circuits on
/// the first compare. (A per-way recency-stamp variant was measured
/// too: the extra min-stamp scan on every miss made it ~25% slower than
/// this layout on thrashing traces, so the in-place recency order won.)
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Line-byte divider (shift when power-of-two).
    line_div: FastDiv,
    /// Set divider (mask when power-of-two).
    set_div: FastDiv,
    /// Line tags, `sets × ways`, each set's slice in recency order
    /// (slot 0 = MRU); only the first `len[set]` slots are valid.
    tags: Box<[u64]>,
    /// Valid-way count per set.
    len: Box<[u8]>,
    stats: CacheStats,
    /// Deterministic counter driving BIP's bimodal insertion.
    bip_counter: u64,
}

impl Cache {
    /// Probes a line by index (the span fast path already has the line
    /// number; see [`CacheModel::access`]).
    #[inline]
    pub fn access_line(&mut self, line: u64) -> bool {
        self.probe_at(self.set_div.rem(line) as usize, line)
    }

    /// The probe body with the set index already known — the run replay
    /// walks consecutive sets incrementally instead of re-deriving
    /// `line % sets` per line.
    #[inline]
    fn probe_at(&mut self, set: usize, line: u64) -> bool {
        let ways = self.config.ways;
        let base = set * ways;
        let n = self.len[set] as usize;
        let set_tags = &mut self.tags[base..base + ways];

        let mut pos = usize::MAX;
        for (w, &t) in set_tags[..n].iter().enumerate() {
            if t == line {
                pos = w;
                break;
            }
        }
        if pos != usize::MAX {
            // FIFO does not promote on hit; LRU and BIP do. A repeat
            // probe finds the line at MRU and the shift is a no-op.
            if !matches!(self.config.policy, ReplacementPolicy::Fifo) {
                set_tags.copy_within(0..pos, 1);
                set_tags[0] = line;
            }
            self.stats.hits += 1;
            return true;
        }

        // Miss: evict the LRU slot when full, then insert at MRU (LRU and
        // FIFO) or at the LRU end (BIP's bimodal cold insert).
        let filled = if n == ways {
            self.stats.evictions += 1;
            ways
        } else {
            self.len[set] = (n + 1) as u8;
            n + 1
        };
        let at_mru = match self.config.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => true,
            ReplacementPolicy::Bip => {
                self.bip_counter = self.bip_counter.wrapping_add(1);
                self.bip_counter.is_multiple_of(32)
            }
        };
        if at_mru {
            set_tags.copy_within(0..filled - 1, 1);
            set_tags[0] = line;
        } else {
            set_tags[filled - 1] = line;
        }
        self.stats.misses += 1;
        false
    }

    /// Whether any valid tag lies in `[first_line, first_line + lines)`:
    /// one pass over every set's valid slots.
    fn holds_any(&self, first_line: u64, lines: u64) -> bool {
        self.tags
            .chunks_exact(self.config.ways)
            .zip(self.len.iter())
            .any(|(set_tags, &n)| {
                set_tags[..usize::from(n)]
                    .iter()
                    .any(|&t| t.wrapping_sub(first_line) < lines)
            })
    }

    /// The cold-run replay (see [`Cache::probe_run_observed`]): writes
    /// each set's closed-form end state. The set `j` steps past the
    /// run's start set receives lines `first_line + j + i·sets`.
    fn fill_cold_run(&mut self, first_line: u64, lines: u64) {
        let ways = self.config.ways;
        let nsets = self.len.len();
        let sets = nsets as u64;
        let (per_set, extra) = (lines / sets, lines % sets);
        let mut set = self.set_div.rem(first_line) as usize;
        let mut evictions = 0u64;
        for j in 0..sets {
            let m = per_set + u64::from(j < extra);
            let newest = first_line + j + (m - 1) * sets;
            let n = usize::from(self.len[set]);
            let fresh = m.min(ways as u64) as usize;
            let set_tags = &mut self.tags[set * ways..(set + 1) * ways];
            set_tags.copy_within(0..n.min(ways - fresh), fresh);
            for (w, slot) in set_tags[..fresh].iter_mut().enumerate() {
                *slot = newest - w as u64 * sets;
            }
            let total = n as u64 + m;
            self.len[set] = total.min(ways as u64) as u8;
            evictions += total.saturating_sub(ways as u64);
            set += 1;
            if set == nsets {
                set = 0;
            }
        }
        self.stats.misses += lines;
        self.stats.evictions += evictions;
    }

    /// Invalidates a line by index (the span fast path already has the
    /// line number; see [`Cache::access_line`]).
    #[inline]
    pub fn invalidate_line(&mut self, line: u64) -> bool {
        let ways = self.config.ways;
        let set = self.set_div.rem(line) as usize;
        let base = set * ways;
        let n = self.len[set] as usize;
        let set_tags = &mut self.tags[base..base + ways];
        match set_tags[..n].iter().position(|&t| t == line) {
            Some(w) => {
                set_tags.copy_within(w + 1..n, w);
                self.len[set] = (n - 1) as u8;
                true
            }
            None => false,
        }
    }
}

impl CacheModel for Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (see [`CacheConfig::sets`])
    /// or the associativity exceeds 255.
    fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(
            config.ways <= u8::MAX as usize,
            "associativity above 255 unsupported"
        );
        Cache {
            config,
            line_div: FastDiv::new(config.line_bytes),
            set_div: FastDiv::new(sets as u64),
            tags: vec![0; sets * config.ways].into_boxed_slice(),
            len: vec![0; sets].into_boxed_slice(),
            stats: CacheStats::default(),
            bip_counter: 0,
        }
    }

    fn config(&self) -> CacheConfig {
        self.config
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    /// A one-line run through [`Cache::probe_run_observed`].
    fn access_observed<S: ResidencySink>(&mut self, addr: u64, sink: &mut S) -> bool {
        self.probe_run_observed(self.line_div.div(addr), 1, |_, _| {}, sink) == 1
    }

    #[inline]
    fn peek_line(&self, line: u64) -> bool {
        let ways = self.config.ways;
        let set = self.set_div.rem(line) as usize;
        let base = set * ways;
        let n = self.len[set] as usize;
        self.tags[base..base + n].contains(&line)
    }

    fn invalidate(&mut self, addr: u64) -> bool {
        self.invalidate_line(self.line_div.div(addr))
    }

    #[inline]
    fn count_repeat_hits(&mut self, n: u64) {
        self.stats.hits += n;
    }

    fn occupancy(&self) -> u64 {
        self.len.iter().map(|&n| u64::from(n)).sum()
    }

    /// Also zeroes the (invisible) stale tags, so a flushed cache's
    /// state is a fresh one's apart from the kept statistics.
    fn flush(&mut self) {
        self.tags.fill(0);
        self.len.fill(0);
        self.bip_counter = 0;
    }

    #[inline]
    fn access(&mut self, addr: u64) -> bool {
        self.access_line(self.line_div.div(addr))
    }

    /// One set-index computation covers the whole run (consecutive lines
    /// map to consecutive sets). Counter-for-counter and state-for-state
    /// identical to probing each line through [`Cache::access_line`] in
    /// ascending order. The evicted line reported to `sink` is always the
    /// set's last slot (`ways - 1`): LRU and FIFO keep it as the least
    /// recent, and BIP's cold insert overwrites exactly that slot.
    ///
    /// # Cold runs
    ///
    /// A run is *cold* when all four of these hold:
    ///
    /// * it covers every set (`lines ≥ sets`);
    /// * the policy is LRU or FIFO;
    /// * `sink` observes nothing ([`ResidencySink::observing`]);
    /// * one pass over the valid tags finds none in
    ///   `[first_line, first_line + lines)`.
    ///
    /// Every line of a cold run misses, and under LRU and FIFO a miss
    /// inserts at MRU and evicts the last slot, so each set ends in a
    /// closed form: of its `m` run lines the last `min(m, ways)` sit in
    /// front, newest first, and its `n` old lines shift down behind them,
    /// with `min(ways, n + m)` valid and `max(0, n + m − ways)` evicted.
    /// The replay writes that per set, books `lines` misses and makes
    /// the one `on_miss_run(first_line, lines)` call the per-line walk
    /// would make; a layer's weight stream through a fresh hierarchy is
    /// the common case. Every other run takes the per-line walk. BIP is
    /// excluded because its bimodal counter is global and ticks per
    /// missed line in probe order across sets; an observing sink is
    /// excluded because it must hear each line's evict-then-fill in
    /// probe order.
    fn probe_run_observed<S: ResidencySink>(
        &mut self,
        first_line: u64,
        lines: u64,
        mut on_miss_run: impl FnMut(u64, u64),
        sink: &mut S,
    ) -> u64 {
        if lines >= self.len.len() as u64
            && matches!(
                self.config.policy,
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo
            )
            && !sink.observing()
            && !self.holds_any(first_line, lines)
        {
            self.fill_cold_run(first_line, lines);
            on_miss_run(first_line, lines);
            return 0;
        }
        let Cache {
            config,
            tags,
            len,
            stats,
            bip_counter,
            ..
        } = self;
        let ways = config.ways;
        let policy = config.policy;
        let nsets = len.len();
        let mut set = self.set_div.rem(first_line) as usize;
        let mut line = first_line;
        let mut remaining = lines;
        let mut hits = 0u64;
        let mut evictions = 0u64;
        let mut miss_start = 0u64;
        let mut miss_len = 0u64;
        // Walk the run in contiguous set segments (consecutive lines map
        // to consecutive sets): one bounds check per segment, then the
        // tag array streams through `chunks_exact_mut`.
        while remaining > 0 {
            let seg = remaining.min((nsets - set) as u64) as usize;
            let tags_seg = &mut tags[set * ways..(set + seg) * ways];
            let len_seg = &mut len[set..set + seg];
            for (set_tags, n_slot) in tags_seg.chunks_exact_mut(ways).zip(len_seg.iter_mut()) {
                let n = *n_slot as usize;
                let mut pos = usize::MAX;
                for (w, &t) in set_tags[..n].iter().enumerate() {
                    if t == line {
                        pos = w;
                        break;
                    }
                }
                if pos != usize::MAX {
                    if pos > 0 && !matches!(policy, ReplacementPolicy::Fifo) {
                        set_tags.copy_within(0..pos, 1);
                        set_tags[0] = line;
                    }
                    hits += 1;
                    if miss_len > 0 {
                        on_miss_run(miss_start, miss_len);
                        miss_len = 0;
                    }
                } else {
                    let filled = if n == ways {
                        evictions += 1;
                        sink.evict(set_tags[ways - 1]);
                        ways
                    } else {
                        *n_slot = (n + 1) as u8;
                        n + 1
                    };
                    sink.fill(line);
                    let at_mru = match policy {
                        ReplacementPolicy::Lru | ReplacementPolicy::Fifo => true,
                        ReplacementPolicy::Bip => {
                            *bip_counter = bip_counter.wrapping_add(1);
                            bip_counter.is_multiple_of(32)
                        }
                    };
                    if at_mru {
                        set_tags.copy_within(0..filled - 1, 1);
                        set_tags[0] = line;
                    } else {
                        set_tags[filled - 1] = line;
                    }
                    if miss_len == 0 {
                        miss_start = line;
                    }
                    miss_len += 1;
                }
                line += 1;
            }
            remaining -= seg as u64;
            set = 0;
        }
        if miss_len > 0 {
            on_miss_run(miss_start, miss_len);
        }
        stats.hits += hits;
        stats.misses += lines - hits;
        stats.evictions += evictions;
        hits
    }

    /// Walks the consecutive sets incrementally; identical state to
    /// [`Cache::invalidate_line`] per line in ascending order.
    fn invalidate_run(&mut self, first_line: u64, lines: u64) {
        let ways = self.config.ways;
        let nsets = self.len.len();
        let mut set = self.set_div.rem(first_line) as usize;
        for line in first_line..first_line + lines {
            let n = self.len[set] as usize;
            let base = set * ways;
            let set_tags = &mut self.tags[base..base + ways];
            if let Some(w) = set_tags[..n].iter().position(|&t| t == line) {
                set_tags.copy_within(w + 1..n, w);
                self.len[set] = (n - 1) as u8;
            }
            set += 1;
            if set == nsets {
                set = 0;
            }
        }
    }

    /// BIP's insertion counter ticks on every miss and is part of the
    /// state, so a BIP cache that missed since a template's entry can
    /// never match it.
    fn can_replay(&self) -> bool {
        self.config.policy != ReplacementPolicy::Bip
    }

    /// Compares the valid slots of every set; the stale slots past a
    /// set's `len` are invisible and ignored.
    fn same_state(&self, other: &Self, dead: &Range<u64>) -> bool {
        let ways = self.config.ways;
        self.config == other.config
            && self.bip_counter == other.bip_counter
            && self.len == other.len
            && self
                .tags
                .chunks_exact(ways)
                .zip(other.tags.chunks_exact(ways))
                .zip(self.len.iter())
                .all(|((a, b), &n)| {
                    let n = usize::from(n);
                    a[..n]
                        .iter()
                        .zip(&b[..n])
                        .all(|(x, y)| x == y || (dead.contains(x) && dead.contains(y)))
                })
    }

    fn adopt_state(&mut self, entry: &Self, exit: &Self) {
        self.tags.copy_from_slice(&exit.tags);
        self.len.copy_from_slice(&exit.len);
        self.bip_counter = exit.bip_counter;
        self.stats.hits += exit.stats.hits - entry.stats.hits;
        self.stats.misses += exit.stats.misses - entry.stats.misses;
        self.stats.evictions += exit.stats.evictions - entry.stats.evictions;
    }
}

/// The original recency-list cache: per set, a `Vec` of line tags kept in
/// recency order (index 0 = MRU), with `remove`/`insert` on every
/// promotion. Behaviourally identical to [`Cache`] — kept as the
/// executable reference. It implements only the per-line primitives, so
/// its run replays are [`CacheModel`]'s per-line defaults.
#[derive(Debug, Clone)]
pub struct ListCache {
    config: CacheConfig,
    sets: usize,
    lines: Vec<Vec<u64>>,
    stats: CacheStats,
    bip_counter: u64,
}

impl CacheModel for ListCache {
    fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        ListCache {
            config,
            sets,
            lines: vec![Vec::with_capacity(config.ways); sets],
            stats: CacheStats::default(),
            bip_counter: 0,
        }
    }

    fn config(&self) -> CacheConfig {
        self.config
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reports the fill and the popped (evicted) tag to `sink`.
    fn access_observed<S: ResidencySink>(&mut self, addr: u64, sink: &mut S) -> bool {
        let line = addr / self.config.line_bytes;
        let set = (line % self.sets as u64) as usize;
        let policy = self.config.policy;
        let ways = &mut self.lines[set];
        if let Some(pos) = ways.iter().position(|&t| t == line) {
            // FIFO does not promote on hit; LRU and BIP do.
            if !matches!(policy, ReplacementPolicy::Fifo) {
                let tag = ways.remove(pos);
                ways.insert(0, tag);
            }
            self.stats.hits += 1;
            true
        } else {
            if ways.len() == self.config.ways {
                if let Some(evicted) = ways.pop() {
                    sink.evict(evicted);
                }
                self.stats.evictions += 1;
            }
            sink.fill(line);
            let at_mru = match policy {
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => true,
                ReplacementPolicy::Bip => {
                    self.bip_counter = self.bip_counter.wrapping_add(1);
                    self.bip_counter.is_multiple_of(32)
                }
            };
            if at_mru {
                ways.insert(0, line);
            } else {
                ways.push(line);
            }
            self.stats.misses += 1;
            false
        }
    }

    fn peek_line(&self, line: u64) -> bool {
        let set = (line % self.sets as u64) as usize;
        self.lines[set].contains(&line)
    }

    fn invalidate(&mut self, addr: u64) -> bool {
        let line = addr / self.config.line_bytes;
        let set = (line % self.sets as u64) as usize;
        let ways = &mut self.lines[set];
        if let Some(pos) = ways.iter().position(|&t| t == line) {
            ways.remove(pos);
            true
        } else {
            false
        }
    }

    fn count_repeat_hits(&mut self, n: u64) {
        self.stats.hits += n;
    }

    fn occupancy(&self) -> u64 {
        self.lines.iter().map(|set| set.len() as u64).sum()
    }

    fn flush(&mut self) {
        for set in &mut self.lines {
            set.clear();
        }
        self.bip_counter = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B.
        Cache::new(CacheConfig {
            capacity_bytes: 512,
            ways: 2,
            line_bytes: 64,
            policy: ReplacementPolicy::Lru,
        })
    }

    #[test]
    fn default_matches_table3() {
        let c = CacheConfig::default();
        assert_eq!(c.capacity_bytes, 512 * 1024);
        assert_eq!(c.ways, 16);
        assert_eq!(c.sets(), 512);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines with line_idx % 4 == 0: addresses 0, 256, 512.
        c.access(0);
        c.access(256);
        c.access(0); // 0 is MRU, 256 LRU
        c.access(512); // evicts 256
        assert!(c.access(0), "0 should survive");
        assert!(!c.access(256), "256 was evicted");
        assert_eq!(c.stats().evictions, 2); // 256 evicted, then 0 or 512
    }

    #[test]
    fn working_set_within_capacity_all_hits() {
        let mut c = tiny();
        let lines: Vec<u64> = (0..8).map(|i| i * 64).collect(); // exactly capacity
        for &a in &lines {
            c.access(a);
        }
        for &a in &lines {
            assert!(c.access(a), "line {a} should hit");
        }
        assert_eq!(c.stats().hit_rate(), 0.5);
    }

    #[test]
    fn thrashing_working_set_misses() {
        let mut c = tiny();
        // 16 distinct lines in a 8-line cache, cycled twice: all misses.
        for _ in 0..2 {
            for i in 0..16u64 {
                c.access(i * 64);
            }
        }
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().misses, 32);
    }

    #[test]
    fn flush_clears_contents_not_stats() {
        let mut c = tiny();
        c.access(0);
        c.flush();
        assert!(!c.access(0));
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn peek_reports_presence_without_touching_state() {
        let mut c = tiny();
        assert!(!c.peek_line(0), "cold cache holds nothing");
        c.access(0);
        c.access(256); // line 4: same set as line 0 (4 sets, stride 256 B)
        let before = c.stats();
        assert!(c.peek_line(0));
        assert!(c.peek_line(4));
        assert!(!c.peek_line(8));
        assert_eq!(c.stats(), before, "peek must not count as an access");
        // Peek must not promote: line 0 is still LRU, so inserting a third
        // line into the set evicts it.
        c.peek_line(0);
        c.access(512);
        assert!(!c.peek_line(0), "peek promoted the LRU line");
        assert!(c.peek_line(4));
    }

    #[test]
    fn invalidate_drops_line_and_short_circuit() {
        let mut c = tiny();
        c.access(0);
        assert!(c.access(0), "repeat probe hits via short-circuit");
        assert!(c.invalidate(0), "line present");
        assert!(!c.invalidate(0), "already gone");
        assert!(!c.access(0), "invalidate must clear the repeat fast path");
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            capacity_bytes: 1000,
            ways: 3,
            line_bytes: 64,
            policy: ReplacementPolicy::Lru,
        });
    }

    fn with_policy(policy: ReplacementPolicy) -> Cache {
        Cache::new(CacheConfig {
            capacity_bytes: 512,
            ways: 2,
            line_bytes: 64,
            policy,
        })
    }

    #[test]
    fn fifo_does_not_promote_on_hit() {
        let mut c = with_policy(ReplacementPolicy::Fifo);
        // Set 0: lines 0, 256. Hit 0, then insert 512: FIFO evicts 0 (the
        // oldest insertion) even though it was just touched.
        c.access(0);
        c.access(256);
        assert!(c.access(0));
        c.access(512);
        assert!(!c.access(0), "FIFO evicted the oldest-inserted line");
        // LRU, by contrast, keeps the recently touched line.
        let mut l = with_policy(ReplacementPolicy::Lru);
        l.access(0);
        l.access(256);
        assert!(l.access(0));
        l.access(512);
        assert!(l.access(0), "LRU kept the recently used line");
    }

    #[test]
    fn bip_resists_cyclic_thrash() {
        // Cyclic working set slightly over capacity: LRU gets zero hits,
        // BIP retains a fraction of the set.
        let lines: Vec<u64> = (0..12u64).map(|i| i * 64 * 4).collect(); // all map set 0? no: stride 256 → sets cycle
        let run = |policy| {
            let mut c = with_policy(policy);
            for _ in 0..50 {
                for &a in &lines {
                    c.access(a);
                }
            }
            c.stats().hits
        };
        let lru_hits = run(ReplacementPolicy::Lru);
        let bip_hits = run(ReplacementPolicy::Bip);
        assert!(
            bip_hits > lru_hits,
            "BIP {bip_hits} hits should beat LRU {lru_hits} under thrash"
        );
    }

    #[test]
    fn policies_agree_when_working_set_fits() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Bip,
        ] {
            let mut c = with_policy(policy);
            let lines: Vec<u64> = (0..8u64).map(|i| i * 64).collect();
            for _ in 0..3 {
                for &a in &lines {
                    c.access(a);
                }
            }
            assert_eq!(c.stats().misses, 8, "{policy:?} compulsory misses only");
        }
    }

    mod equivalence {
        //! The flat cache must be a drop-in replacement for the recency
        //! list: identical hit/miss/eviction streams on randomized traces,
        //! for every policy, including interleaved invalidates/flushes.

        use super::*;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        fn drive(policy: ReplacementPolicy, seed: u64, ops: usize) {
            let config = CacheConfig {
                capacity_bytes: 4 * 1024,
                ways: 4,
                line_bytes: 64,
                policy,
            };
            let mut flat = Cache::new(config);
            let mut list = ListCache::new(config);
            let mut rng = SmallRng::seed_from_u64(seed);
            for op in 0..ops {
                // Addresses over 4× capacity with some repeat pressure.
                let addr = rng.gen_range(0u64..16 * 1024);
                match rng.gen_range(0u32..100) {
                    0..=79 => {
                        let (h1, h2) = (flat.access(addr), list.access(addr));
                        assert_eq!(h1, h2, "{policy:?} op {op}: access({addr}) diverged");
                    }
                    80..=89 => {
                        // Repeat probe of the previous address region to
                        // exercise the short-circuit path.
                        let (h1, h2) = (flat.access(addr & !63), list.access(addr & !63));
                        assert_eq!(h1, h2, "{policy:?} op {op}: repeat access diverged");
                    }
                    90..=97 => {
                        let (i1, i2) = (flat.invalidate(addr), list.invalidate(addr));
                        assert_eq!(i1, i2, "{policy:?} op {op}: invalidate({addr}) diverged");
                    }
                    98 => {
                        let line = addr / 64;
                        let (p1, p2) = (flat.peek_line(line), list.peek_line(line));
                        assert_eq!(p1, p2, "{policy:?} op {op}: peek({addr}) diverged");
                    }
                    _ => {
                        flat.flush();
                        list.flush();
                    }
                }
                assert_eq!(
                    flat.stats(),
                    list.stats(),
                    "{policy:?} op {op}: stats diverged"
                );
            }
        }

        #[test]
        fn flat_matches_list_on_random_traces() {
            for policy in [
                ReplacementPolicy::Lru,
                ReplacementPolicy::Fifo,
                ReplacementPolicy::Bip,
            ] {
                for seed in 0..8 {
                    drive(policy, 0xC0FFEE ^ seed, 4000);
                }
            }
        }

        #[test]
        fn flat_matches_list_under_same_line_bursts() {
            // Dense same-line repeats stress the last-line fast path.
            let config = CacheConfig {
                capacity_bytes: 1024,
                ways: 2,
                line_bytes: 64,
                policy: ReplacementPolicy::Bip,
            };
            let mut flat = Cache::new(config);
            let mut list = ListCache::new(config);
            let mut rng = SmallRng::seed_from_u64(99);
            for _ in 0..2000 {
                let addr = rng.gen_range(0u64..4096);
                let repeats = rng.gen_range(1usize..5);
                for _ in 0..repeats {
                    assert_eq!(flat.access(addr), list.access(addr));
                }
            }
            assert_eq!(flat.stats(), list.stats());
        }
    }
}
