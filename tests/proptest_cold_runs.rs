//! Property tests for the cold-run replay in `Cache::probe_run`: a run
//! that covers every set, under LRU or FIFO, unobserved, with none of
//! its lines resident, is written per set in closed form instead of
//! probed per line. `Cache` must still replay every run exactly like
//! the per-line `ListCache` reference, so these traces aim long read
//! runs (at least one line per set, up to four times the capacity) at a
//! random start set — the simulator's weight regions always start at
//! set 0, so only this test exercises the wrap — about half of them
//! overlapping lines left resident by the previous run, interleaved
//! with streaming writes and further long reads. They run on a 16-set ×
//! 4-way cache and a 1-set cache, under LRU, FIFO and BIP, on the
//! simulator's `MemorySystem` and on a serving engine's `RowCache` with
//! and without row tracking (BIP and tracked caches take the per-line
//! walk, so they check the gate, not the closed form).
//!
//! After every operation the two `MemorySystem`s must agree on
//! `report()`, on the DRAM device's `Debug` rendering (counters, open
//! rows, `f64` clocks) and on a per-line `peek_span` residency
//! fingerprint; the two `RowCache`s must agree on every read's counts,
//! on the fingerprint and, when tracked, on every row's
//! `resident_lines`. `peek` cannot see recency order, so each case ends
//! by replaying one common probe trace on both sides and comparing
//! again.

use proptest::prelude::*;
use sgcn_formats::LineRun;
use sgcn_mem::{
    Cache, CacheConfig, CacheModel, DramConfig, ListCache, MemorySystem, ReplacementPolicy,
    RowCache, Traffic,
};

const LINE: u64 = 64;
const WAYS: usize = 4;
/// Lines per tracked row.
const ROW_LINES: u64 = 4;
const POLICIES: [ReplacementPolicy; 3] = [
    ReplacementPolicy::Lru,
    ReplacementPolicy::Fifo,
    ReplacementPolicy::Bip,
];

/// A `sets`-set, 4-way cache of 64 B lines.
fn config(sets: u64, policy: ReplacementPolicy) -> CacheConfig {
    CacheConfig {
        capacity_bytes: sets * WAYS as u64 * LINE,
        ways: WAYS,
        line_bytes: LINE,
        policy,
    }
}

/// One generated case, in geometry-free units that [`drive`] scales.
#[derive(Debug, Clone)]
struct Case {
    /// Warm-up ops `(kind, position, length)`.
    warm: Vec<(u32, u64, u64)>,
    /// Long runs `(overlap, position, length, between-op kind, its
    /// position, its length)`.
    runs: Vec<(bool, u64, u64, u32, u64, u64)>,
    /// The closing common probe trace `(position, length)`.
    probes: Vec<(u64, u64)>,
}

fn case() -> impl Strategy<Value = Case> {
    (
        proptest::collection::vec((0u32..2, 0u64..1 << 20, 0u64..1 << 20), 0..40),
        proptest::collection::vec(
            (
                proptest::bool::ANY,
                0u64..1 << 20,
                0u64..1 << 20,
                0u32..4,
                0u64..1 << 20,
                0u64..1 << 20,
            ),
            1..8,
        ),
        proptest::collection::vec((0u64..1 << 20, 0u64..1 << 20), 1..40),
    )
        .prop_map(|(warm, runs, probes)| Case { warm, runs, probes })
}

/// How the runs of one [`drive`] fell.
#[derive(Debug, Default, Clone, Copy)]
struct Coverage {
    /// Runs with no line resident beforehand (cold when LRU/FIFO and
    /// unobserved).
    cold: u32,
    /// Cold runs whose first line is not in set 0.
    cold_wrapped: u32,
    /// Runs that found at least one line resident.
    overlapping: u32,
}

/// Lines a run may start in on a `sets`-set cache (16× its capacity);
/// runs reach up to 4× the capacity past that.
fn space(sets: u64) -> (u64, u64) {
    let capacity = sets * WAYS as u64;
    (16 * capacity, 4 * capacity)
}

/// Places a generated run `(first line, lines)`: at least one line per
/// set, at most four times the capacity, starting inside the start
/// space. An overlapping run starts in the window of the capacity's
/// worth of lines below `end` (one past the previous run, whose newest
/// lines sit there); any other starts at a random distance past `end`.
fn place(sets: u64, end: u64, overlap: bool, pos: u64, len: u64) -> (u64, u64) {
    let (space, max_run) = space(sets);
    let lines = sets + len % (max_run - sets + 1);
    let first = if overlap {
        end.saturating_sub(1 + pos % (max_run / 4))
    } else {
        end + pos % (space / 2)
    };
    (first % space, lines)
}

/// Asserts `flat` and `list` agree on everything a caller can observe
/// without probing: counters, the DRAM device bit for bit and per-line
/// residency over `lines` lines.
fn assert_same(flat: &MemorySystem, list: &MemorySystem<ListCache>, lines: u64, what: &str) {
    assert_eq!(flat.report(), list.report(), "{what}: report");
    assert_eq!(
        format!("{:?}", flat.dram()),
        format!("{:?}", list.dram()),
        "{what}: DRAM state"
    );
    for line in 0..lines {
        assert_eq!(
            flat.peek_span(line * LINE, LINE),
            list.peek_span(line * LINE, LINE),
            "{what}: residency of line {line}"
        );
    }
}

/// A short span (1..=4 lines) that scatters residency before the long
/// runs: a read or a streaming write.
fn short_op<C: CacheModel>(
    mem: &mut MemorySystem<C>,
    space: u64,
    (kind, pos, len): (u32, u64, u64),
) {
    let (addr, bytes) = ((pos % space) * LINE, (1 + len % 4) * LINE);
    if kind == 0 {
        mem.read_span(addr, bytes, Traffic::FeatureRead);
    } else {
        mem.write_span(addr, bytes, Traffic::FeatureWrite);
    }
}

/// A long run `(first line, lines)`, through `read_span` or
/// `access_lines` by `by_span`.
fn long_read<C: CacheModel>(mem: &mut MemorySystem<C>, first: u64, lines: u64, by_span: bool) {
    if by_span {
        mem.read_span(first * LINE, lines * LINE, Traffic::Weight);
    } else {
        mem.access_lines(0, LineRun::contiguous(first, lines), Traffic::Weight);
    }
}

/// Between runs: a streaming write, a long partial-sum read (a cold run
/// of its own when nothing it touches is resident), or nothing.
fn between_op<C: CacheModel>(mem: &mut MemorySystem<C>, between: u32, addr: u64, bytes: u64) {
    match between {
        0 => {
            mem.write_span(addr, bytes, Traffic::FeatureWrite);
        }
        1 => {
            mem.read_span(addr, bytes, Traffic::PartialSum);
        }
        _ => {}
    }
}

/// Replays `case` on a `Cache` and a `ListCache` hierarchy of `sets`
/// sets and compares them after every operation.
fn drive(sets: u64, policy: ReplacementPolicy, case: &Case) -> Coverage {
    let (space, max_run) = space(sets);
    // Every line a run or a between-run op touches.
    let watched = space + max_run;
    let mut flat = MemorySystem::<Cache>::new(config(sets, policy), DramConfig::hbm2());
    let mut list = MemorySystem::<ListCache>::new(config(sets, policy), DramConfig::hbm2());
    let tag = format!("{sets} sets, {policy:?}");

    for &op in &case.warm {
        short_op(&mut flat, space, op);
        short_op(&mut list, space, op);
    }
    assert_same(&flat, &list, watched, &format!("{tag}, warm-up"));

    let mut coverage = Coverage::default();
    let mut end = 0u64;
    for (i, &(overlap, pos, len, between, bpos, blen)) in case.runs.iter().enumerate() {
        let (first, lines) = place(sets, end, overlap, pos, len);
        if list.peek_span(first * LINE, lines * LINE).hits == 0 {
            coverage.cold += 1;
            coverage.cold_wrapped += u32::from(!first.is_multiple_of(sets));
        } else {
            coverage.overlapping += 1;
        }
        long_read(&mut flat, first, lines, len % 2 == 0);
        long_read(&mut list, first, lines, len % 2 == 0);
        let what = format!("{tag}, run {i} ({first}+{lines})");
        assert_same(&flat, &list, watched, &what);
        end = first + lines;

        let (addr, bytes) = ((bpos % space) * LINE, (1 + blen % max_run) * LINE);
        between_op(&mut flat, between, addr, bytes);
        between_op(&mut list, between, addr, bytes);
        assert_same(&flat, &list, watched, &format!("{tag}, after run {i}"));
    }

    // Recency order is invisible to `peek`: a common probe trace shows
    // it through the hits and evictions it produces.
    for (i, &(pos, len)) in case.probes.iter().enumerate() {
        let (addr, bytes) = ((pos % watched) * LINE, (1 + len % 4) * LINE);
        let (a, b) = (
            flat.read_span(addr, bytes, Traffic::FeatureRead),
            list.read_span(addr, bytes, Traffic::FeatureRead),
        );
        assert_eq!(a, b, "{tag}, probe {i}");
    }
    assert_same(&flat, &list, watched, &format!("{tag}, probe trace"));
    coverage
}

/// A `Cache` and a `ListCache` engine cache side by side.
struct RowPair {
    flat: RowCache,
    list: RowCache<ListCache>,
}

/// Reads `lines` lines from `first` on both engine caches and asserts
/// they count the read alike, then hold the same lines over `watched`
/// lines and, when tracked, the same per-row counts.
fn read_both(pair: &mut RowPair, first: u64, lines: u64, watched: u64, what: &str) {
    let RowPair { flat, list } = pair;
    assert_eq!(
        flat.read_lines(first, lines),
        list.read_lines(first, lines),
        "{what}: read {first}+{lines}"
    );
    for line in 0..watched {
        assert_eq!(
            flat.peek_span(line * LINE, LINE),
            list.peek_span(line * LINE, LINE),
            "{what}: residency of line {line}"
        );
    }
    if flat.tracks_rows() {
        for row in 0..watched.div_ceil(ROW_LINES) {
            assert_eq!(
                flat.resident_lines(row),
                list.resident_lines(row),
                "{what}: resident lines of row {row}"
            );
        }
    }
}

/// [`drive`] on a `Cache` and a `ListCache` engine cache: the same
/// short reads, long runs and closing probes, with a power-cycle flush
/// in place of the streaming write (an engine cache never sees writes).
fn drive_rows(sets: u64, policy: ReplacementPolicy, tracked: bool, case: &Case) {
    let (space, max_run) = space(sets);
    let watched = space + max_run;
    let mut pair = RowPair {
        flat: RowCache::new(config(sets, policy)),
        list: RowCache::new(config(sets, policy)),
    };
    if tracked {
        pair.flat.track_rows(ROW_LINES);
        pair.list.track_rows(ROW_LINES);
    }
    let tag = format!("engine cache, {sets} sets, {policy:?}, tracked {tracked}");
    for (i, &(_, pos, len)) in case.warm.iter().enumerate() {
        let what = format!("{tag}, warm-up {i}");
        read_both(&mut pair, pos % space, 1 + len % 4, watched, &what);
    }
    let mut end = 0u64;
    for (i, &(overlap, pos, len, between, bpos, blen)) in case.runs.iter().enumerate() {
        let (first, lines) = place(sets, end, overlap, pos, len);
        read_both(&mut pair, first, lines, watched, &format!("{tag}, run {i}"));
        end = first + lines;
        match between {
            0 => {
                pair.flat.flush();
                pair.list.flush();
            }
            1 => {
                let what = format!("{tag}, after run {i}");
                read_both(&mut pair, bpos % space, 1 + blen % max_run, watched, &what);
            }
            _ => {}
        }
    }
    for (i, &(pos, len)) in case.probes.iter().enumerate() {
        let what = format!("{tag}, probe {i}");
        read_both(&mut pair, pos % watched, 1 + len % 4, watched, &what);
    }
}

/// The miss sub-runs per-line probes produce, merged like
/// `probe_run`'s callback.
fn per_line_misses(cache: &mut Cache, first: u64, lines: u64) -> (u64, Vec<(u64, u64)>) {
    let mut hits = 0;
    let mut misses: Vec<(u64, u64)> = Vec::new();
    for line in first..first + lines {
        if cache.access_line(line) {
            hits += 1;
        } else {
            match misses.last_mut() {
                Some((start, count)) if *start + *count == line => *count += 1,
                _ => misses.push((line, 1)),
            }
        }
    }
    (hits, misses)
}

proptest! {
    #[test]
    fn long_runs_replay_like_the_list_reference(case in case()) {
        for sets in [16u64, 1] {
            for policy in POLICIES {
                drive(sets, policy, &case);
                for tracked in [false, true] {
                    drive_rows(sets, policy, tracked, &case);
                }
            }
        }
    }

    #[test]
    fn cache_probe_run_reports_the_per_line_miss_runs(case in case()) {
        // Cache level: `probe_run`'s hits, miss-run callbacks, counters
        // and contents against per-line `access_line`, on the same long
        // runs, with invalidations standing in for streaming writes.
        for sets in [16u64, 1] {
            let (space, max_run) = space(sets);
            for policy in POLICIES {
                let mut batched = Cache::new(config(sets, policy));
                let mut per_line = Cache::new(config(sets, policy));
                for &(_, pos, len) in &case.warm {
                    let (first, lines) = (pos % space, 1 + len % 4);
                    per_line_misses(&mut per_line, first, lines);
                    per_line_misses(&mut batched, first, lines);
                }
                let mut end = 0u64;
                for &(overlap, pos, len, between, bpos, _) in &case.runs {
                    let (first, lines) = place(sets, end, overlap, pos, len);
                    let mut reported = Vec::new();
                    let hits = batched.probe_run(first, lines, |miss_first, miss_count| {
                        reported.push((miss_first, miss_count));
                    });
                    let (expect_hits, expect_misses) = per_line_misses(&mut per_line, first, lines);
                    prop_assert_eq!(hits, expect_hits);
                    prop_assert_eq!(reported, expect_misses);
                    prop_assert_eq!(batched.stats(), per_line.stats());
                    end = first + lines;
                    if between == 0 {
                        let line = bpos % space;
                        let dropped = batched.invalidate_line(line);
                        prop_assert_eq!(dropped, per_line.invalidate_line(line));
                    }
                }
                for line in 0..space + max_run {
                    prop_assert_eq!(batched.peek_line(line), per_line.peek_line(line));
                }
                for &(pos, _) in &case.probes {
                    let line = pos % (space + max_run);
                    prop_assert_eq!(batched.access_line(line), per_line.access_line(line));
                }
                prop_assert_eq!(batched.stats(), per_line.stats());
            }
        }
    }
}

#[test]
fn generated_runs_cover_cold_overlapping_and_wrapped_starts() {
    // The properties above prove nothing about the closed form unless
    // the generated runs reach it: both kinds of run must occur, and
    // cold runs must start off set 0.
    let strategy = case();
    let mut total = Coverage::default();
    for n in 0..proptest::cases() {
        let mut rng = proptest::test_rng(proptest::fnv("cold_run_coverage"), n);
        let case = strategy.generate(&mut rng);
        let c = drive(16, ReplacementPolicy::Lru, &case);
        total.cold += c.cold;
        total.cold_wrapped += c.cold_wrapped;
        total.overlapping += c.overlapping;
    }
    assert!(total.cold > 0, "{total:?}");
    assert!(total.cold_wrapped > 0, "{total:?}");
    assert!(total.overlapping > 0, "{total:?}");
}
