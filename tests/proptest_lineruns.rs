//! Property tests for the line-granular trace compaction: replaying a
//! compacted run stream must be **bit-identical** — every counter, clock
//! and the cache contents themselves — to replaying the original span
//! sequence one span at a time, on both cache models. This is the
//! exactness contract of `sgcn_formats::runs` and
//! `MemorySystem::{access_lines, write_lines}` (the optimization changes
//! how counters are computed, never what they count).

use proptest::prelude::*;
use sgcn_formats::{LineRun, RunCompactor, Span};
use sgcn_mem::{
    AddressMapping, Cache, CacheConfig, CacheModel, Dram, DramConfig, ListCache, MemorySystem,
    Traffic,
};

/// Builds a span sequence from `(backstep, bytes)` pairs: each span
/// starts `backstep` bytes before the previous span's end (0 = byte
/// adjacent — the seam-heavy shape real formats emit), so the stream
/// mixes adjacency, seams, deep overlaps and (via large `bytes` jumps)
/// gaps.
fn spans_from(walk: &[(u64, u64)]) -> Vec<Span> {
    let mut spans = Vec::with_capacity(walk.len());
    let mut cursor = 4096u64;
    for &(back, bytes) in walk {
        let offset = cursor.saturating_sub(back);
        spans.push(Span::new(offset, bytes as u32));
        // Jump ahead occasionally to create line-granular gaps.
        cursor = offset + bytes + if back % 7 == 0 { back * 11 } else { 0 };
    }
    spans
}

fn small_mem<C: CacheModel>() -> MemorySystem<C> {
    // Small cache → frequent evictions; HBM2 timing model.
    MemorySystem::new(
        CacheConfig {
            capacity_bytes: 4 * 1024,
            ways: 4,
            line_bytes: 64,
            ..CacheConfig::default()
        },
        DramConfig::hbm2(),
    )
}

/// Compacts `spans` with the given compactor mode.
fn compact(mode: fn(u64) -> RunCompactor, spans: &[Span]) -> Vec<LineRun> {
    let mut c = mode(64);
    let mut runs = Vec::new();
    for &s in spans {
        c.push(s, &mut |r| runs.push(r));
    }
    c.finish(&mut |r| runs.push(r));
    runs
}

/// Residency fingerprint over the address region the spans touched.
fn residency<C: CacheModel>(mem: &MemorySystem<C>, spans: &[Span]) -> Vec<u64> {
    let end = spans.iter().map(Span::end).max().unwrap_or(0) + 64;
    (0..end / 64)
        .filter(|&line| mem.peek_span(line * 64, 64).hits == 1)
        .collect()
}

/// Replays `spans` one span at a time and as compacted read runs on
/// model `C`; both must leave identical counters, clocks and contents.
fn read_runs_replay<C: CacheModel>(spans: &[Span]) {
    let runs = compact(RunCompactor::reads, spans);
    let mut by_span = small_mem::<C>();
    let mut span_counts = sgcn_mem::SpanCounts::default();
    for &s in spans {
        span_counts.add(by_span.read_span(s.offset, u64::from(s.bytes), Traffic::FeatureRead));
    }
    let mut by_run = small_mem::<C>();
    let mut run_counts = sgcn_mem::SpanCounts::default();
    for &r in &runs {
        run_counts.add(by_run.access_lines(0, r, Traffic::FeatureRead));
    }

    // Counters, per-class traffic, DRAM stats and clocks, the returned
    // counts, and the surviving cache contents all agree.
    assert_eq!(by_span.report(), by_run.report());
    assert_eq!(by_span.elapsed_dram_cycles(), by_run.elapsed_dram_cycles());
    assert_eq!(span_counts, run_counts);
    assert_eq!(residency(&by_span, spans), residency(&by_run, spans));
    // The request count is preserved through merging: one per non-empty
    // span.
    let nonempty = spans.iter().filter(|s| !s.is_empty()).count() as u64;
    assert_eq!(
        by_run.report().traffic(Traffic::FeatureRead).requests,
        nonempty
    );
}

/// Streams `spans` one span at a time and as compacted write runs on
/// model `C`, over a cache pre-warmed so invalidation has work to do.
fn write_runs_replay<C: CacheModel>(spans: &[Span]) {
    let runs = compact(RunCompactor::writes, spans);
    for r in &runs {
        assert_eq!(r.seam_hits, 0, "write runs never merge seams");
    }
    let mut by_span = small_mem::<C>();
    let mut by_run = small_mem::<C>();
    for m in [&mut by_span, &mut by_run] {
        for &s in spans.iter().step_by(3) {
            m.read_span(s.offset, u64::from(s.bytes.max(1)), Traffic::FeatureRead);
        }
    }
    for &s in spans {
        by_span.write_span(s.offset, u64::from(s.bytes), Traffic::FeatureWrite);
    }
    for &r in &runs {
        by_run.write_lines(0, r, Traffic::FeatureWrite);
    }

    assert_eq!(by_span.report(), by_run.report());
    assert_eq!(by_span.elapsed_dram_cycles(), by_run.elapsed_dram_cycles());
    assert_eq!(residency(&by_span, spans), residency(&by_run, spans));
}

/// Alternating read/write visits, each compacted independently — the
/// shape of a simulated layer (read sweeps interleaved with output
/// write-backs) — replayed per span and per run on model `C`.
fn interleaved_replay<C: CacheModel>(walk: &[(u64, u64, bool)]) {
    let mut by_span = small_mem::<C>();
    let mut by_run = small_mem::<C>();
    let mut cursor = 0u64;
    for &(back, bytes, is_write) in walk {
        let offset = cursor.saturating_sub(back);
        cursor = offset + bytes;
        let spans = [
            Span::new(offset, bytes as u32),
            Span::new(offset + bytes, (bytes / 2) as u32),
        ];
        if is_write {
            let runs = compact(RunCompactor::writes, &spans);
            for &s in &spans {
                by_span.write_span(s.offset, u64::from(s.bytes), Traffic::FeatureWrite);
            }
            for &r in &runs {
                by_run.write_lines(0, r, Traffic::FeatureWrite);
            }
        } else {
            let runs = compact(RunCompactor::reads, &spans);
            for &s in &spans {
                by_span.read_span(s.offset, u64::from(s.bytes), Traffic::FeatureRead);
            }
            for &r in &runs {
                by_run.access_lines(0, r, Traffic::FeatureRead);
            }
        }
    }
    assert_eq!(by_span.report(), by_run.report());
    assert_eq!(by_span.elapsed_dram_cycles(), by_run.elapsed_dram_cycles());
}

/// A DRAM configuration on one of the two address mappings.
fn dram_config(bank_first: bool) -> DramConfig {
    DramConfig {
        mapping: if bank_first {
            AddressMapping::BankInterleaved
        } else {
            AddressMapping::ChannelInterleaved
        },
        ..DramConfig::hbm2()
    }
}

proptest! {
    #[test]
    fn read_runs_replay_bit_identically(
        walk in proptest::collection::vec((0u64..160, 1u64..400), 1..60),
    ) {
        let spans = spans_from(&walk);
        read_runs_replay::<Cache>(&spans);
        read_runs_replay::<ListCache>(&spans);
    }

    #[test]
    fn write_runs_replay_bit_identically(
        walk in proptest::collection::vec((0u64..160, 1u64..400), 1..60),
    ) {
        let spans = spans_from(&walk);
        write_runs_replay::<Cache>(&spans);
        write_runs_replay::<ListCache>(&spans);
    }

    #[test]
    fn interleaved_reads_and_writes_replay_bit_identically(
        walk in proptest::collection::vec((0u64..120, 1u64..300, proptest::bool::ANY), 1..50),
    ) {
        interleaved_replay::<Cache>(&walk);
        interleaved_replay::<ListCache>(&walk);
    }

    #[test]
    fn probe_run_matches_per_line_probes(
        runs in proptest::collection::vec((0u64..600, 1u64..40), 1..40),
    ) {
        // The batched cache walk must hit/miss/evict and re-order
        // recency exactly like per-line probes, including the miss
        // sub-run reporting.
        let config = CacheConfig {
            capacity_bytes: 2 * 1024,
            ways: 4,
            line_bytes: 64,
            ..CacheConfig::default()
        };
        let mut batched = Cache::new(config);
        let mut per_line = Cache::new(config);
        for &(first, lines) in &runs {
            let mut reported = Vec::new();
            let hits = batched.probe_run(first, lines, |miss_first, miss_count| {
                reported.push((miss_first, miss_count));
            });
            let mut expect_hits = 0u64;
            let mut expect_misses = Vec::new();
            for line in first..first + lines {
                if per_line.access_line(line) {
                    expect_hits += 1;
                } else {
                    match expect_misses.last_mut() {
                        Some((start, count)) if *start + *count == line => *count += 1,
                        _ => expect_misses.push((line, 1)),
                    }
                }
            }
            prop_assert_eq!(hits, expect_hits);
            prop_assert_eq!(reported, expect_misses);
            prop_assert_eq!(batched.stats(), per_line.stats());
        }
        // Contents agree afterwards.
        for line in 0..700 {
            prop_assert_eq!(batched.peek_line(line), per_line.peek_line(line));
        }
    }

    #[test]
    fn dram_access_run_matches_per_burst_accesses(
        runs in proptest::collection::vec((0u64..(1 << 22), 1u64..300, proptest::bool::ANY), 1..30),
        bank_first in proptest::bool::ANY,
    ) {
        let config = dram_config(bank_first);
        let mut batched = Dram::new(config);
        let mut per_burst = Dram::new(config);
        for &(addr, count, is_write) in &runs {
            let addr = addr & !63;
            batched.access_run(addr, count, 64, is_write);
            for i in 0..count {
                per_burst.access(addr + i * 64, is_write);
            }
            prop_assert_eq!(batched.stats(), per_burst.stats());
            // The f64 channel/bank clocks accumulate in the same order,
            // so even the rounded elapsed time matches exactly.
            prop_assert_eq!(batched.elapsed_cycles(), per_burst.elapsed_cycles());
        }
    }

    #[test]
    fn dram_access_reference_matches_access(
        ops in proptest::collection::vec((0u64..(1 << 24), proptest::bool::ANY, 1u64..6), 1..120),
    ) {
        // The seed's per-burst routine stays as the oracle of the
        // precomputed-divisor `access` (and, through the property
        // above, of `access_run`): every returned latency, every
        // counter, every open row and every `f64` clock must agree. The
        // addresses mix random jumps with short same-row bursts, on
        // both address mappings.
        for bank_first in [false, true] {
            let config = dram_config(bank_first);
            let mut fast = Dram::new(config);
            let mut reference = Dram::new(config);
            for (i, &(addr, is_write, repeats)) in ops.iter().enumerate() {
                for r in 0..repeats {
                    let addr = (addr & !63) + r * 64;
                    let (a, b) = (fast.access(addr, is_write), reference.access_reference(addr, is_write));
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?} op {} burst {}: latency", config.mapping, i, r);
                }
                prop_assert_eq!(format!("{:?}", fast), format!("{:?}", reference), "{:?} op {}", config.mapping, i);
            }
        }
    }
}
