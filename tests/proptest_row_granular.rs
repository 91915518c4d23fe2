//! Property tests for the row-granular cache twin
//! (`CacheConfig::row_granular`): a cache that only ever sees whole rows
//! of `k` lines must replay identically on the line geometry and on its
//! twin of one `k`-line line per row. Random traces of whole-row runs
//! drive both, on both cache models, under every replacement policy
//! the twin admits, for `k ∈ {1, 2, 4, 8}` on a small cache where
//! nearly every fill evicts:
//!
//! * on the simulator's `MemorySystem`, after every run the twin's span
//!   counts and cache counters times `k` equal the line geometry's, and
//!   its DRAM device — counters, open rows and every `f64` clock — is
//!   bit-identical;
//! * on a serving engine's tracked `RowCache`, with power-cycle flushes
//!   mixed in, the twin's read counts and resident-row counts times `k`
//!   equal the line geometry's after every operation.

use proptest::prelude::*;
use sgcn_formats::LineRun;
use sgcn_mem::{
    Cache, CacheConfig, CacheModel, DramConfig, ListCache, MemReport, MemorySystem,
    ReplacementPolicy, RowCache, Traffic,
};

/// 2 KiB, 2-way, 64 B lines: 16 sets × 2 ways = 32 lines.
fn line_config(policy: ReplacementPolicy) -> CacheConfig {
    CacheConfig {
        capacity_bytes: 2 * 1024,
        ways: 2,
        line_bytes: 64,
        policy,
    }
}

/// Rows the traces aim at: more than the cache holds at every `k`.
const ROWS: u64 = 48;

fn tracked<C: CacheModel>(config: CacheConfig, lines_per_row: u64) -> RowCache<C> {
    let mut mem = RowCache::new(config);
    mem.track_rows(lines_per_row);
    mem
}

/// A report's cache counters in lines of the twinned geometry.
fn in_lines(mut report: MemReport, k: u64) -> MemReport {
    report.cache.hits *= k;
    report.cache.misses *= k;
    report.cache.evictions *= k;
    report
}

/// Replays `ops` on the line geometry and its twin, both on model `C`,
/// under every policy and row size the twin admits.
fn twin_replays_line_geometry<C: CacheModel>(model: &str, ops: &[(u32, u64, u64)]) {
    for policy in [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Bip,
    ] {
        for k in [1u64, 2, 4, 8] {
            let Some(row_config) = line_config(policy).row_granular(k) else {
                continue;
            };
            let mut line = MemorySystem::<C>::new(line_config(policy), DramConfig::hbm2());
            let mut row = MemorySystem::<C>::new(row_config, DramConfig::hbm2());
            let mut line_cache = tracked::<C>(line_config(policy), k);
            let mut row_cache = tracked::<C>(row_config, 1);
            for (step, &(kind, first, n)) in ops.iter().enumerate() {
                let what = format!("{model} {policy:?} k {k} step {step}");
                if kind >= 88 {
                    line_cache.flush();
                    row_cache.flush();
                } else {
                    // `n` consecutive whole rows, one request each:
                    // adjacent missed rows share one DRAM walk.
                    let spans = n as u32;
                    let by_line = line.access_lines(
                        0,
                        LineRun {
                            first_line: first * k,
                            lines: n * k,
                            spans,
                            seam_hits: 0,
                        },
                        Traffic::FeatureRead,
                    );
                    let by_row = row.access_lines(
                        0,
                        LineRun {
                            first_line: first,
                            lines: n,
                            spans,
                            seam_hits: 0,
                        },
                        Traffic::FeatureRead,
                    );
                    assert_eq!(by_line, by_row.scaled(k), "{what}");
                    assert_eq!(
                        line_cache.read_lines(first * k, n * k),
                        row_cache.read_lines(first, n).scaled(k),
                        "{what}: engine cache"
                    );
                }
                assert_eq!(line.report(), in_lines(row.report(), k), "{what}");
                assert_eq!(
                    format!("{:?}", line.dram()),
                    format!("{:?}", row.dram()),
                    "{what}: DRAM state or clocks diverged"
                );
                assert_eq!(line.elapsed_dram_cycles(), row.elapsed_dram_cycles());
                for v in 0..ROWS + 4 {
                    assert_eq!(
                        line_cache.resident_lines(v),
                        row_cache.resident_lines(v) * k,
                        "{what} row {v}"
                    );
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn row_twin_replays_the_line_geometry(
        ops in proptest::collection::vec((0u32..100, 0u64..ROWS, 1u64..4), 1..150),
    ) {
        twin_replays_line_geometry::<Cache>("Cache", &ops);
        twin_replays_line_geometry::<ListCache>("ListCache", &ops);
    }
}

#[test]
fn row_twin_is_refused_when_inexact() {
    let lru = line_config(ReplacementPolicy::Lru);
    for k in [1, 2, 4, 8, 16] {
        assert!(lru.row_granular(k).is_some(), "k = {k} divides 16 sets");
        assert!(
            line_config(ReplacementPolicy::Fifo)
                .row_granular(k)
                .is_some(),
            "FIFO, k = {k}"
        );
        assert_eq!(
            line_config(ReplacementPolicy::Bip).row_granular(k),
            None,
            "BIP's global insertion counter splits a row's sets, k = {k}"
        );
    }
    for k in [0, 3, 5, 32] {
        assert_eq!(lru.row_granular(k), None, "k = {k} does not divide 16 sets");
    }
}
