//! Oracle property test for the serving engines' cache: a `RowCache`
//! must read whole feature rows exactly as `MemorySystem::access_lines`
//! on the same cache geometry and cache model does — the simulator's
//! cache-plus-DRAM replay, whose cache side the engine cache shares.
//! Random traces of whole-row runs and power-cycle flushes drive both,
//! on both cache models, under LRU, FIFO and BIP, for rows of 1, 2, 4
//! and 8 lines, on the line geometry and on the row-granular twin where
//! it exists, with and without row tracking. Every read's `SpanCounts` must match,
//! and after every operation each row's residency must match the
//! oracle's `peek_span` over the row — through `resident_lines` when
//! tracked, through `peek_span` otherwise.
//!
//! The oracle has no flush: it power-cycles by being rebuilt, which a
//! flushed engine cache must match under every policy.

use proptest::prelude::*;
use sgcn_formats::LineRun;
use sgcn_mem::{
    Cache, CacheConfig, CacheModel, DramConfig, ListCache, MemorySystem, ReplacementPolicy,
    RowCache, Traffic,
};

/// Rows the traces aim at: more than the cache holds at every row size.
const ROWS: u64 = 48;

/// 2 KiB, 2-way, 64 B lines: 16 sets × 2 ways = 32 lines.
fn line_config(policy: ReplacementPolicy) -> CacheConfig {
    CacheConfig {
        capacity_bytes: 2 * 1024,
        ways: 2,
        line_bytes: 64,
        policy,
    }
}

/// One engine cache under test beside its oracle, both on model `C`.
struct Pair<C: CacheModel> {
    config: CacheConfig,
    /// Lines per row in `config`'s geometry.
    lines_per_row: u64,
    tracked: bool,
    cache: RowCache<C>,
    oracle: MemorySystem<C>,
}

impl<C: CacheModel> Pair<C> {
    fn new(config: CacheConfig, lines_per_row: u64, tracked: bool) -> Self {
        let mut cache = RowCache::new(config);
        if tracked {
            cache.track_rows(lines_per_row);
        }
        Pair {
            config,
            lines_per_row,
            tracked,
            cache,
            oracle: MemorySystem::new(config, DramConfig::hbm2()),
        }
    }

    /// Power-cycles both sides: the engine cache flushes, the oracle is
    /// rebuilt.
    fn flush(&mut self) {
        self.cache.flush();
        self.oracle = MemorySystem::new(self.config, DramConfig::hbm2());
    }

    /// Asserts every row's residency matches the oracle's.
    fn check_rows(&self, what: &str) {
        let stride = self.lines_per_row * self.config.line_bytes;
        for row in 0..ROWS + 4 {
            let expect = self.oracle.peek_span(row * stride, stride);
            if self.tracked {
                assert_eq!(
                    self.cache.resident_lines(row),
                    expect.hits,
                    "{what}: row {row}"
                );
            } else {
                assert_eq!(
                    self.cache.peek_span(row * stride, stride),
                    expect,
                    "{what}: row {row}"
                );
            }
        }
    }
}

/// Replays `ops` on every policy, row size, geometry and tracking
/// mode, with the engine cache and its oracle on model `C`.
fn reads_like_access_lines<C: CacheModel>(model: &str, ops: &[(u32, u64, u64)]) {
    for policy in [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Bip,
    ] {
        for k in [1u64, 2, 4, 8] {
            let line = line_config(policy);
            // The line geometry, plus the twin when it exists
            // (at k = 1 the twin is the line geometry itself).
            let mut geometries = vec![(line, k)];
            if let Some(twin) = line.row_granular(k).filter(|_| k > 1) {
                geometries.push((twin, 1));
            }
            for (config, lines_per_row) in geometries {
                for tracked in [false, true] {
                    let mut pair = Pair::<C>::new(config, lines_per_row, tracked);
                    for (step, &(kind, first, n)) in ops.iter().enumerate() {
                        let what = format!(
                            "{model} {policy:?} k {k} {} B lines tracked {tracked} step {step}",
                            config.line_bytes
                        );
                        if kind >= 88 {
                            pair.flush();
                        } else {
                            // `n` consecutive whole rows.
                            let run = LineRun::contiguous(first * lines_per_row, n * lines_per_row);
                            let expect = pair.oracle.access_lines(0, run, Traffic::FeatureRead);
                            assert_eq!(
                                pair.cache.read_lines(run.first_line, run.lines),
                                expect,
                                "{what}"
                            );
                        }
                        pair.check_rows(&what);
                    }
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn row_cache_reads_like_access_lines(
        ops in proptest::collection::vec((0u32..100, 0u64..ROWS, 1u64..4), 1..150),
    ) {
        reads_like_access_lines::<Cache>("Cache", &ops);
        reads_like_access_lines::<ListCache>("ListCache", &ops);
    }
}
