//! Property tests for the row-residency counters behind cache-affinity
//! routing: after every operation of a random trace, each row's counter
//! (`MemorySystem::resident_lines`) must equal the set-scan oracle
//! (`MemorySystem::peek_span` over the row's line-aligned byte range),
//! on both cache engines, under every replacement policy, for rows of
//! one, five and thirty-two lines, on a small cache where nearly every
//! fill evicts.

use proptest::prelude::*;
use sgcn_formats::LineRun;
use sgcn_mem::{CacheConfig, CacheEngine, DramConfig, MemorySystem, ReplacementPolicy, Traffic};

const LINE: u64 = 64;
/// Rows the traces aim at: more lines than the 32-line cache holds even
/// at one line per row.
const ROWS: u64 = 48;

fn tracked_mem(engine: CacheEngine, policy: ReplacementPolicy, lines_per_row: u64) -> MemorySystem {
    // 2 KiB, 4-way: 8 sets × 4 ways = 32 lines.
    let mut mem = MemorySystem::with_engine(
        CacheConfig {
            capacity_bytes: 2 * 1024,
            ways: 4,
            line_bytes: LINE,
            policy,
        },
        DramConfig::hbm2(),
        engine,
    );
    mem.track_rows(lines_per_row);
    mem
}

/// Applies one trace operation. `a` picks the position, `b` the length.
fn apply(mem: &mut MemorySystem, lines_per_row: u64, (kind, a, b): (u32, u64, u64)) {
    let space = ROWS * lines_per_row * LINE;
    let addr = a % space;
    let bytes = 1 + b % (3 * lines_per_row * LINE);
    match kind {
        // Whole rows, the way a serving engine replays them.
        0..=34 => {
            let row = a % ROWS;
            mem.access_lines(
                0,
                LineRun::contiguous(row * lines_per_row, lines_per_row),
                Traffic::FeatureRead,
            );
        }
        // Arbitrary line runs, crossing row boundaries, with seams.
        35..=49 => {
            let lines = 1 + b % (2 * lines_per_row);
            let run = LineRun {
                first_line: addr / LINE,
                lines,
                spans: 1 + (b % 3) as u32,
                seam_hits: (b % 3) as u32,
            };
            mem.access_lines(0, run, Traffic::FeatureRead);
        }
        50..=69 => {
            mem.read_span(addr, bytes, Traffic::FeatureRead);
        }
        70..=81 => {
            mem.write_span(addr, bytes, Traffic::FeatureWrite);
        }
        82..=89 => {
            mem.read_modify_write_span(addr, bytes, Traffic::PartialSum);
        }
        90..=93 => mem.reset_stats(),
        94..=96 => mem.flush_cache(),
        _ => mem.reset_cold(),
    }
}

proptest! {
    #[test]
    fn row_counters_match_the_peek_oracle(
        ops in proptest::collection::vec((0u32..100, 0u64..1 << 20, 0u64..1 << 12), 1..120),
    ) {
        for engine in [CacheEngine::Flat, CacheEngine::List] {
            for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo, ReplacementPolicy::Bip] {
                for lines_per_row in [1u64, 5, 32] {
                    let mut mem = tracked_mem(engine, policy, lines_per_row);
                    let stride = lines_per_row * LINE;
                    for (step, &op) in ops.iter().enumerate() {
                        apply(&mut mem, lines_per_row, op);
                        // Spans may spill up to three rows past ROWS;
                        // the rows beyond that no fill ever reached must
                        // read zero, not panic.
                        for row in 0..ROWS + 5 {
                            prop_assert_eq!(
                                mem.resident_lines(row),
                                mem.peek_span(row * stride, stride).hits,
                                "{:?} {:?} lines/row {} step {} op {:?} row {}",
                                engine, policy, lines_per_row, step, op, row
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn arming_leaves_outputs_unchanged() {
    // The counters observe the replay; they never steer it. A tracked
    // and an untracked hierarchy fed the same trace report identically.
    for engine in [CacheEngine::Flat, CacheEngine::List] {
        let mut tracked = tracked_mem(engine, ReplacementPolicy::Lru, 5);
        let mut plain = MemorySystem::with_engine(
            CacheConfig {
                capacity_bytes: 2 * 1024,
                ways: 4,
                line_bytes: LINE,
                policy: ReplacementPolicy::Lru,
            },
            DramConfig::hbm2(),
            engine,
        );
        assert!(tracked.tracks_rows() && !plain.tracks_rows());
        for i in 0..400u64 {
            let op = ((i * 37 % 100) as u32, i * 7919, i * 104_729);
            apply(&mut tracked, 5, op);
            apply(&mut plain, 5, op);
        }
        assert_eq!(tracked.report(), plain.report(), "{engine:?}");
        assert_eq!(
            tracked.elapsed_dram_cycles(),
            plain.elapsed_dram_cycles(),
            "{engine:?}"
        );
    }
}
