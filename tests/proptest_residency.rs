//! Property tests for the row-residency counters behind cache-affinity
//! routing: after every operation of a random trace, each row's counter
//! (`RowCache::resident_lines`) must equal the set-scan oracle
//! (`RowCache::peek_span` over the row's line-aligned byte range), on
//! both cache engines, under every replacement policy, for rows of one,
//! five and thirty-two lines, on a small cache where nearly every fill
//! evicts.

use proptest::prelude::*;
use sgcn_mem::{CacheConfig, CacheEngine, ReplacementPolicy, RowCache, SpanCounts};

const LINE: u64 = 64;
/// Rows the traces aim at: more lines than the 32-line cache holds even
/// at one line per row.
const ROWS: u64 = 48;

/// 2 KiB, 4-way: 8 sets × 4 ways = 32 lines.
fn cache(engine: CacheEngine, policy: ReplacementPolicy) -> RowCache {
    RowCache::new(
        CacheConfig {
            capacity_bytes: 2 * 1024,
            ways: 4,
            line_bytes: LINE,
            policy,
        },
        engine,
    )
}

fn tracked(engine: CacheEngine, policy: ReplacementPolicy, lines_per_row: u64) -> RowCache {
    let mut mem = cache(engine, policy);
    mem.track_rows(lines_per_row);
    mem
}

/// Applies one trace operation. `a` picks the position, `b` the length.
/// Returns the read's counts (default for a flush).
fn apply(mem: &mut RowCache, lines_per_row: u64, (kind, a, b): (u32, u64, u64)) -> SpanCounts {
    match kind {
        // Whole rows, the way a serving engine reads them.
        0..=59 => {
            let row = a % ROWS;
            mem.read_lines(row * lines_per_row, lines_per_row)
        }
        // Arbitrary line runs, crossing row boundaries.
        60..=94 => {
            let first = a % (ROWS * lines_per_row);
            mem.read_lines(first, 1 + b % (3 * lines_per_row))
        }
        _ => {
            mem.flush();
            SpanCounts::default()
        }
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
                    let mut mem = tracked(engine, policy, lines_per_row);
                    let stride = lines_per_row * LINE;
                    for (step, &op) in ops.iter().enumerate() {
                        apply(&mut mem, lines_per_row, op);
                        // Runs may spill up to three rows past ROWS;
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
    // The counters observe the reads; they never steer them. A tracked
    // and an untracked cache fed the same trace count identically and
    // end holding the same lines.
    for engine in [CacheEngine::Flat, CacheEngine::List] {
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Bip] {
            let mut armed = tracked(engine, policy, 5);
            let mut plain = cache(engine, policy);
            assert!(armed.tracks_rows() && !plain.tracks_rows());
            for i in 0..400u64 {
                let op = ((i * 37 % 100) as u32, i * 7919, i * 104_729);
                assert_eq!(
                    apply(&mut armed, 5, op),
                    apply(&mut plain, 5, op),
                    "{engine:?} {policy:?} op {i}"
                );
            }
            let span = (ROWS + 3) * 5 * LINE;
            for line in 0..span / LINE {
                assert_eq!(
                    armed.peek_span(line * LINE, LINE),
                    plain.peek_span(line * LINE, LINE),
                    "{engine:?} {policy:?} line {line}"
                );
            }
        }
    }
}
