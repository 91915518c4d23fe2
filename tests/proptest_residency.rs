//! Property tests for the row-residency counters behind cache-affinity
//! routing: after every operation of a random trace, each row's counter
//! (`RowCache::resident_lines`) must equal the set-scan oracle
//! (`RowCache::peek_span` over the row's line-aligned byte range), on
//! both cache models, under every replacement policy, for rows of one,
//! five and thirty-two lines, on a small cache where nearly every fill
//! evicts.

use proptest::prelude::*;
use sgcn_mem::{
    Cache, CacheConfig, CacheModel, ListCache, ReplacementPolicy, RowCache, SpanCounts,
};

const LINE: u64 = 64;
/// Rows the traces aim at: more lines than the 32-line cache holds even
/// at one line per row.
const ROWS: u64 = 48;

/// 2 KiB, 4-way: 8 sets × 4 ways = 32 lines.
fn cache<C: CacheModel>(policy: ReplacementPolicy) -> RowCache<C> {
    RowCache::new(CacheConfig {
        capacity_bytes: 2 * 1024,
        ways: 4,
        line_bytes: LINE,
        policy,
    })
}

fn tracked<C: CacheModel>(policy: ReplacementPolicy, lines_per_row: u64) -> RowCache<C> {
    let mut mem = cache(policy);
    mem.track_rows(lines_per_row);
    mem
}

/// Applies one trace operation. `a` picks the position, `b` the length.
/// Returns the read's counts (default for a flush).
fn apply<C: CacheModel>(
    mem: &mut RowCache<C>,
    lines_per_row: u64,
    (kind, a, b): (u32, u64, u64),
) -> SpanCounts {
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

/// After every op of `ops`, each row's counter on model `C` equals the
/// peek oracle, under every policy and row size.
fn counters_match_peek<C: CacheModel>(model: &str, ops: &[(u32, u64, u64)]) {
    for policy in [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Bip,
    ] {
        for lines_per_row in [1u64, 5, 32] {
            let mut mem = tracked::<C>(policy, lines_per_row);
            let stride = lines_per_row * LINE;
            for (step, &op) in ops.iter().enumerate() {
                apply(&mut mem, lines_per_row, op);
                // Runs may spill up to three rows past ROWS; the rows
                // beyond that no fill ever reached must read zero, not
                // panic.
                for row in 0..ROWS + 5 {
                    assert_eq!(
                        mem.resident_lines(row),
                        mem.peek_span(row * stride, stride).hits,
                        "{model} {policy:?} lines/row {lines_per_row} step {step} op {op:?} row {row}"
                    );
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn row_counters_match_the_peek_oracle(
        ops in proptest::collection::vec((0u32..100, 0u64..1 << 20, 0u64..1 << 12), 1..120),
    ) {
        counters_match_peek::<Cache>("Cache", &ops);
        counters_match_peek::<ListCache>("ListCache", &ops);
    }
}

/// A tracked and an untracked cache on model `C` fed the same trace.
fn arming_is_invisible<C: CacheModel>(model: &str) {
    for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Bip] {
        let mut armed = tracked::<C>(policy, 5);
        let mut plain = cache::<C>(policy);
        assert!(armed.tracks_rows() && !plain.tracks_rows());
        for i in 0..400u64 {
            let op = ((i * 37 % 100) as u32, i * 7919, i * 104_729);
            assert_eq!(
                apply(&mut armed, 5, op),
                apply(&mut plain, 5, op),
                "{model} {policy:?} op {i}"
            );
        }
        let span = (ROWS + 3) * 5 * LINE;
        for line in 0..span / LINE {
            assert_eq!(
                armed.peek_span(line * LINE, LINE),
                plain.peek_span(line * LINE, LINE),
                "{model} {policy:?} line {line}"
            );
        }
    }
}

#[test]
fn arming_leaves_outputs_unchanged() {
    // The counters observe the reads; they never steer them. A tracked
    // and an untracked cache fed the same trace count identically and
    // end holding the same lines.
    arming_is_invisible::<Cache>("Cache");
    arming_is_invisible::<ListCache>("ListCache");
}
