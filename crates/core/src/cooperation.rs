//! Sparsity-aware cooperation (§V-C, Fig. 7).
//!
//! Within a topology tile, the conventional schedule splits the tile's
//! destination rows into one contiguous block per engine: the merged
//! access stream then jumps between `E` distant regions, and the only
//! reuse window is the whole tile — sized statically for an *expected*
//! sparsity. When the features run denser than expected the working set
//! overflows the cache and thrashes.
//!
//! Sparsity-aware cooperation instead hands each engine an interleaved
//! sequence of 32-row *strips*: engine `e` sweeps strips `e, e+E, 2E+e`…
//! Because community clustering and neighbor similarity make nearby rows
//! share sources, the merged stream now exhibits *nested* reuse windows —
//! a small window (adjacent strips) the cache can still capture when
//! sparsity is low, and the full tile window it captures when sparsity is
//! high.

use sgcn_graph::VertexRange;

/// The paper's empirically chosen strip height (§V-C).
pub const DEFAULT_STRIP_HEIGHT: usize = 32;

/// Schedule of destination rows for one engine.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EngineSchedule {
    rows: Vec<u32>,
}

/// Splits `range` among `engines` in the conventional way: contiguous
/// equal blocks (Fig. 7a).
pub fn conventional_split(range: VertexRange, engines: usize) -> Vec<EngineSchedule> {
    assert!(engines > 0, "engine count must be non-zero");
    let n = range.len();
    let per = n.div_ceil(engines).max(1);
    (0..engines)
        .map(|e| {
            let start = range.start + (e * per).min(n);
            let end = range.start + ((e + 1) * per).min(n);
            EngineSchedule {
                rows: (start..end).map(|v| v as u32).collect(),
            }
        })
        .collect()
}

/// Splits `range` among `engines` with sparsity-aware cooperation:
/// interleaved strips of `strip_height` rows (Fig. 7c).
pub fn sac_split(range: VertexRange, engines: usize, strip_height: usize) -> Vec<EngineSchedule> {
    assert!(engines > 0, "engine count must be non-zero");
    assert!(strip_height > 0, "strip height must be non-zero");
    let mut schedules = vec![EngineSchedule::default(); engines];
    let mut strip_idx = 0usize;
    let mut start = range.start;
    while start < range.end {
        let end = (start + strip_height).min(range.end);
        let engine = strip_idx % engines;
        schedules[engine]
            .rows
            .extend((start..end).map(|v| v as u32));
        strip_idx += 1;
        start = end;
    }
    schedules
}

/// Merges per-engine schedules into the global access order seen by the
/// shared cache: engines proceed in lock-step, so their streams interleave
/// round-robin one row at a time.
pub fn merge_round_robin(schedules: &[EngineSchedule]) -> Vec<u32> {
    let mut merged = Vec::with_capacity(schedules.iter().map(|s| s.rows.len()).sum());
    let mut idx = 0usize;
    loop {
        let mut any = false;
        for s in schedules {
            if let Some(&v) = s.rows.get(idx) {
                merged.push(v);
                any = true;
            }
        }
        if !any {
            return merged;
        }
        idx += 1;
    }
}

/// Convenience: the merged destination order for a tile under either
/// policy.
pub fn tile_order(range: VertexRange, engines: usize, sac: bool, strip_height: usize) -> Vec<u32> {
    let schedules = if sac {
        sac_split(range, engines, strip_height)
    } else {
        conventional_split(range, engines)
    };
    merge_round_robin(&schedules)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conventional_blocks_are_contiguous() {
        let s = conventional_split(VertexRange::new(0, 8), 2);
        assert_eq!(s[0].rows, [0, 1, 2, 3]);
        assert_eq!(s[1].rows, [4, 5, 6, 7]);
    }

    #[test]
    fn sac_strips_interleave() {
        let s = sac_split(VertexRange::new(0, 8), 2, 2);
        assert_eq!(s[0].rows, [0, 1, 4, 5]);
        assert_eq!(s[1].rows, [2, 3, 6, 7]);
    }

    #[test]
    fn both_policies_cover_every_row_once() {
        for engines in [1, 3, 8] {
            for policy in [false, true] {
                let mut order = tile_order(VertexRange::new(10, 75), engines, policy, 4);
                order.sort_unstable();
                let expect: Vec<u32> = (10..75).collect();
                assert_eq!(order, expect, "engines={engines} sac={policy}");
            }
        }
    }

    #[test]
    fn sac_merged_stream_has_short_jumps() {
        // Mean |Δrow| in the merged stream: SAC's strips sit close together,
        // the conventional split's blocks are a quarter-range apart.
        let range = VertexRange::new(0, 1024);
        let jump = |order: &[u32]| {
            order
                .windows(2)
                .map(|w| (i64::from(w[1]) - i64::from(w[0])).unsigned_abs())
                .sum::<u64>() as f64
                / (order.len() - 1) as f64
        };
        let conv = jump(&tile_order(range, 4, false, 32));
        let sac = jump(&tile_order(range, 4, true, 32));
        assert!(sac < conv * 0.7, "sac {sac} vs conventional {conv}");
    }

    #[test]
    fn merge_handles_uneven_lengths() {
        let a = EngineSchedule {
            rows: vec![0, 1, 2],
        };
        let b = EngineSchedule { rows: vec![10] };
        assert_eq!(merge_round_robin(&[a, b]), vec![0, 10, 1, 2]);
    }

    #[test]
    fn default_strip_height_is_paper_value() {
        assert_eq!(DEFAULT_STRIP_HEIGHT, 32);
    }
}
