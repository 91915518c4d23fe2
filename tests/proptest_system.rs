//! Property-based tests on the memory system, cooperation scheduling and
//! graph substrate invariants.

use proptest::prelude::*;
use sgcn::cooperation::{conventional_split, merge_round_robin, sac_split, tile_order};
use sgcn_graph::builder::{GraphBuilder, Normalization};
use sgcn_graph::reorder::islandize;
use sgcn_graph::VertexRange;
use sgcn_mem::{
    Cache, CacheConfig, CacheModel, ListCache, MemorySystem, ReplacementPolicy, Traffic,
};

/// `Debug` of a cache with its `stats: CacheStats { .. }` field cut
/// out: a flush keeps the statistics, everything else must match a
/// fresh cache.
fn debug_without_stats(cache: &impl CacheModel) -> String {
    let debug = format!("{cache:?}");
    let start = debug
        .find("stats: CacheStats {")
        .expect("caches carry their stats");
    let end = start + debug[start..].find('}').expect("stats close");
    format!("{}{}", &debug[..start], &debug[end + 1..])
}

/// Drives a cache on model `C` through `before`, flushes it, then
/// drives it and a fresh cache through `after`: every probe must hit
/// alike, and the two must end in the same state and with the same
/// statistics since the flush.
fn flush_equals_fresh<C: CacheModel>(policy: ReplacementPolicy, before: &[u64], after: &[u64]) {
    // 8 sets × 4 ways over 64 B lines, traces over 4× its capacity.
    let config = CacheConfig {
        capacity_bytes: 2048,
        ways: 4,
        line_bytes: 64,
        policy,
    };
    let mut flushed = C::new(config);
    for &line in before {
        flushed.access(line * 64);
    }
    flushed.flush();
    let carried = flushed.stats();
    let mut fresh = C::new(config);
    for (i, &line) in after.iter().enumerate() {
        assert_eq!(
            flushed.access(line * 64),
            fresh.access(line * 64),
            "{policy:?} probe {i}"
        );
    }
    let (s, f) = (flushed.stats(), fresh.stats());
    assert_eq!(
        (
            s.hits - carried.hits,
            s.misses - carried.misses,
            s.evictions - carried.evictions
        ),
        (f.hits, f.misses, f.evictions),
        "{policy:?}: stats since the flush"
    );
    assert_eq!(
        debug_without_stats(&flushed),
        debug_without_stats(&fresh),
        "{policy:?}: state"
    );
}

proptest! {
    #[test]
    fn cache_second_pass_hits_when_fitting(lines in 1usize..32) {
        // Any working set within capacity fully hits on the second pass.
        let mut cache = Cache::new(CacheConfig { capacity_bytes: 4096, ways: 4, line_bytes: 64, ..CacheConfig::default() });
        let addrs: Vec<u64> = (0..lines as u64).map(|i| i * 64).collect();
        for &a in &addrs { cache.access(a); }
        for &a in &addrs {
            prop_assert!(cache.access(a), "line {a} should hit");
        }
    }

    #[test]
    fn cache_hits_plus_misses_equals_accesses(addrs in proptest::collection::vec(0u64..100_000, 1..300)) {
        let mut cache = Cache::new(CacheConfig { capacity_bytes: 4096, ways: 4, line_bytes: 64, ..CacheConfig::default() });
        for &a in &addrs { cache.access(a); }
        let s = cache.stats();
        prop_assert_eq!(s.accesses(), addrs.len() as u64);
        prop_assert!(s.hit_rate() <= 1.0);
    }

    #[test]
    fn flushed_cache_replays_like_a_fresh_one(
        before in proptest::collection::vec(0u64..128, 0..200),
        after in proptest::collection::vec(0u64..128, 1..200),
    ) {
        // A crashed or newly provisioned engine must equal a fresh one,
        // BIP's insertion count included.
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo, ReplacementPolicy::Bip] {
            flush_equals_fresh::<Cache>(policy, &before, &after);
            flush_equals_fresh::<ListCache>(policy, &before, &after);
        }
    }

    #[test]
    fn memory_system_conserves_bytes(reqs in proptest::collection::vec((0u64..1_000_000, 1u64..512), 1..100)) {
        // Requested bytes (cacheline-granular) ≥ DRAM bytes for reads, and
        // every write byte reaches DRAM.
        let mut mem: MemorySystem = MemorySystem::new(CacheConfig::default(), sgcn_mem::DramConfig::hbm2());
        for &(addr, bytes) in &reqs {
            mem.read_span(addr, bytes, Traffic::FeatureRead);
            mem.write_span(addr + (1 << 30), bytes, Traffic::FeatureWrite);
        }
        let r = mem.report();
        let fr = r.traffic(Traffic::FeatureRead);
        let fw = r.traffic(Traffic::FeatureWrite);
        prop_assert!(fr.dram_bytes <= fr.bytes_requested);
        prop_assert_eq!(fw.dram_bytes, fw.bytes_requested);
        prop_assert_eq!(r.dram.bytes_read, fr.dram_bytes);
        prop_assert_eq!(r.dram.bytes_written, fw.dram_bytes);
    }

    #[test]
    fn tile_order_is_a_permutation(start in 0usize..50, len in 1usize..300, engines in 1usize..12, strip in 1usize..40, sac in proptest::bool::ANY) {
        let range = VertexRange::new(start, start + len);
        let mut order = tile_order(range, engines, sac, strip);
        prop_assert_eq!(order.len(), len);
        order.sort_unstable();
        let expect: Vec<u32> = (start as u32..(start + len) as u32).collect();
        prop_assert_eq!(order, expect);
    }

    #[test]
    fn split_schedules_are_disjoint_and_complete(len in 1usize..200, engines in 1usize..10, strip in 1usize..20) {
        let range = VertexRange::new(0, len);
        for schedules in [conventional_split(range, engines), sac_split(range, engines, strip)] {
            let merged = merge_round_robin(&schedules);
            let mut sorted = merged.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), len, "rows covered exactly once");
        }
    }

    #[test]
    fn islandize_preserves_graph_structure(n in 2usize..60, edges in proptest::collection::vec((0usize..60, 0usize..60), 0..120)) {
        let edges: Vec<(usize, usize)> = edges.into_iter()
            .map(|(a, b)| (a % n, b % n))
            .filter(|(a, b)| a != b)
            .collect();
        let g = GraphBuilder::new(n).undirected_edges(edges).build(Normalization::Symmetric);
        let p = islandize(&g);
        let g2 = p.apply(&g);
        prop_assert_eq!(g2.num_edges(), g.num_edges());
        prop_assert_eq!(g2.num_vertices(), g.num_vertices());
        // Edge multiset preserved under the permutation.
        for v in 0..n {
            let nv = p.new_of(v);
            let mut old_n: Vec<usize> = g.neighbors(v).iter().map(|&s| p.new_of(s as usize)).collect();
            old_n.sort_unstable();
            let new_n: Vec<usize> = g2.neighbors(nv).iter().map(|&s| s as usize).collect();
            prop_assert_eq!(old_n, new_n, "vertex {} neighborhood", v);
        }
    }

    #[test]
    fn normalized_rows_sum_to_one_row_mean(n in 2usize..40, edges in proptest::collection::vec((0usize..40, 0usize..40), 1..80)) {
        let edges: Vec<(usize, usize)> = edges.into_iter()
            .map(|(a, b)| (a % n, b % n))
            .filter(|(a, b)| a != b)
            .collect();
        let g = GraphBuilder::new(n).undirected_edges(edges).build(Normalization::RowMean);
        for v in 0..n {
            let sum: f32 = g.edge_weights(v).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5, "row {} sums to {}", v, sum);
        }
    }
}
