//! GraphSAGE-style neighbor sampling for request-level serving.
//!
//! Production GCN serving does not run the whole graph per query: a
//! request names a seed vertex, the sampler draws a bounded multi-hop
//! neighborhood around it (at most `fanouts[h]` in-neighbors per vertex
//! discovered at hop `h`), and inference runs on that subgraph alone.
//! [`sample_neighborhood`] implements the sampler and
//! [`SampledSubgraph`] packages the result as a self-contained
//! [`CsrGraph`] over compact local vertex ids, ready for the simulator.
//!
//! Determinism contract: the sample is a pure function of
//! `(graph, seed_vertex, fanouts, seed)` — the per-request RNG stream is
//! derived from the seed vertex and the sampling seed only, never from
//! batch position or thread schedule, so replaying a request stream is
//! bit-identical at any driver thread count.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::csr::CsrGraph;

/// Per-hop neighbor caps for the sampler (GraphSAGE's "fanout").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fanouts(Vec<usize>);

impl Fanouts {
    /// Creates a fanout schedule: `caps[h]` bounds the in-neighbors
    /// sampled per vertex discovered at hop `h`.
    ///
    /// # Panics
    ///
    /// Panics if `caps` is empty or contains a zero (a zero fanout would
    /// sample nothing and silently truncate the neighborhood).
    pub fn new(caps: Vec<usize>) -> Self {
        assert!(
            !caps.is_empty(),
            "fanout schedule must have at least one hop"
        );
        assert!(caps.iter().all(|&c| c > 0), "fanouts must be non-zero");
        Fanouts(caps)
    }

    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.0.len()
    }

    /// The per-hop caps.
    pub fn caps(&self) -> &[usize] {
        &self.0
    }

    /// The largest per-hop cap — a bound on any subgraph row degree.
    pub fn max_cap(&self) -> usize {
        *self.0.iter().max().expect("non-empty")
    }

    /// Compact label for reports, e.g. `10x5`.
    pub fn label(&self) -> String {
        self.0
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("x")
    }
}

/// A sampled neighborhood extracted as a self-contained graph.
///
/// Local vertex ids are `0..num_vertices()`, assigned in ascending order
/// of the original ids ([`Self::vertices`] maps local → original).
/// Edge weights are carried over from the parent graph, so aggregation
/// over the subgraph matches what the full graph would compute on the
/// sampled edge set.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledSubgraph {
    /// The subgraph topology over local ids.
    pub graph: CsrGraph,
    /// Local id → original vertex id, sorted ascending.
    pub vertices: Vec<u32>,
    /// Local id of the request's seed vertex.
    pub seed_local: usize,
}

impl SampledSubgraph {
    /// Vertices in the subgraph.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Original id of local vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn original_id(&self, v: usize) -> u32 {
        self.vertices[v]
    }
}

/// RNG seed for one request: a splitmix64-style mix of the sampling seed
/// and the seed vertex, so distinct requests get decorrelated streams
/// while identical requests replay identically.
fn request_rng(seed: u64, seed_vertex: u32) -> SmallRng {
    let mut z = seed ^ (u64::from(seed_vertex)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    SmallRng::seed_from_u64(z ^ (z >> 31))
}

/// Draws at most `cap` distinct positions from `0..len` (all of them
/// when `len <= cap`) via a partial Fisher–Yates shuffle, returned
/// sorted ascending.
fn sample_positions(rng: &mut SmallRng, len: usize, cap: usize) -> Vec<usize> {
    if len <= cap {
        return (0..len).collect();
    }
    let mut idx: Vec<usize> = (0..len).collect();
    for i in 0..cap {
        let j = rng.gen_range(i..len);
        idx.swap(i, j);
    }
    idx.truncate(cap);
    idx.sort_unstable();
    idx
}

/// Samples the multi-hop neighborhood of `seed_vertex`.
///
/// Hop `h` expands every vertex first discovered at hop `h`, keeping at
/// most `fanouts.caps()[h]` of its in-neighbors (all of them when the
/// degree fits the cap). Sampled edges `(dst, src)` are collected into a
/// CSR over the discovered vertex set; vertices discovered at the last
/// hop are not expanded, so their rows are empty — exactly the frontier
/// whose features arrive precomputed in GraphSAGE serving.
///
/// # Panics
///
/// Panics if `seed_vertex` is out of range.
pub fn sample_neighborhood(
    graph: &CsrGraph,
    seed_vertex: u32,
    fanouts: &Fanouts,
    seed: u64,
) -> SampledSubgraph {
    assert!(
        (seed_vertex as usize) < graph.num_vertices(),
        "seed vertex {seed_vertex} out of range {}",
        graph.num_vertices()
    );
    let mut rng = request_rng(seed, seed_vertex);

    // Frontier expansion. `discovered` is kept sorted for the final
    // local-id assignment; membership checks use binary search (the
    // neighborhoods are tiny — at most prod(fanouts) vertices).
    let mut discovered: Vec<u32> = vec![seed_vertex];
    let mut frontier: Vec<u32> = vec![seed_vertex];
    // Sampled (dst, src-position-in-row) pairs, original ids.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for &cap in fanouts.caps() {
        let mut next: Vec<u32> = Vec::new();
        for &dst in &frontier {
            let neigh = graph.neighbors(dst as usize);
            for pos in sample_positions(&mut rng, neigh.len(), cap) {
                let src = neigh[pos];
                edges.push((dst, src));
                if let Err(at) = discovered.binary_search(&src) {
                    discovered.insert(at, src);
                    next.push(src);
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }

    // Compact relabeling: local ids follow ascending original ids.
    let local = |orig: u32| -> usize {
        discovered
            .binary_search(&orig)
            .expect("sampled vertex must be discovered")
    };
    let n = discovered.len();
    let mut rows: Vec<Vec<(u32, f32)>> = vec![Vec::new(); n];
    for &(dst, src) in &edges {
        // Weight lookup in the parent row (neighbor lists are sorted).
        let at = graph
            .neighbors(dst as usize)
            .binary_search(&src)
            .expect("sampled edge must exist in parent graph");
        let w = graph.edge_weights(dst as usize)[at];
        rows[local(dst)].push((src, w));
    }

    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::with_capacity(edges.len());
    let mut weights = Vec::with_capacity(edges.len());
    row_ptr.push(0);
    for row in &mut rows {
        // Sort by original source id (== local order) and drop duplicate
        // sources: a (dst, src) pair is sampled at most once per hop, and
        // dst is expanded at exactly one hop, but dedup keeps the CSR
        // invariant robust rather than implied.
        row.sort_unstable_by_key(|&(src, _)| src);
        row.dedup_by_key(|&mut (src, _)| src);
        for &(src, w) in row.iter() {
            col_idx.push(local(src) as u32);
            weights.push(w);
        }
        row_ptr.push(col_idx.len());
    }

    let seed_local = local(seed_vertex);
    SampledSubgraph {
        graph: CsrGraph::from_parts(row_ptr, col_idx, weights),
        vertices: discovered,
        seed_local,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Normalization;
    use crate::generate;

    fn graph() -> CsrGraph {
        generate::erdos_renyi(200, 8.0, 7, Normalization::Symmetric)
    }

    #[test]
    fn deterministic_per_seed() {
        let g = graph();
        let f = Fanouts::new(vec![6, 3]);
        let a = sample_neighborhood(&g, 17, &f, 99);
        let b = sample_neighborhood(&g, 17, &f, 99);
        assert_eq!(a, b);
        let c = sample_neighborhood(&g, 17, &f, 100);
        // A different sampling seed draws a different neighborhood (the
        // seed vertex has degree > fanout with overwhelming probability).
        assert!(a != c || g.degree(17) <= 6, "seed should matter");
    }

    #[test]
    fn subgraph_is_valid_csr_over_local_ids() {
        let g = graph();
        let f = Fanouts::new(vec![5, 4]);
        let sub = sample_neighborhood(&g, 3, &f, 1);
        let n = sub.num_vertices();
        assert_eq!(sub.graph.num_vertices(), n);
        for v in 0..n {
            let neigh = sub.graph.neighbors(v);
            assert!(neigh.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
            assert!(neigh.iter().all(|&u| (u as usize) < n), "in bounds");
        }
    }

    #[test]
    fn fanout_caps_row_degrees() {
        let g = graph();
        let f = Fanouts::new(vec![4, 2]);
        let sub = sample_neighborhood(&g, 42, &f, 5);
        for v in 0..sub.num_vertices() {
            assert!(sub.graph.degree(v) <= f.max_cap(), "vertex {v}");
        }
        // The seed expands at hop 0 under its own cap.
        assert!(sub.graph.degree(sub.seed_local) <= 4);
    }

    #[test]
    fn weights_match_parent_edges() {
        let g = graph();
        let f = Fanouts::new(vec![6, 6]);
        let sub = sample_neighborhood(&g, 9, &f, 3);
        for v in 0..sub.num_vertices() {
            let dst = sub.original_id(v);
            for (&src_local, &w) in sub.graph.neighbors(v).iter().zip(sub.graph.edge_weights(v)) {
                let src = sub.original_id(src_local as usize);
                let at = g
                    .neighbors(dst as usize)
                    .binary_search(&src)
                    .expect("edge exists in parent");
                assert_eq!(w, g.edge_weights(dst as usize)[at]);
            }
        }
    }

    #[test]
    fn small_degree_keeps_all_neighbors() {
        // A path graph: every vertex has degree ≤ 3 (self loop + 2), so a
        // large fanout keeps the full neighborhood.
        let mut b = crate::builder::GraphBuilder::new(10);
        for v in 0..9 {
            b = b.undirected_edge(v, v + 1);
        }
        let g = b.build(Normalization::Symmetric);
        let f = Fanouts::new(vec![8]);
        let sub = sample_neighborhood(&g, 4, &f, 0);
        assert_eq!(sub.graph.degree(sub.seed_local), g.degree(4));
    }

    #[test]
    fn last_hop_frontier_rows_are_empty() {
        let g = graph();
        let f = Fanouts::new(vec![3]);
        let sub = sample_neighborhood(&g, 11, &f, 2);
        // One hop: only the seed has sampled out-edges.
        for v in 0..sub.num_vertices() {
            if v != sub.seed_local {
                assert_eq!(sub.graph.degree(v), 0, "vertex {v}");
            }
        }
        assert!(sub.graph.degree(sub.seed_local) > 0);
    }

    #[test]
    fn vertices_are_sorted_and_contain_seed() {
        let g = graph();
        let f = Fanouts::new(vec![5, 5]);
        let sub = sample_neighborhood(&g, 77, &f, 8);
        assert!(sub.vertices.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sub.vertices[sub.seed_local], 77);
    }

    #[test]
    fn fanouts_label_and_caps() {
        let f = Fanouts::new(vec![10, 5, 2]);
        assert_eq!(f.hops(), 3);
        assert_eq!(f.max_cap(), 10);
        assert_eq!(f.label(), "10x5x2");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_fanout_panics() {
        let _ = Fanouts::new(vec![4, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_seed_vertex_panics() {
        let g = graph();
        let _ = sample_neighborhood(&g, 10_000, &Fanouts::new(vec![2]), 0);
    }
}
