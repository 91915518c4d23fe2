//! Vertex reordering schemes used by the baseline accelerators.
//!
//! * **Islandization** (I-GCN, Geng et al. MICRO'21): a BFS-based clustering
//!   that renumbers vertices so each BFS "island" is contiguous, improving
//!   aggregation locality. Modelled here as BFS order from successive
//!   unvisited seeds.
//! * **Degree ordering** (used to select EnGN's degree-aware vertex cache
//!   population): vertices sorted by descending degree.

use crate::csr::CsrGraph;

/// A vertex permutation: `perm[new_id] = old_id`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Permutation {
    forward: Vec<u32>,
    inverse: Vec<u32>,
}

impl Permutation {
    /// Builds from a `new → old` mapping.
    ///
    /// # Panics
    ///
    /// Panics if `forward` is not a permutation of `0..n`.
    pub fn from_forward(forward: Vec<u32>) -> Self {
        let n = forward.len();
        let mut inverse = vec![u32::MAX; n];
        for (new_id, &old_id) in forward.iter().enumerate() {
            assert!((old_id as usize) < n, "id {old_id} out of range {n}");
            assert!(
                inverse[old_id as usize] == u32::MAX,
                "duplicate id {old_id} in permutation"
            );
            inverse[old_id as usize] = new_id as u32;
        }
        Permutation { forward, inverse }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// Whether the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Old ID of new ID `new_id`.
    pub fn old_of(&self, new_id: usize) -> usize {
        self.forward[new_id] as usize
    }

    /// New ID of old ID `old_id`.
    pub fn new_of(&self, old_id: usize) -> usize {
        self.inverse[old_id] as usize
    }

    /// Applies the permutation to a graph, renumbering vertices.
    pub fn apply(&self, graph: &CsrGraph) -> CsrGraph {
        assert_eq!(
            self.len(),
            graph.num_vertices(),
            "permutation size mismatch"
        );
        let n = self.len();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut weights = Vec::new();
        row_ptr.push(0);
        for new_dst in 0..n {
            let old_dst = self.old_of(new_dst);
            let mut row: Vec<(u32, f32)> = graph
                .neighbors(old_dst)
                .iter()
                .zip(graph.edge_weights(old_dst))
                .map(|(&src, &w)| (self.new_of(src as usize) as u32, w))
                .collect();
            row.sort_unstable_by_key(|&(c, _)| c);
            for (c, w) in row {
                col_idx.push(c);
                weights.push(w);
            }
            row_ptr.push(col_idx.len());
        }
        CsrGraph::from_parts(row_ptr, col_idx, weights)
    }
}

/// BFS islandization order: repeated BFS from the lowest-ID unvisited
/// vertex, visiting neighbors in ascending order.
pub fn islandize(graph: &CsrGraph) -> Permutation {
    let n = graph.num_vertices();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::new();
    for seed in 0..n {
        if visited[seed] {
            continue;
        }
        visited[seed] = true;
        queue.push_back(seed as u32);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &next in graph.neighbors(v as usize) {
                if !visited[next as usize] {
                    visited[next as usize] = true;
                    queue.push_back(next);
                }
            }
        }
    }
    Permutation::from_forward(order)
}

/// Vertices sorted by descending degree (stable on ID for ties).
pub fn degree_order(graph: &CsrGraph) -> Permutation {
    let mut ids: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    ids.sort_by_key(|&v| std::cmp::Reverse(graph.degree(v as usize)));
    Permutation::from_forward(ids)
}

/// The `k` highest-degree vertices — EnGN's degree-aware vertex cache
/// (DAVC) population.
pub fn top_degree_vertices(graph: &CsrGraph, k: usize) -> Vec<u32> {
    let perm = degree_order(graph);
    (0..k.min(perm.len()))
        .map(|i| perm.old_of(i) as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{GraphBuilder, Normalization};
    use crate::stats::id_distance_and_max_degree;

    fn two_islands() -> CsrGraph {
        // Vertices interleaved across two cliques {0,2,4} and {1,3,5}.
        GraphBuilder::new(6)
            .undirected_edges([(0, 2), (2, 4), (0, 4), (1, 3), (3, 5), (1, 5)])
            .build(Normalization::Unit)
    }

    #[test]
    fn permutation_roundtrip() {
        let p = Permutation::from_forward(vec![2, 0, 1]);
        assert_eq!(p.old_of(0), 2);
        assert_eq!(p.new_of(2), 0);
        for v in 0..3 {
            assert_eq!(p.new_of(p.old_of(v)), v);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate id")]
    fn invalid_permutation_panics() {
        let _ = Permutation::from_forward(vec![0, 0, 1]);
    }

    #[test]
    fn apply_preserves_edge_multiset() {
        let g = two_islands();
        let p = islandize(&g);
        let g2 = p.apply(&g);
        assert_eq!(g2.num_edges(), g.num_edges());
        // Degree multiset preserved.
        let mut d1: Vec<usize> = (0..6).map(|v| g.degree(v)).collect();
        let mut d2: Vec<usize> = (0..6).map(|v| g2.degree(v)).collect();
        d1.sort_unstable();
        d2.sort_unstable();
        assert_eq!(d1, d2);
    }

    #[test]
    fn islandize_reduces_id_distance() {
        let g = two_islands();
        let (before, _) = id_distance_and_max_degree(&g);
        let g2 = islandize(&g).apply(&g);
        let (after, _) = id_distance_and_max_degree(&g2);
        assert!(after < before, "islandized {after} vs original {before}");
    }

    #[test]
    fn identity_apply_is_noop() {
        let g = two_islands();
        let g2 = Permutation::from_forward((0..6).collect()).apply(&g);
        assert_eq!(g, g2);
    }

    #[test]
    fn degree_order_descending() {
        let g = GraphBuilder::new(4)
            .undirected_edges([(0, 1), (0, 2), (0, 3), (1, 2)])
            .build(Normalization::Unit);
        let p = degree_order(&g);
        assert_eq!(p.old_of(0), 0); // degree 3 first
        let top = top_degree_vertices(&g, 2);
        assert_eq!(top[0], 0);
        assert_eq!(top.len(), 2);
    }
}
