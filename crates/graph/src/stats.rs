//! Locality and skew measures shared by the generator, reordering and
//! dataset tests.

use crate::csr::CsrGraph;

/// Mean `|dst - src|` over the edges of `graph` — a proxy for diagonal
/// clustering (small = clustered, as in the paper's Fig. 7b heatmaps) —
/// and its maximum in-degree.
pub(crate) fn id_distance_and_max_degree(graph: &CsrGraph) -> (f64, usize) {
    let mut max_degree = 0usize;
    let mut dist_sum = 0f64;
    for v in 0..graph.num_vertices() {
        max_degree = max_degree.max(graph.degree(v));
        for &src in graph.neighbors(v) {
            dist_sum += (v as f64 - src as f64).abs();
        }
    }
    let edges = graph.num_edges();
    let distance = if edges == 0 {
        0.0
    } else {
        dist_sum / edges as f64
    };
    (distance, max_degree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{GraphBuilder, Normalization};

    #[test]
    fn stats_on_small_graph() {
        let g = GraphBuilder::new(4)
            .undirected_edge(0, 1)
            .undirected_edge(1, 2)
            .undirected_edge(2, 3)
            .build(Normalization::Unit);
        assert_eq!(g.num_edges(), 6);
        let (distance, max_degree) = id_distance_and_max_degree(&g);
        assert_eq!(max_degree, 2);
        assert!((distance - 1.0).abs() < 1e-12);
    }
}
