//! Edge-list ingestion and GCN normalization.

use std::collections::BTreeSet;

use crate::csr::CsrGraph;

/// Edge-weight normalization applied when building `Ã` (§III-A and the
/// variants of Fig. 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Normalization {
    /// `D^(-1/2)·(A+I)·D^(-1/2)` — the vanilla GCN of Kipf & Welling.
    /// Adds self-loops.
    #[default]
    Symmetric,
    /// Row-mean normalization `D^(-1)·(A+I)` — GraphSAGE-mean style.
    /// Adds self-loops.
    RowMean,
    /// Unit weights, no self-loops — GINConv's unweighted sum aggregation
    /// ("the aggregation phase of GINConv does not require the edge
    /// weights", §VI-C).
    Unit,
}

/// Incremental builder for [`CsrGraph`].
///
/// Collects edges (deduplicated), then normalizes. Self-loops are inserted
/// by the normalizations that require them.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: BTreeSet<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder over `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        GraphBuilder {
            num_vertices,
            edges: BTreeSet::new(),
        }
    }

    /// Adds the directed edge `dst ← src` (feature flow direction).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn directed_edge(mut self, dst: usize, src: usize) -> Self {
        self.push_edge(dst, src);
        self
    }

    /// Adds both directions of an undirected edge.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn undirected_edge(mut self, a: usize, b: usize) -> Self {
        self.push_edge(a, b);
        self.push_edge(b, a);
        self
    }

    /// Bulk-adds undirected edges.
    pub fn undirected_edges<I: IntoIterator<Item = (usize, usize)>>(mut self, iter: I) -> Self {
        for (a, b) in iter {
            self.push_edge(a, b);
            self.push_edge(b, a);
        }
        self
    }

    fn push_edge(&mut self, dst: usize, src: usize) {
        assert!(
            dst < self.num_vertices && src < self.num_vertices,
            "edge ({dst}, {src}) out of range {}",
            self.num_vertices
        );
        self.edges.insert((dst as u32, src as u32));
    }

    /// Builds the normalized CSR topology.
    pub fn build(self, norm: Normalization) -> CsrGraph {
        let n = self.num_vertices;
        let mut edges = self.edges;
        if matches!(norm, Normalization::Symmetric | Normalization::RowMean) {
            for v in 0..n as u32 {
                edges.insert((v, v));
            }
        }

        // Degrees including self-loops where applicable (BTreeSet iterates
        // sorted by (dst, src), which is exactly CSR order).
        let mut degree = vec![0usize; n];
        for &(dst, _) in &edges {
            degree[dst as usize] += 1;
        }

        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(edges.len());
        row_ptr.push(0);
        {
            let mut cur = 0u32;
            for &(dst, src) in &edges {
                while cur < dst {
                    row_ptr.push(col_idx.len());
                    cur += 1;
                }
                col_idx.push(src);
            }
            while row_ptr.len() < n + 1 {
                row_ptr.push(col_idx.len());
            }
        }

        let mut weights = Vec::with_capacity(col_idx.len());
        for dst in 0..n {
            for &src in &col_idx[row_ptr[dst]..row_ptr[dst + 1]] {
                let src = src as usize;
                let w = match norm {
                    Normalization::Symmetric => {
                        1.0 / ((degree[dst] as f32).sqrt() * (degree[src].max(1) as f32).sqrt())
                    }
                    Normalization::RowMean => 1.0 / degree[dst] as f32,
                    Normalization::Unit => 1.0,
                };
                weights.push(w);
            }
        }

        CsrGraph::from_parts(row_ptr, col_idx, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle(norm: Normalization) -> CsrGraph {
        GraphBuilder::new(3)
            .undirected_edge(0, 1)
            .undirected_edge(1, 2)
            .undirected_edge(0, 2)
            .build(norm)
    }

    #[test]
    fn symmetric_adds_self_loops() {
        let g = triangle(Normalization::Symmetric);
        for v in 0..3 {
            assert!(g.neighbors(v).contains(&(v as u32)), "self loop at {v}");
            assert_eq!(g.degree(v), 3);
        }
        // Symmetric normalization of a 3-regular (with loops) graph: all
        // weights 1/3.
        for v in 0..3 {
            for &w in g.edge_weights(v) {
                assert!((w - 1.0 / 3.0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn row_mean_rows_sum_to_one() {
        let g = triangle(Normalization::RowMean);
        for v in 0..3 {
            let sum: f32 = g.edge_weights(v).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "row {v} sums to {sum}");
        }
    }

    #[test]
    fn unit_has_no_self_loops_and_unit_weights() {
        let g = triangle(Normalization::Unit);
        for v in 0..3 {
            assert!(!g.neighbors(v).contains(&(v as u32)));
            assert!(g.edge_weights(v).iter().all(|&w| w == 1.0));
        }
    }

    #[test]
    fn dedup_on_repeated_edges() {
        let g = GraphBuilder::new(2)
            .undirected_edge(0, 1)
            .undirected_edge(0, 1)
            .directed_edge(0, 1)
            .build(Normalization::Unit);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn isolated_vertices_get_only_self_loop() {
        let g = GraphBuilder::new(3)
            .undirected_edge(0, 1)
            .build(Normalization::Symmetric);
        assert_eq!(g.neighbors(2), &[2]);
        assert_eq!(g.edge_weights(2), &[1.0]);
    }

    #[test]
    fn neighbors_sorted() {
        let g = GraphBuilder::new(5)
            .directed_edge(0, 4)
            .directed_edge(0, 2)
            .directed_edge(0, 3)
            .build(Normalization::Unit);
        assert_eq!(g.neighbors(0), &[2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = GraphBuilder::new(2).directed_edge(0, 2);
    }
}
