//! Functional layer operations: aggregation and combination.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sgcn_formats::DenseMatrix;
use sgcn_graph::CsrGraph;

use crate::network::GcnVariant;

/// Aggregation `H = Ã·X` (and its variant forms): collects each vertex's
/// neighbor features (§III-A).
///
/// * GCN uses the graph's stored (normalized) edge weights.
/// * GINConv ignores edge weights (unweighted sum) and adds `(1+ε)`· self.
/// * GraphSAGE averages a ≤`sample`-neighbor subset, self included.
///
/// `layer_seed` derandomizes GraphSAGE's per-layer sampling.
pub fn aggregate(
    graph: &CsrGraph,
    x: &DenseMatrix,
    variant: GcnVariant,
    layer_seed: u64,
) -> DenseMatrix {
    assert_eq!(
        graph.num_vertices(),
        x.rows(),
        "feature rows must match vertices"
    );
    let n = graph.num_vertices();
    let w = x.cols();
    let mut out = DenseMatrix::zeros(n, w);
    for v in 0..n {
        match variant {
            GcnVariant::Gcn => {
                let acc = out.row_slice_mut(v);
                for (&src, &ew) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
                    axpy(acc, x.row_slice(src as usize), ew);
                }
            }
            GcnVariant::GinConv { eps } => {
                let acc = out.row_slice_mut(v);
                for &src in graph.neighbors(v) {
                    if src as usize == v {
                        continue; // self handled below with (1+ε)
                    }
                    axpy(acc, x.row_slice(src as usize), 1.0);
                }
                axpy(acc, x.row_slice(v), 1.0 + eps);
            }
            GcnVariant::GraphSage { sample } => {
                let chosen = sampled_neighbors(graph, v, sample, layer_seed);
                let count = (chosen.len() + 1) as f32; // + self
                let acc = out.row_slice_mut(v);
                for src in &chosen {
                    axpy(acc, x.row_slice(*src as usize), 1.0 / count);
                }
                axpy(acc, x.row_slice(v), 1.0 / count);
            }
        }
    }
    out
}

/// Deterministic ≤`sample` neighbor subset for GraphSAGE at a given layer.
pub fn sampled_neighbors(graph: &CsrGraph, v: usize, sample: usize, layer_seed: u64) -> Vec<u32> {
    let neigh = graph.neighbors(v);
    let own: Vec<u32> = neigh.iter().copied().filter(|&s| s as usize != v).collect();
    if own.len() <= sample {
        return own;
    }
    let mut rng =
        SmallRng::seed_from_u64(layer_seed ^ (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut idx: Vec<usize> = (0..own.len()).collect();
    // Partial Fisher–Yates: first `sample` slots.
    for i in 0..sample {
        let j = rng.gen_range(i..idx.len());
        idx.swap(i, j);
    }
    idx[..sample].iter().map(|&i| own[i]).collect()
}

/// Combination `S = H·W` — a plain GeMM, functionally what the systolic
/// array computes.
pub fn combine(h: &DenseMatrix, weight: &DenseMatrix) -> DenseMatrix {
    assert_eq!(h.cols(), weight.rows(), "inner dimensions must agree");
    let (m, k, n) = (h.rows(), h.cols(), weight.cols());
    let mut out = DenseMatrix::zeros(m, n);
    for i in 0..m {
        let hrow = h.row_slice(i);
        let orow = out.row_slice_mut(i);
        for (p, &hv) in hrow.iter().enumerate().take(k) {
            if hv == 0.0 {
                continue;
            }
            let wrow = weight.row_slice(p);
            for (o, &wv) in orow.iter_mut().zip(wrow) {
                *o += hv * wv;
            }
        }
    }
    out
}

/// Effective directed edge count the aggregation actually traverses —
/// GraphSAGE's sampling shrinks it (§VI-C).
pub fn effective_edges(graph: &CsrGraph, variant: GcnVariant) -> usize {
    match variant {
        GcnVariant::Gcn | GcnVariant::GinConv { .. } => graph.num_edges(),
        GcnVariant::GraphSage { sample } => (0..graph.num_vertices())
            .map(|v| graph.degree(v).min(sample + 1))
            .sum(),
    }
}

fn axpy(acc: &mut [f32], row: &[f32], w: f32) {
    for (a, &v) in acc.iter_mut().zip(row) {
        *a += w * v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::synthesize_features;
    use sgcn_graph::{generate, GraphBuilder, Normalization};

    /// Mean cosine similarity over all row pairs of `m` (1.0 = every row
    /// parallel, i.e. fully over-smoothed; zero rows count as 0).
    fn mean_pairwise_cosine(m: &DenseMatrix) -> f64 {
        let norm = |v: &[f32]| v.iter().map(|&x| f64::from(x).powi(2)).sum::<f64>().sqrt();
        let (mut sum, mut pairs) = (0.0, 0usize);
        for i in 0..m.rows() {
            for j in i + 1..m.rows() {
                let (a, b) = (m.row_slice(i), m.row_slice(j));
                let dot: f64 = a
                    .iter()
                    .zip(b)
                    .map(|(&x, &y)| f64::from(x) * f64::from(y))
                    .sum();
                let denom = norm(a) * norm(b);
                if denom > 0.0 {
                    sum += dot / denom;
                }
                pairs += 1;
            }
        }
        sum / pairs as f64
    }

    #[test]
    fn aggregation_increases_smoothing() {
        // Repeated symmetric aggregation without nonlinearity smooths
        // features — the over-smoothing mechanism itself.
        let g = generate::erdos_renyi(80, 8.0, 2, Normalization::Symmetric);
        let mut x = synthesize_features(80, 32, 0.3, 5);
        let before = mean_pairwise_cosine(&x);
        for _ in 0..6 {
            x = aggregate(&g, &x, GcnVariant::Gcn, 0);
        }
        let after = mean_pairwise_cosine(&x);
        assert!(after > before + 0.1, "before {before} after {after}");
    }

    fn line_graph(norm: Normalization) -> CsrGraph {
        GraphBuilder::new(3)
            .undirected_edge(0, 1)
            .undirected_edge(1, 2)
            .build(norm)
    }

    fn ident_features() -> DenseMatrix {
        DenseMatrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    }

    #[test]
    fn gcn_aggregation_weighted_sum() {
        let g = line_graph(Normalization::Unit);
        let x = ident_features();
        let h = aggregate(&g, &x, GcnVariant::Gcn, 0);
        // Vertex 0's only neighbor is 1 (unit weight): row = x[1].
        assert_eq!(h.row(0), x.row(1));
        // Vertex 1 sums x[0] + x[2].
        assert_eq!(h.row(1), vec![2.0, 1.0]);
    }

    #[test]
    fn gin_counts_self_with_eps() {
        let g = line_graph(Normalization::Unit);
        let x = ident_features();
        let h = aggregate(&g, &x, GcnVariant::GinConv { eps: 0.5 }, 0);
        // Vertex 0: x[1] + 1.5·x[0] = (1.5, 1.0).
        assert_eq!(h.row(0), vec![1.5, 1.0]);
    }

    #[test]
    fn sage_mean_includes_self() {
        let g = line_graph(Normalization::Unit);
        let x = ident_features();
        let h = aggregate(&g, &x, GcnVariant::GraphSage { sample: 8 }, 0);
        // Vertex 0: mean(x[1], x[0]) = (0.5, 0.5).
        assert_eq!(h.row(0), vec![0.5, 0.5]);
    }

    #[test]
    fn sage_sampling_caps_degree() {
        let mut b = GraphBuilder::new(10);
        for v in 1..10 {
            b = b.undirected_edge(0, v);
        }
        let g = b.build(Normalization::Unit);
        let s = sampled_neighbors(&g, 0, 4, 7);
        assert_eq!(s.len(), 4);
        // Deterministic.
        assert_eq!(s, sampled_neighbors(&g, 0, 4, 7));
        // Distinct.
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 4);
        assert_eq!(
            effective_edges(&g, GcnVariant::GraphSage { sample: 4 }),
            5 + 9
        );
    }

    #[test]
    fn combine_is_matmul() {
        let h = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let w = DenseMatrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let s = combine(&h, &w);
        assert_eq!(s.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn gcn_symmetric_preserves_constant_vector_roughly() {
        // With symmetric normalization the aggregation of an all-ones
        // feature stays bounded (spectral radius ≤ 1).
        let g = line_graph(Normalization::Symmetric);
        let x = DenseMatrix::from_vec(3, 1, vec![1.0, 1.0, 1.0]);
        let h = aggregate(&g, &x, GcnVariant::Gcn, 0);
        for v in 0..3 {
            assert!(h.get(v, 0) <= 1.2 && h.get(v, 0) > 0.5);
        }
    }

    #[test]
    fn effective_edges_plain() {
        let g = line_graph(Normalization::Unit);
        assert_eq!(effective_edges(&g, GcnVariant::Gcn), 4);
        assert_eq!(effective_edges(&g, GcnVariant::GinConv { eps: 0.0 }), 4);
    }
}
