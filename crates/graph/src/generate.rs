//! Synthetic topology generators.
//!
//! Real GCN datasets exhibit two structural properties the SGCN paper's
//! sparsity-aware cooperation exploits (§V-C, Fig. 7b): *community
//! clustering* (dense diagonal blocks in the adjacency matrix) and
//! *neighbor similarity* (adjacent rows share neighbors). The
//! [`clustered`] generator reproduces both; [`power_law`] adds the
//! heavy-tailed degree skew of web-scale graphs; [`erdos_renyi`] is the
//! structure-free control.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::builder::{GraphBuilder, Normalization};
use crate::csr::CsrGraph;

/// Parameters of the clustered (stochastic-block-model-like) generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of vertices.
    pub vertices: usize,
    /// Target average undirected degree.
    pub avg_degree: f64,
    /// Community size (vertices per diagonal block).
    pub community_size: usize,
    /// Fraction of edge endpoints drawn inside the community (0..=1);
    /// the rest go to uniformly random vertices.
    pub intra_fraction: f64,
    /// Fraction of intra-community edges drawn as *near* neighbors
    /// (|u-v| small), producing neighbor similarity between adjacent IDs.
    pub locality_fraction: f64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            vertices: 1024,
            avg_degree: 8.0,
            community_size: 64,
            intra_fraction: 0.8,
            locality_fraction: 0.5,
        }
    }
}

/// Generates a community-clustered graph (see module docs).
///
/// # Panics
///
/// Panics if `vertices == 0` or `community_size == 0`.
pub fn clustered(config: ClusterConfig, seed: u64, norm: Normalization) -> CsrGraph {
    assert!(config.vertices > 0, "vertices must be non-zero");
    assert!(config.community_size > 0, "community size must be non-zero");
    let n = config.vertices;
    let mut rng = SmallRng::seed_from_u64(seed);
    let target_edges = ((n as f64 * config.avg_degree) / 2.0).round() as usize;
    let mut builder = GraphBuilder::new(n);
    let mut edges = Vec::with_capacity(target_edges);
    for _ in 0..target_edges {
        let u = rng.gen_range(0..n);
        let v = if rng.gen_bool(config.intra_fraction.clamp(0.0, 1.0)) {
            if rng.gen_bool(config.locality_fraction.clamp(0.0, 1.0)) {
                // Near neighbor: short ID distance → adjacent rows share
                // structure (neighbor similarity).
                let span = (config.community_size / 4).max(2);
                let delta = rng.gen_range(1..=span);
                if rng.gen_bool(0.5) {
                    (u + delta) % n
                } else {
                    (u + n - delta % n) % n
                }
            } else {
                // Same community block.
                let block = u / config.community_size;
                let lo = block * config.community_size;
                let hi = (lo + config.community_size).min(n);
                rng.gen_range(lo..hi)
            }
        } else {
            rng.gen_range(0..n)
        };
        if u != v {
            edges.push((u, v));
        }
    }
    builder = builder.undirected_edges(edges);
    builder.build(norm)
}

/// Generates an Erdős–Rényi style graph with the given average degree.
///
/// # Panics
///
/// Panics if `vertices == 0`.
pub fn erdos_renyi(vertices: usize, avg_degree: f64, seed: u64, norm: Normalization) -> CsrGraph {
    assert!(vertices > 0, "vertices must be non-zero");
    let mut rng = SmallRng::seed_from_u64(seed);
    let target_edges = ((vertices as f64 * avg_degree) / 2.0).round() as usize;
    let edges = (0..target_edges).filter_map(|_| {
        let u = rng.gen_range(0..vertices);
        let v = rng.gen_range(0..vertices);
        (u != v).then_some((u, v))
    });
    GraphBuilder::new(vertices)
        .undirected_edges(edges.collect::<Vec<_>>())
        .build(norm)
}

/// Generates a power-law graph over `vertices` vertices with roughly
/// `vertices · avg_degree / 2` undirected edges and a Zipf-like degree
/// tail of exponent `alpha` (> 1; smaller ⇒ heavier hubs).
///
/// Endpoints are drawn Chung–Lu style: rank `k` is picked with
/// probability ∝ `k^(−β)` where `β = 1/(α−1)` — the endpoint weight
/// that yields a degree tail of exponent `α` — via closed-form
/// inversion of the continuous CDF, then scattered across the ID space
/// with a fixed multiplicative hash so hubs do not cluster at low IDs
/// (a contiguous range partition would otherwise hand every hub to
/// shard 0). The draw is O(1) per endpoint with no per-vertex weight
/// table, which is what keeps this generator viable at the 10⁶–10⁷
/// vertex scale the sharding experiments run at.
///
/// # Panics
///
/// Panics if `vertices == 0` or `alpha <= 1`.
pub fn power_law(
    vertices: usize,
    avg_degree: f64,
    alpha: f64,
    seed: u64,
    norm: Normalization,
) -> CsrGraph {
    assert!(vertices > 0, "vertices must be non-zero");
    assert!(
        alpha > 1.0 && alpha.is_finite(),
        "power-law exponent must be finite and > 1, got {alpha}"
    );
    let n = vertices;
    let mut rng = SmallRng::seed_from_u64(seed);
    let beta = 1.0 / (alpha - 1.0);
    let draw = |rng: &mut SmallRng| -> usize {
        // Inverse-CDF sample of the density x^(−β) on [1, n+1) (the
        // β = 1 endpoint is the logarithmic limit), then hash-scatter.
        // The hash is a fixed odd constant, so the rank→ID map (and
        // with it the whole topology) is a pure function of the seed.
        let u: f64 = rng.gen();
        let x = if (beta - 1.0).abs() < 1e-9 {
            (n as f64).powf(u)
        } else {
            let t = (n as f64).powf(1.0 - beta);
            (1.0 + u * (t - 1.0)).powf(1.0 / (1.0 - beta))
        };
        let rank = (x.floor() as usize).clamp(1, n) - 1;
        ((rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % n as u64) as usize
    };
    let target_edges = ((n as f64 * avg_degree) / 2.0).round() as usize;
    let mut edges = Vec::with_capacity(target_edges);
    for _ in 0..target_edges {
        let u = draw(&mut rng);
        let v = draw(&mut rng);
        if u != v {
            edges.push((u, v));
        }
    }
    GraphBuilder::new(n).undirected_edges(edges).build(norm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::id_distance_and_max_degree;

    #[test]
    fn clustered_hits_degree_target() {
        let cfg = ClusterConfig {
            vertices: 2000,
            avg_degree: 10.0,
            ..ClusterConfig::default()
        };
        let g = clustered(cfg, 7, Normalization::Unit);
        assert_eq!(g.num_vertices(), 2000);
        // Dedup loses some edges; stay within a loose band.
        let d = g.avg_degree();
        assert!(d > 6.0 && d < 11.0, "avg degree {d}");
    }

    #[test]
    fn clustered_is_deterministic_per_seed() {
        let cfg = ClusterConfig::default();
        let g1 = clustered(cfg, 42, Normalization::Symmetric);
        let g2 = clustered(cfg, 42, Normalization::Symmetric);
        assert_eq!(g1, g2);
        let g3 = clustered(cfg, 43, Normalization::Symmetric);
        assert_ne!(g1, g3);
    }

    #[test]
    fn clustered_has_more_locality_than_erdos() {
        let cfg = ClusterConfig {
            vertices: 1500,
            avg_degree: 12.0,
            ..ClusterConfig::default()
        };
        let gc = clustered(cfg, 3, Normalization::Unit);
        let ge = erdos_renyi(1500, 12.0, 3, Normalization::Unit);
        let (sc, _) = id_distance_and_max_degree(&gc);
        let (se, _) = id_distance_and_max_degree(&ge);
        assert!(
            sc < se * 0.7,
            "clustered mean ID distance {sc} should be well below ER's {se}"
        );
    }

    #[test]
    fn power_law_is_skewed_and_deterministic() {
        let g1 = power_law(4096, 8.0, 2.1, 9, Normalization::Unit);
        let g2 = power_law(4096, 8.0, 2.1, 9, Normalization::Unit);
        assert_eq!(g1, g2);
        assert_ne!(g1, power_law(4096, 8.0, 2.1, 10, Normalization::Unit));
        assert_eq!(g1.num_vertices(), 4096);
        // Dedup and self-loop losses must stay modest: the endpoint
        // weights are Chung-Lu (∝ k^(-1/(α-1))), not raw Zipf, so the
        // top hub cannot swallow the edge budget.
        let d = g1.avg_degree();
        assert!(d > 5.0 && d < 9.0, "avg degree {d}");
        // Heavy tail: the biggest hub dwarfs the mean.
        let (_, max) = id_distance_and_max_degree(&g1);
        assert!(max as f64 > 8.0 * d, "max {max} vs avg {d}");
    }

    #[test]
    fn power_law_heavier_alpha_means_bigger_hubs() {
        let heavy = power_law(4096, 8.0, 1.8, 5, Normalization::Unit);
        let light = power_law(4096, 8.0, 3.5, 5, Normalization::Unit);
        let (_, h) = id_distance_and_max_degree(&heavy);
        let (_, l) = id_distance_and_max_degree(&light);
        assert!(h > l, "alpha 1.8 max degree {h} should exceed 3.5's {l}");
    }

    #[test]
    #[should_panic(expected = "must be finite and > 1")]
    fn power_law_bad_alpha_panics() {
        let _ = power_law(16, 2.0, 1.0, 0, Normalization::Unit);
    }

    #[test]
    fn erdos_basic() {
        let g = erdos_renyi(500, 6.0, 1, Normalization::Symmetric);
        assert_eq!(g.num_vertices(), 500);
        assert!(g.num_edges() > 500);
    }
}
