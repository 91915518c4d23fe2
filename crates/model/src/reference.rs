//! The reference executor: full `f32` inference over a deep residual GCN,
//! producing every intermediate feature matrix.
//!
//! Two paths produce a [`ModelTrace`]:
//!
//! * [`ReferenceExecutor::infer`] — real math: aggregation, combination,
//!   residual addition, and a sparsity-calibrated activation
//!   (see [`crate::sparsity`]). The functional ground truth.
//! * [`ReferenceExecutor::synthesize_trace`] — fast path for large
//!   simulator workloads: skips the GeMMs and draws each layer's features
//!   directly at the target sparsity. The accelerator simulator consumes
//!   only non-zero *patterns* and sizes, which this path reproduces.

use sgcn_formats::DenseMatrix;
use sgcn_graph::CsrGraph;

use crate::features::synthesize_features;
use crate::layer::{aggregate, combine};
use crate::network::{GcnNetwork, NetworkConfig};
use crate::sparsity;

/// All per-layer feature matrices of one inference pass.
///
/// Index 0 is the input `X¹`; index `l ≥ 1` is the output of layer `l`
/// (`X^(l+1)` in the paper's notation).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelTrace {
    features: Vec<DenseMatrix>,
    sparsities: Vec<f64>,
}

impl ModelTrace {
    /// Builds from raw matrices (measures sparsity).
    pub fn from_features(features: Vec<DenseMatrix>) -> Self {
        let sparsities = features.iter().map(DenseMatrix::sparsity).collect();
        ModelTrace {
            features,
            sparsities,
        }
    }

    /// Number of layers traced.
    pub fn num_layers(&self) -> usize {
        self.features.len().saturating_sub(1)
    }

    /// Feature matrix at trace index `idx` (0 = input).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn layer_features(&self, idx: usize) -> &DenseMatrix {
        &self.features[idx]
    }

    /// Measured sparsity at trace index `idx`.
    pub fn sparsity(&self, idx: usize) -> f64 {
        self.sparsities[idx]
    }

    /// Average sparsity over the *intermediate* features (indices 1..),
    /// the quantity of the paper's Fig. 1 / Table II.
    pub fn avg_intermediate_sparsity(&self) -> f64 {
        if self.num_layers() == 0 {
            return 0.0;
        }
        self.sparsities[1..].iter().sum::<f64>() / self.num_layers() as f64
    }
}

/// CPU reference executor for a (graph, network-config) pair.
#[derive(Debug, Clone)]
pub struct ReferenceExecutor<'g> {
    graph: &'g CsrGraph,
    config: NetworkConfig,
    seed: u64,
}

impl<'g> ReferenceExecutor<'g> {
    /// Creates an executor. Weights are derived deterministically from
    /// `seed` when [`Self::infer`] runs.
    pub fn new(graph: &'g CsrGraph, config: NetworkConfig, seed: u64) -> Self {
        ReferenceExecutor {
            graph,
            config,
            seed,
        }
    }

    /// Full-precision inference with per-layer calibrated activation
    /// sparsity. `targets[l]` is the sparsity target for layer `l`'s
    /// output (`targets.len()` must equal `config.layers`).
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree or `targets` is mis-sized.
    pub fn infer(&self, input: &DenseMatrix, targets: &[f64]) -> ModelTrace {
        assert_eq!(
            input.rows(),
            self.graph.num_vertices(),
            "input rows must match vertices"
        );
        assert_eq!(
            targets.len(),
            self.config.layers,
            "one sparsity target per layer"
        );
        let network = GcnNetwork::new(self.config, input.cols(), self.seed);
        let n = self.graph.num_vertices();
        let width = self.config.width;

        let mut features = Vec::with_capacity(self.config.layers + 1);
        features.push(input.clone());
        // Pre-activation state S^l (uniform width, so starts at layer 1).
        let mut state: Option<Vec<f32>> = None;
        let mut x = input.clone();
        for (l, &target) in targets.iter().enumerate().take(self.config.layers) {
            // Aggregation-first (the paper's SGCN execution order, §V-F).
            let h = aggregate(
                self.graph,
                &x,
                self.config.variant,
                self.seed ^ (l as u64) << 32,
            );
            let s_res = combine(&h, network.weight(l));
            let mut s: Vec<f32> = s_res.as_slice().to_vec();
            if self.config.residual {
                if let Some(prev) = &state {
                    for (sv, pv) in s.iter_mut().zip(prev) {
                        *sv += *pv;
                    }
                }
                state = Some(s.clone());
            }
            // Calibrated activation: reproduces the trained network's
            // measured sparsity level (see crate::sparsity docs).
            sparsity::apply_relu_with_target(&mut s, target);
            x = DenseMatrix::from_vec(n, width, s);
            features.push(x.clone());
        }
        ModelTrace::from_features(features)
    }

    /// Fast trace synthesis: per-layer features drawn at the target
    /// sparsity without running the GeMMs.
    pub fn synthesize_trace(&self, input: &DenseMatrix, targets: &[f64]) -> ModelTrace {
        assert_eq!(
            input.rows(),
            self.graph.num_vertices(),
            "input rows must match vertices"
        );
        assert_eq!(
            targets.len(),
            self.config.layers,
            "one sparsity target per layer"
        );
        let n = self.graph.num_vertices();
        let mut features = Vec::with_capacity(self.config.layers + 1);
        features.push(input.clone());
        for (l, &t) in targets.iter().enumerate() {
            features.push(synthesize_features(
                n,
                self.config.width,
                t,
                self.seed ^ 0xFEED ^ ((l as u64) << 24),
            ));
        }
        ModelTrace::from_features(features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::generate_input_features;
    use crate::network::GcnVariant;
    use sgcn_graph::{generate, Normalization};

    fn small_graph() -> CsrGraph {
        generate::erdos_renyi(80, 6.0, 3, Normalization::Symmetric)
    }

    #[test]
    fn infer_hits_sparsity_targets() {
        let g = small_graph();
        let exec = ReferenceExecutor::new(&g, NetworkConfig::deep_residual(6, 32), 1);
        let input = generate_input_features(80, 24, 0.9, 2);
        let targets = vec![0.5, 0.55, 0.6, 0.6, 0.65, 0.7];
        let trace = exec.infer(&input, &targets);
        assert_eq!(trace.num_layers(), 6);
        for (l, &t) in targets.iter().enumerate() {
            let got = trace.sparsity(l + 1);
            assert!((got - t).abs() < 0.05, "layer {l}: target {t} got {got}");
        }
    }

    #[test]
    fn residual_state_feeds_forward() {
        // With vs without residual must differ functionally.
        let g = small_graph();
        let input = generate_input_features(80, 24, 0.9, 2);
        let targets = vec![0.5; 4];
        let with = ReferenceExecutor::new(&g, NetworkConfig::deep_residual(4, 16), 1)
            .infer(&input, &targets);
        let without = ReferenceExecutor::new(&g, NetworkConfig::traditional(4, 16), 1)
            .infer(&input, &targets);
        assert_ne!(
            with.layer_features(4).as_slice(),
            without.layer_features(4).as_slice()
        );
    }

    #[test]
    fn variants_produce_different_features() {
        let g = small_graph();
        let input = generate_input_features(80, 24, 0.9, 2);
        let targets = vec![0.5; 2];
        let gcn = ReferenceExecutor::new(&g, NetworkConfig::deep_residual(2, 16), 1)
            .infer(&input, &targets);
        let gin = ReferenceExecutor::new(
            &g,
            NetworkConfig::deep_residual(2, 16).with_variant(GcnVariant::GinConv { eps: 0.1 }),
            1,
        )
        .infer(&input, &targets);
        assert_ne!(
            gcn.layer_features(1).as_slice(),
            gin.layer_features(1).as_slice()
        );
    }

    #[test]
    fn synthesized_trace_matches_targets_and_shape() {
        let g = small_graph();
        let exec = ReferenceExecutor::new(&g, NetworkConfig::deep_residual(5, 64), 9);
        let input = generate_input_features(80, 32, 0.95, 4);
        let targets = vec![0.45, 0.5, 0.55, 0.6, 0.65];
        let trace = exec.synthesize_trace(&input, &targets);
        assert_eq!(trace.num_layers(), 5);
        for (l, &t) in targets.iter().enumerate() {
            let got = trace.sparsity(l + 1);
            assert!((got - t).abs() < 0.04, "layer {l}: target {t} got {got}");
            assert_eq!(trace.layer_features(l + 1).cols(), 64);
        }
        assert!((trace.avg_intermediate_sparsity() - 0.55).abs() < 0.04);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = small_graph();
        let input = generate_input_features(80, 16, 0.9, 4);
        let targets = vec![0.5; 3];
        let a = ReferenceExecutor::new(&g, NetworkConfig::deep_residual(3, 16), 5)
            .infer(&input, &targets);
        let b = ReferenceExecutor::new(&g, NetworkConfig::deep_residual(3, 16), 5)
            .infer(&input, &targets);
        assert_eq!(a, b);
    }

    #[test]
    fn trace_sparsity_is_a_bitwise_copy_of_the_rescan() {
        // The simulator reads `sparsity(i)` instead of rescanning the
        // matrix; the stored value must be the rescan bit for bit, input
        // (index 0) included, for both trace builders.
        let g = small_graph();
        let exec = ReferenceExecutor::new(&g, NetworkConfig::deep_residual(4, 32), 3);
        let input = generate_input_features(80, 24, 0.99, 6);
        let targets = vec![0.4, 0.55, 0.7, 0.85];
        for trace in [
            exec.infer(&input, &targets),
            exec.synthesize_trace(&input, &targets),
        ] {
            for i in 0..=trace.num_layers() {
                assert_eq!(
                    trace.sparsity(i).to_bits(),
                    trace.layer_features(i).sparsity().to_bits(),
                    "trace index {i}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "one sparsity target per layer")]
    fn mis_sized_targets_panic() {
        let g = small_graph();
        let input = generate_input_features(80, 16, 0.9, 4);
        let _ = ReferenceExecutor::new(&g, NetworkConfig::deep_residual(3, 16), 5)
            .infer(&input, &[0.5]);
    }
}
