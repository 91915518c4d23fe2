//! Workloads: a dataset topology plus a traced deep-GCN inference.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use sgcn_formats::{Beicsr, BeicsrConfig, CsrFeatures, DenseMatrix, FeatureFormat, FormatKind};
use sgcn_graph::builder::Normalization;
use sgcn_graph::datasets::{Dataset, DatasetId, SynthScale};
use sgcn_graph::CsrGraph;
use sgcn_model::features::generate_input_features;
use sgcn_model::{GcnVariant, ModelTrace, NetworkConfig, ReferenceExecutor};

/// Identifies one cached boundary encoding: the matrix between layers
/// `b - 1` and `b` (trace index `b`) under one storage choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum FormatKey {
    /// BEICSR storage under a specific config.
    Beicsr(usize, BeicsrConfig),
    /// A Fig. 3-style study format.
    Kind(usize, FormatKind),
    /// CSR of an extremely sparse input matrix (§V-F first-layer path).
    Csr(usize),
}

/// One cached encoding (the variant is implied by its [`FormatKey`]).
#[derive(Clone)]
pub(crate) enum CachedFormat {
    Beicsr(Arc<Beicsr>),
    Generic(Arc<dyn FeatureFormat + Send + Sync>),
    Csr(Arc<CsrFeatures>),
}

/// Per-workload storage-encoding cache, shared by every simulation of the
/// same (possibly cloned) workload. Encodings are pure functions of
/// `(matrix, storage config)`, so recalling one returns a bit-identical
/// format — the driver sweeps (cache sizes, strip heights, HBM
/// generations, SAC on/off, …) re-simulate the same workload under many
/// hardware/model variants and previously re-encoded every boundary each
/// time. Bounded: past [`FormatCache::CAP`] entries new encodings are
/// simply not cached (the early cross-sweep encodings stay hot).
#[derive(Clone, Default)]
pub(crate) struct FormatCache {
    inner: Arc<Mutex<HashMap<FormatKey, CachedFormat>>>,
}

impl FormatCache {
    /// Entry cap: one entry is one encoded boundary matrix (comparable in
    /// size to the dense matrix itself), so the cap bounds the cache to a
    /// small multiple of the trace it shadows.
    const CAP: usize = 192;

    /// Recalls or builds (and, below the cap, stores) an encoding.
    pub(crate) fn get_or_build(
        &self,
        key: FormatKey,
        build: impl FnOnce() -> CachedFormat,
    ) -> CachedFormat {
        if let Some(hit) = self.inner.lock().expect("format cache poisoned").get(&key) {
            return hit.clone();
        }
        // Encode outside the lock (concurrent builders of the same key
        // duplicate the work once; first insert wins).
        let built = build();
        let mut map = self.inner.lock().expect("format cache poisoned");
        if let Some(hit) = map.get(&key) {
            return hit.clone();
        }
        if map.len() < Self::CAP {
            map.insert(key, built.clone());
        }
        built
    }
}

impl fmt::Debug for FormatCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.inner.lock().map(|m| m.len()).unwrap_or(0);
        write!(f, "FormatCache({n} entries)")
    }
}

/// Everything an accelerator simulation consumes: the (scaled) topology,
/// the network shape, and the per-layer feature matrices with their
/// measured sparsity.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Dataset identity and synthesis record.
    pub dataset: Dataset,
    /// Network shape.
    pub network: NetworkConfig,
    /// Per-layer feature matrices (index 0 = input `X¹`).
    pub trace: ModelTrace,
    /// Cached per-boundary storage encodings (fast path only).
    pub(crate) format_cache: FormatCache,
}

impl Workload {
    /// Builds the standard workload for a catalog dataset: synthesized
    /// topology, per-layer sparsity targets from the dataset's published
    /// trajectory, and a fast-synthesized trace.
    pub fn build(id: DatasetId, scale: SynthScale, network: NetworkConfig, seed: u64) -> Self {
        let norm = match network.variant {
            GcnVariant::Gcn => Normalization::Symmetric,
            GcnVariant::GinConv { .. } => Normalization::Unit,
            GcnVariant::GraphSage { .. } => Normalization::RowMean,
        };
        let dataset = Dataset::synthesize(id, scale, norm);
        let targets: Vec<f64> = (0..network.layers)
            .map(|l| {
                if network.residual {
                    dataset.intermediate_sparsity(l, network.layers)
                } else {
                    dataset.traditional_sparsity(l, network.layers)
                }
            })
            .collect();
        let input = generate_input_features(
            dataset.graph.num_vertices(),
            dataset.input_features,
            dataset.spec.input_sparsity,
            seed ^ 0xA11CE,
        );
        let exec = ReferenceExecutor::new(&dataset.graph, network, seed);
        let trace = exec.synthesize_trace(&input, &targets);
        Workload {
            dataset,
            network,
            trace,
            format_cache: FormatCache::default(),
        }
    }

    /// Builds a workload whose intermediate features all have one uniform
    /// synthetic sparsity — the paper's Fig. 19 sweep.
    pub fn build_with_uniform_sparsity(
        id: DatasetId,
        scale: SynthScale,
        network: NetworkConfig,
        sparsity: f64,
        seed: u64,
    ) -> Self {
        let dataset = Dataset::synthesize(id, scale, Normalization::Symmetric);
        let targets = vec![sparsity; network.layers];
        let input = generate_input_features(
            dataset.graph.num_vertices(),
            dataset.input_features,
            dataset.spec.input_sparsity,
            seed ^ 0xA11CE,
        );
        let exec = ReferenceExecutor::new(&dataset.graph, network, seed);
        let trace = exec.synthesize_trace(&input, &targets);
        Workload {
            dataset,
            network,
            trace,
            format_cache: FormatCache::default(),
        }
    }

    /// The topology.
    pub fn graph(&self) -> &CsrGraph {
        &self.dataset.graph
    }

    /// Vertices in the (scaled) workload.
    pub fn vertices(&self) -> usize {
        self.dataset.graph.num_vertices()
    }

    /// Input feature matrix `X¹`.
    pub fn input_features(&self) -> &DenseMatrix {
        self.trace.layer_features(0)
    }

    /// Directed edges the aggregation traverses per layer (GraphSAGE's
    /// sampling shrinks this).
    pub fn effective_edges(&self) -> usize {
        sgcn_model::layer::effective_edges(&self.dataset.graph, self.network.variant)
    }

    /// Pre-encodes every boundary matrix (`1..=layers`) in each of the
    /// given study formats into the shared `FormatCache`, so the
    /// per-(class, format) cold simulations of one serving request
    /// encode each boundary once instead of once per hardware class.
    /// Dense is skipped (the simulator borrows the trace matrix
    /// directly and never consults the cache for it).
    pub fn precache_boundary_formats(&self, kinds: &[FormatKind]) {
        for &kind in kinds {
            if matches!(kind, FormatKind::Dense) {
                continue;
            }
            for b in 1..=self.network.layers {
                crate::accel::sim::precache_boundary_kind(self, b, kind);
            }
        }
    }

    /// Bytes of one topology stream pass (CSR row pointers + indices,
    /// plus edge weights unless the variant ignores them).
    pub fn topology_bytes_per_layer(&self) -> u64 {
        let edges = self.effective_edges() as u64;
        let vertices = self.vertices() as u64 + 1;
        let per_edge = match self.network.variant {
            // GINConv needs no edge weights (§VI-C): index only.
            GcnVariant::GinConv { .. } => 4,
            _ => 8,
        };
        vertices * 4 + edges * per_edge
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_net() -> NetworkConfig {
        NetworkConfig::deep_residual(4, 64)
    }

    #[test]
    fn build_produces_consistent_shapes() {
        let w = Workload::build(DatasetId::Cora, SynthScale::tiny(), tiny_net(), 1);
        assert_eq!(w.trace.num_layers(), 4);
        assert_eq!(w.input_features().rows(), w.vertices());
        assert_eq!(w.trace.layer_features(1).cols(), 64);
        // Intermediate sparsity near the catalog value.
        let avg = w.trace.avg_intermediate_sparsity();
        assert!(
            (avg - w.dataset.spec.feature_sparsity).abs() < 0.08,
            "avg {avg}"
        );
    }

    #[test]
    fn uniform_sparsity_workload() {
        let w = Workload::build_with_uniform_sparsity(
            DatasetId::Cora,
            SynthScale::tiny(),
            tiny_net(),
            0.25,
            3,
        );
        assert!((w.trace.avg_intermediate_sparsity() - 0.25).abs() < 0.04);
    }

    #[test]
    fn gin_topology_is_smaller() {
        let gcn = Workload::build(DatasetId::Cora, SynthScale::tiny(), tiny_net(), 1);
        let gin = Workload::build(
            DatasetId::Cora,
            SynthScale::tiny(),
            tiny_net().with_variant(GcnVariant::GinConv { eps: 0.0 }),
            1,
        );
        // Per effective edge, GIN streams half the bytes (no weights).
        let gcn_per_edge = gcn.topology_bytes_per_layer() as f64 / gcn.effective_edges() as f64;
        let gin_per_edge = gin.topology_bytes_per_layer() as f64 / gin.effective_edges() as f64;
        assert!(gin_per_edge < gcn_per_edge * 0.7);
    }

    #[test]
    fn sage_samples_fewer_edges() {
        let gcn = Workload::build(DatasetId::Reddit, SynthScale::tiny(), tiny_net(), 1);
        let sage = Workload::build(
            DatasetId::Reddit,
            SynthScale::tiny(),
            tiny_net().with_variant(GcnVariant::GraphSage { sample: 2 }),
            1,
        );
        assert!(sage.effective_edges() < gcn.effective_edges());
    }

    #[test]
    fn traditional_network_is_less_sparse() {
        let modern = Workload::build(DatasetId::PubMed, SynthScale::tiny(), tiny_net(), 1);
        let trad = Workload::build(
            DatasetId::PubMed,
            SynthScale::tiny(),
            NetworkConfig::traditional(4, 64),
            1,
        );
        assert!(
            trad.trace.avg_intermediate_sparsity() < modern.trace.avg_intermediate_sparsity() * 0.6
        );
    }
}
