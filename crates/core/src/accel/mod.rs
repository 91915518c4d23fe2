//! Accelerator models: SGCN and the five baselines of the paper's Fig. 11.
//!
//! Every accelerator runs on the same substrate (global cache + HBM, SIMD
//! aggregation engines, systolic combination engines); what distinguishes
//! them is the *dataflow* — phase order, tiling, feature storage format,
//! engine scheduling, and special-casing — captured declaratively in
//! [`AccelModel`] and executed by the shared simulator in [`sim`].
//!
//! | Model | Order | Tiling | Features | Extras |
//! |---|---|---|---|---|
//! | HyGCN | Agg-first | none | dense | — |
//! | EnGN | Comb-first | vertex tiling (coarse) | dense | degree-aware vertex cache |
//! | AWB-GCN | Comb-first | none | dense | column product (partial-sum spills), zero-skip combination |
//! | I-GCN | Comb-first | cache-sized | dense | BFS islandization reordering |
//! | GCNAX | Agg-first (comb-first 1st layer) | cache-sized ("perfect") | dense | — |
//! | SGCN | Agg-first (sparse 1st layer) | cache-sized | **BEICSR** | sparse aggregator, in-place compressor, SAC |

pub mod sim;

use sgcn_formats::BeicsrConfig;
use sgcn_mem::{Cache, CacheModel};

use crate::config::HwConfig;
use crate::cooperation::DEFAULT_STRIP_HEIGHT;
use crate::metrics::SimReport;
use crate::workload::Workload;

/// Which phase runs first (§III-B, Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseOrder {
    /// Aggregation (`Ã·X`) first, then combination.
    AggFirst,
    /// Combination (`X·W`) first, then aggregation.
    CombFirst,
}

/// Intermediate-feature storage format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeatureStorage {
    /// Uncompressed dense rows (all baselines).
    Dense,
    /// BEICSR (SGCN; sliced or non-sliced per the config).
    Beicsr(BeicsrConfig),
}

/// Topology tiling policy (§V-C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TilingPolicy {
    /// No tiling: one pass over the whole matrix (HyGCN, AWB-GCN).
    None,
    /// Source tiles sized so one tile's feature working set fits a
    /// fraction of the cache, assuming the given feature density.
    CacheSized {
        /// Fraction of the cache the tile working set may occupy.
        occupancy: f64,
        /// Density (1 − sparsity) assumed when sizing (GCNAX assumes
        /// dense; SGCN sizes for its expected ~50% sparsity, which is what
        /// makes the working set overflow when features run dense — the
        /// problem SAC repairs).
        expected_density: f64,
    },
}

/// Vertex reordering applied before simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReorderPolicy {
    /// Keep the dataset's native order.
    None,
    /// I-GCN's BFS islandization.
    Islandize,
}

/// A declarative accelerator description consumed by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct AccelModel {
    /// Display name (matches the paper's legends).
    pub name: &'static str,
    /// Phase order for intermediate layers.
    pub order: PhaseOrder,
    /// Topology tiling.
    pub tiling: TilingPolicy,
    /// Feature storage format.
    pub storage: FeatureStorage,
    /// Sparsity-aware cooperation (interleaved strips) on/off.
    pub sac: bool,
    /// SAC strip height (rows).
    pub strip_height: usize,
    /// Fraction of the cache carved out for EnGN's degree-aware vertex
    /// cache (0 = none).
    pub davc_fraction: f64,
    /// AWB-GCN's column-product aggregation with partial-sum spills.
    pub column_product: bool,
    /// Zero-skipping in the combination GeMM (AWB-GCN): cycles scale with
    /// input density but traffic does not.
    pub comb_zero_skip: bool,
    /// SGCN's first-layer handling: ultra-sparse input combination runs on
    /// the aggregation engine over CSR input (§V-F, §VII-B).
    pub sparse_first_layer: bool,
    /// Vertex reordering.
    pub reorder: ReorderPolicy,
    /// Peak-power factor relative to the common platform, calibrated to
    /// the paper's synthesis results (§VI-A, Fig. 13): SGCN 6.74 W,
    /// AWB-GCN 7.03 W, GCNAX 7.16 W, HyGCN 5.94 W.
    pub tdp_factor: f64,
}

impl AccelModel {
    /// The paper's full SGCN: sliced BEICSR (C=96), sparse aggregation,
    /// in-place compression, SAC, sparse first layer.
    pub fn sgcn() -> Self {
        AccelModel {
            name: "SGCN",
            order: PhaseOrder::AggFirst,
            // SGCN sizes tiles for the compressed working set at its
            // expected ~50% sparsity — larger tiles than GCNAX's dense
            // sizing, more reuse per pass, but at risk of overflowing when
            // features run denser than expected (§V-C); SAC repairs that.
            tiling: TilingPolicy::CacheSized {
                occupancy: 1.6,
                expected_density: 0.5,
            },
            storage: FeatureStorage::Beicsr(BeicsrConfig::default()),
            sac: true,
            strip_height: DEFAULT_STRIP_HEIGHT,
            davc_fraction: 0.0,
            column_product: false,
            comb_zero_skip: false,
            sparse_first_layer: true,
            reorder: ReorderPolicy::None,
            tdp_factor: 0.962,
        }
    }

    /// Ablation: SGCN without sparsity-aware cooperation (Fig. 12's
    /// "BEICSR" bar).
    pub fn sgcn_no_sac() -> Self {
        AccelModel {
            name: "SGCN (no SAC)",
            sac: false,
            ..AccelModel::sgcn()
        }
    }

    /// Ablation: non-sliced BEICSR (Fig. 12's "Non-sliced BEICSR" bar) —
    /// monolithic row bitmaps, so tiled column windows re-read the bitmap
    /// head and fetch unaligned value runs.
    pub fn sgcn_non_sliced() -> Self {
        AccelModel {
            name: "Non-sliced BEICSR",
            storage: FeatureStorage::Beicsr(BeicsrConfig::non_sliced()),
            sac: false,
            ..AccelModel::sgcn()
        }
    }

    /// SGCN with a custom unit-slice width (Fig. 17 sensitivity).
    pub fn sgcn_with_slice(slice_elems: usize) -> Self {
        AccelModel {
            name: "SGCN",
            storage: FeatureStorage::Beicsr(BeicsrConfig::sliced(slice_elems)),
            ..AccelModel::sgcn()
        }
    }

    /// GCNAX (Li et al., HPCA'21): the paper's normalization baseline —
    /// dense features, cache-sized ("perfect") tiling, optimized loop
    /// order, combination-first on the input layer.
    pub fn gcnax() -> Self {
        AccelModel {
            name: "GCNAX",
            order: PhaseOrder::AggFirst,
            tiling: TilingPolicy::CacheSized {
                occupancy: 0.8,
                expected_density: 1.0,
            },
            storage: FeatureStorage::Dense,
            sac: false,
            strip_height: DEFAULT_STRIP_HEIGHT,
            davc_fraction: 0.0,
            column_product: false,
            comb_zero_skip: false,
            sparse_first_layer: false,
            reorder: ReorderPolicy::None,
            tdp_factor: 1.022,
        }
    }

    /// HyGCN (Yan et al., HPCA'20): row-product hybrid engines, no tiling
    /// — duplicate feature fetches dominate on large graphs (Fig. 14).
    pub fn hygcn() -> Self {
        AccelModel {
            name: "HyGCN",
            order: PhaseOrder::AggFirst,
            tiling: TilingPolicy::None,
            storage: FeatureStorage::Dense,
            sac: false,
            strip_height: DEFAULT_STRIP_HEIGHT,
            davc_fraction: 0.0,
            column_product: false,
            comb_zero_skip: false,
            sparse_first_layer: false,
            reorder: ReorderPolicy::None,
            tdp_factor: 0.848,
        }
    }

    /// AWB-GCN (Geng et al., MICRO'20): column-product execution reads
    /// each input feature exactly once but spills partial sums (Fig. 14),
    /// and zero-skips the combination.
    pub fn awb_gcn() -> Self {
        AccelModel {
            name: "AWB-GCN",
            order: PhaseOrder::CombFirst,
            tiling: TilingPolicy::None,
            storage: FeatureStorage::Dense,
            sac: false,
            strip_height: DEFAULT_STRIP_HEIGHT,
            davc_fraction: 0.0,
            column_product: true,
            comb_zero_skip: true,
            sparse_first_layer: false,
            reorder: ReorderPolicy::None,
            tdp_factor: 1.004,
        }
    }

    /// EnGN (Liang et al., TC'20): coarse vertex tiling plus a
    /// degree-aware vertex cache pinning high-degree vertices.
    pub fn engn() -> Self {
        AccelModel {
            name: "EnGN",
            order: PhaseOrder::CombFirst,
            tiling: TilingPolicy::CacheSized {
                occupancy: 0.9, // deliberately coarse: "its limited vertex
                // tiling still makes lower cache efficiency" (§VI-B)
                expected_density: 1.0,
            },
            storage: FeatureStorage::Dense,
            sac: false,
            strip_height: DEFAULT_STRIP_HEIGHT,
            davc_fraction: 0.25,
            column_product: false,
            comb_zero_skip: false,
            sparse_first_layer: false,
            reorder: ReorderPolicy::None,
            tdp_factor: 0.95,
        }
    }

    /// I-GCN (Geng et al., MICRO'21): BFS islandization improves
    /// aggregation locality; islands are aggregated and combined while
    /// resident on chip, so the phases fuse per island — modelled as the
    /// agg-first path (no scratch round-trip), which is what the fusion
    /// buys it.
    pub fn igcn() -> Self {
        AccelModel {
            name: "I-GCN",
            order: PhaseOrder::AggFirst,
            tiling: TilingPolicy::CacheSized {
                occupancy: 0.8,
                expected_density: 1.0,
            },
            storage: FeatureStorage::Dense,
            sac: false,
            strip_height: DEFAULT_STRIP_HEIGHT,
            davc_fraction: 0.0,
            column_product: false,
            comb_zero_skip: false,
            sparse_first_layer: false,
            reorder: ReorderPolicy::Islandize,
            tdp_factor: 0.98,
        }
    }

    /// The lineup of the paper's Fig. 11, baseline first.
    pub fn fig11_lineup() -> Vec<AccelModel> {
        vec![
            AccelModel::gcnax(),
            AccelModel::hygcn(),
            AccelModel::awb_gcn(),
            AccelModel::engn(),
            AccelModel::igcn(),
            AccelModel::sgcn(),
        ]
    }

    /// Runs this model on a workload.
    pub fn simulate(&self, workload: &Workload, hw: &HwConfig) -> SimReport {
        self.simulate_on::<Cache>(workload, hw, None)
    }

    /// Runs this model with the intermediate-feature storage overridden
    /// to `kind` (compute stays dense; only traffic changes — the same
    /// semantics as the Fig. 3 format study). `None` is exactly
    /// [`AccelModel::simulate`].
    pub fn simulate_with_format(
        &self,
        workload: &Workload,
        hw: &HwConfig,
        kind: Option<sgcn_formats::FormatKind>,
    ) -> SimReport {
        self.simulate_on::<Cache>(workload, hw, kind)
    }

    /// Runs this model with every cache in the memory hierarchy (the
    /// global cache and AWB-GCN's partial-sum banks) on cache model `C`,
    /// with the storage overridden as in
    /// [`AccelModel::simulate_with_format`]. The other entry points run
    /// on [`Cache`]; the equivalence tests run
    /// `simulate_on::<sgcn_mem::ListCache>` and demand a bit-identical
    /// [`SimReport`].
    pub fn simulate_on<C: CacheModel>(
        &self,
        workload: &Workload,
        hw: &HwConfig,
        format: Option<sgcn_formats::FormatKind>,
    ) -> SimReport {
        sim::run::<C>(self, workload, hw, format)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineup_has_unique_names() {
        let lineup = AccelModel::fig11_lineup();
        let mut names: Vec<&str> = lineup.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn sgcn_uses_beicsr_and_sac() {
        let m = AccelModel::sgcn();
        assert!(m.sac);
        assert!(matches!(m.storage, FeatureStorage::Beicsr(c) if c.is_sliced()));
        assert!(m.sparse_first_layer);
    }

    #[test]
    fn ablations_strip_one_feature_each() {
        assert!(!AccelModel::sgcn_no_sac().sac);
        let ns = AccelModel::sgcn_non_sliced();
        assert!(matches!(ns.storage, FeatureStorage::Beicsr(c) if !c.is_sliced()));
    }

    #[test]
    fn baselines_are_dense() {
        for m in [
            AccelModel::gcnax(),
            AccelModel::hygcn(),
            AccelModel::awb_gcn(),
            AccelModel::engn(),
            AccelModel::igcn(),
        ] {
            assert_eq!(m.storage, FeatureStorage::Dense, "{}", m.name);
        }
    }

    #[test]
    fn awb_is_column_product_with_zero_skip() {
        let m = AccelModel::awb_gcn();
        assert!(m.column_product);
        assert!(m.comb_zero_skip);
    }
}
