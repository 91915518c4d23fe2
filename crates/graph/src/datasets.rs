//! The nine-dataset catalog of the paper's Table II, with scaled synthetic
//! instantiation.
//!
//! We do not ship the real datasets; instead each entry records the paper's
//! published statistics (vertex/edge counts, input feature width, measured
//! intermediate-feature sparsity of the trained 28-layer residual GCN) and
//! synthesizes a *scaled* topology with matching structure: average degree
//! preserved up to a cap, community clustering and neighbor similarity per
//! dataset (strongly clustered for DBLP, PubMed, Reddit — the graphs where
//! the paper reports SAC helps most). The scale factor is recorded so
//! reports can state it. See `docs/ARCHITECTURE.md` ("Substitutions").

use crate::builder::Normalization;
use crate::csr::CsrGraph;
use crate::generate::{clustered, ClusterConfig};

/// Identifies one of the paper's nine benchmark datasets (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DatasetId {
    /// Cora citation network (CR).
    Cora,
    /// CiteSeer citation network (CS).
    CiteSeer,
    /// PubMed citation network (PM).
    PubMed,
    /// NELL knowledge graph (NL) — one-hot input features.
    Nell,
    /// Reddit post graph (RD) — the paper's large/high-degree graph.
    Reddit,
    /// Flickr image-relationship graph (FK).
    Flickr,
    /// Yelp social graph (YP).
    Yelp,
    /// DBLP citation graph (DB) — strongly clustered.
    Dblp,
    /// GitHub code-hosting graph (GH).
    Github,
}

impl DatasetId {
    /// All datasets, in the paper's Table II order.
    pub const ALL: [DatasetId; 9] = [
        DatasetId::Cora,
        DatasetId::CiteSeer,
        DatasetId::PubMed,
        DatasetId::Nell,
        DatasetId::Reddit,
        DatasetId::Flickr,
        DatasetId::Yelp,
        DatasetId::Dblp,
        DatasetId::Github,
    ];

    /// Two-letter abbreviation used in the paper's figures.
    pub fn abbrev(&self) -> &'static str {
        self.spec().abbrev
    }

    /// Full-scale statistics from Table II.
    pub fn spec(&self) -> DatasetSpec {
        match self {
            DatasetId::Cora => DatasetSpec {
                id: *self,
                name: "Cora",
                abbrev: "CR",
                vertices: 2_708,
                edges: 10_556,
                input_features: 1_433,
                input_sparsity: 0.987,
                feature_sparsity: 0.661,
                accuracy: 0.76,
                intra_fraction: 0.80,
                locality_fraction: 0.50,
            },
            DatasetId::CiteSeer => DatasetSpec {
                id: *self,
                name: "CiteSeer",
                abbrev: "CS",
                vertices: 3_327,
                edges: 9_104,
                input_features: 3_703,
                input_sparsity: 0.992,
                feature_sparsity: 0.697,
                accuracy: 0.66,
                intra_fraction: 0.80,
                locality_fraction: 0.50,
            },
            DatasetId::PubMed => DatasetSpec {
                id: *self,
                name: "PubMed",
                abbrev: "PM",
                vertices: 19_717,
                edges: 88_648,
                input_features: 500,
                input_sparsity: 0.90,
                feature_sparsity: 0.707,
                accuracy: 0.77,
                intra_fraction: 0.85,
                locality_fraction: 0.70,
            },
            DatasetId::Nell => DatasetSpec {
                id: *self,
                name: "NELL",
                abbrev: "NL",
                vertices: 65_755,
                edges: 251_550,
                input_features: 61_278,
                input_sparsity: 0.999,
                feature_sparsity: 0.510,
                accuracy: 0.64,
                intra_fraction: 0.70,
                locality_fraction: 0.40,
            },
            DatasetId::Reddit => DatasetSpec {
                id: *self,
                name: "Reddit",
                abbrev: "RD",
                vertices: 232_965,
                edges: 114_615_892,
                input_features: 602,
                input_sparsity: 0.50,
                feature_sparsity: 0.584,
                accuracy: 0.95,
                intra_fraction: 0.85,
                locality_fraction: 0.65,
            },
            DatasetId::Flickr => DatasetSpec {
                id: *self,
                name: "Flickr",
                abbrev: "FK",
                vertices: 89_250,
                edges: 899_756,
                input_features: 500,
                input_sparsity: 0.60,
                feature_sparsity: 0.465,
                accuracy: 0.48,
                intra_fraction: 0.60,
                locality_fraction: 0.30,
            },
            DatasetId::Yelp => DatasetSpec {
                id: *self,
                name: "Yelp",
                abbrev: "YP",
                vertices: 716_847,
                edges: 13_954_819,
                input_features: 300,
                input_sparsity: 0.50,
                feature_sparsity: 0.640,
                accuracy: 0.54,
                intra_fraction: 0.70,
                locality_fraction: 0.40,
            },
            DatasetId::Dblp => DatasetSpec {
                id: *self,
                name: "DBLP",
                abbrev: "DB",
                vertices: 17_716,
                edges: 105_734,
                input_features: 1_639,
                input_sparsity: 0.98,
                feature_sparsity: 0.595,
                accuracy: 0.86,
                intra_fraction: 0.90,
                locality_fraction: 0.70,
            },
            DatasetId::Github => DatasetSpec {
                id: *self,
                name: "GitHub",
                abbrev: "GH",
                vertices: 37_700,
                edges: 578_006,
                input_features: 128,
                input_sparsity: 0.30,
                feature_sparsity: 0.446,
                accuracy: 0.86,
                intra_fraction: 0.60,
                locality_fraction: 0.30,
            },
        }
    }
}

/// Full-scale dataset statistics from the paper's Table II, plus the
/// structural parameters our generator uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    /// Dataset identity.
    pub id: DatasetId,
    /// Full name.
    pub name: &'static str,
    /// Figure abbreviation.
    pub abbrev: &'static str,
    /// Full-scale vertex count.
    pub vertices: usize,
    /// Full-scale directed edge count.
    pub edges: usize,
    /// Input feature width (column count of X¹).
    pub input_features: usize,
    /// Sparsity of the input features (NELL's one-hot rows are 99.9%).
    pub input_sparsity: f64,
    /// Average intermediate feature sparsity of the trained 28-layer
    /// residual GCN (Table II).
    pub feature_sparsity: f64,
    /// Published accuracy of the 28-layer model (not used by the simulator,
    /// recorded for the Table II report).
    pub accuracy: f64,
    /// Community-edge fraction for the synthetic generator.
    pub intra_fraction: f64,
    /// Near-neighbor fraction for the synthetic generator.
    pub locality_fraction: f64,
}

impl DatasetSpec {
    /// Full-scale average degree.
    pub fn avg_degree(&self) -> f64 {
        self.edges as f64 / self.vertices as f64
    }
}

/// Scaling knobs for synthetic instantiation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthScale {
    /// Cap on synthesized vertices.
    pub max_vertices: usize,
    /// Cap on synthesized average degree.
    pub max_avg_degree: f64,
    /// Cap on synthesized input-feature width.
    pub max_input_features: usize,
}

impl Default for SynthScale {
    /// Defaults sized so the full 6-accelerator × 9-dataset sweep runs in
    /// minutes.
    fn default() -> Self {
        SynthScale {
            max_vertices: 3_000,
            max_avg_degree: 32.0,
            max_input_features: 2_048,
        }
    }
}

impl SynthScale {
    /// A smaller scale for unit tests.
    pub fn tiny() -> Self {
        SynthScale {
            max_vertices: 400,
            max_avg_degree: 8.0,
            max_input_features: 256,
        }
    }
}

/// A synthesized, scaled instance of a catalog dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// The full-scale spec this instance was scaled from.
    pub spec: DatasetSpec,
    /// Synthesized topology (normalized).
    pub graph: CsrGraph,
    /// Scaled input-feature width.
    pub input_features: usize,
    /// Vertex scale factor (full-scale vertices / synthesized vertices).
    pub vertex_scale: f64,
}

impl Dataset {
    /// Synthesizes `id` at the given scale with the given normalization.
    pub fn synthesize(id: DatasetId, scale: SynthScale, norm: Normalization) -> Dataset {
        let spec = id.spec();
        let vertices = spec.vertices.min(scale.max_vertices);
        let avg_degree = spec.avg_degree().min(scale.max_avg_degree);
        let community = (vertices / 24).clamp(8, 256);
        let graph = clustered(
            ClusterConfig {
                vertices,
                avg_degree,
                community_size: community,
                intra_fraction: spec.intra_fraction,
                locality_fraction: spec.locality_fraction,
            },
            dataset_seed(id),
            norm,
        );
        Dataset {
            spec,
            input_features: spec.input_features.min(scale.max_input_features),
            vertex_scale: spec.vertices as f64 / vertices as f64,
            graph,
        }
    }

    /// Synthesizes with the default scale and symmetric normalization.
    pub fn default_synthesis(id: DatasetId) -> Dataset {
        Dataset::synthesize(id, SynthScale::default(), Normalization::Symmetric)
    }

    /// Target sparsity of the intermediate features after layer `l` (0-based)
    /// of an `L`-layer *residual* GCN — reproduces the per-layer trend of
    /// the paper's Fig. 2b: average matches Table II, rising toward the
    /// output layer, clamped to the observed 40–80% band.
    pub fn intermediate_sparsity(&self, layer: usize, total_layers: usize) -> f64 {
        let l = total_layers.max(2);
        let frac = layer.min(l - 1) as f64 / (l - 1) as f64;
        let rise = 0.12;
        // A small deterministic wiggle so layers are not perfectly linear
        // (visible in Fig. 2b's jitter).
        let wiggle = 0.015 * ((layer as f64 * 2.399).sin());
        (self.spec.feature_sparsity + rise * (frac - 0.5) + wiggle).clamp(0.40, 0.80)
    }

    /// Target sparsity for a *traditional* (non-residual) GCN of the same
    /// depth — the 5–30% band of Fig. 2a-Traditional.
    pub fn traditional_sparsity(&self, layer: usize, total_layers: usize) -> f64 {
        let base = self.spec.feature_sparsity * 0.30;
        let l = total_layers.max(2);
        let frac = layer.min(l - 1) as f64 / (l - 1) as f64;
        (base + 0.05 * frac).clamp(0.05, 0.30)
    }
}

fn dataset_seed(id: DatasetId) -> u64 {
    let idx = DatasetId::ALL.iter().position(|d| *d == id).unwrap() as u64;
    0x5CC9_1CB0_u64.wrapping_mul(idx + 1).wrapping_add(0xD5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::id_distance_and_max_degree;

    /// Vertex count of the largest connected component, by depth-first
    /// search over the (symmetric) adjacency.
    fn largest_component_size(g: &CsrGraph) -> usize {
        let mut seen = vec![false; g.num_vertices()];
        let mut largest = 0;
        for root in 0..g.num_vertices() {
            if std::mem::replace(&mut seen[root], true) {
                continue;
            }
            let (mut stack, mut size) = (vec![root], 0);
            while let Some(v) = stack.pop() {
                size += 1;
                for &u in g.neighbors(v) {
                    if !std::mem::replace(&mut seen[u as usize], true) {
                        stack.push(u as usize);
                    }
                }
            }
            largest = largest.max(size);
        }
        largest
    }

    #[test]
    fn synthesized_datasets_are_mostly_connected() {
        let ds = Dataset::synthesize(DatasetId::PubMed, SynthScale::tiny(), Normalization::Unit);
        let n = ds.graph.num_vertices();
        assert!(
            largest_component_size(&ds.graph) > n * 8 / 10,
            "giant component should dominate"
        );
    }

    #[test]
    fn catalog_matches_table2_headlines() {
        let rd = DatasetId::Reddit.spec();
        assert_eq!(rd.vertices, 232_965);
        assert!(rd.avg_degree() > 400.0);
        let cr = DatasetId::Cora.spec();
        assert!((cr.avg_degree() - 3.898).abs() < 0.05); // paper: 3.92
        let cs = DatasetId::CiteSeer.spec();
        assert!((cs.avg_degree() - 2.736).abs() < 0.05); // paper: 2.76
        assert!((DatasetId::PubMed.spec().feature_sparsity - 0.707).abs() < 1e-9);
    }

    #[test]
    fn abbrevs_are_unique() {
        let mut ab: Vec<&str> = DatasetId::ALL.iter().map(|d| d.abbrev()).collect();
        ab.sort_unstable();
        ab.dedup();
        assert_eq!(ab.len(), 9);
    }

    #[test]
    fn synthesis_respects_scale_caps() {
        let ds = Dataset::synthesize(
            DatasetId::Reddit,
            SynthScale::tiny(),
            Normalization::Symmetric,
        );
        assert!(ds.graph.num_vertices() <= 400);
        assert!(ds.graph.avg_degree() <= 9.5); // cap + self loops
        assert!(ds.input_features <= 256);
        assert!(ds.vertex_scale > 100.0);
    }

    #[test]
    fn small_datasets_are_not_scaled() {
        let ds = Dataset::default_synthesis(DatasetId::Cora);
        assert_eq!(ds.graph.num_vertices(), 2_708);
        assert!((ds.vertex_scale - 1.0).abs() < 1e-12);
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = Dataset::default_synthesis(DatasetId::Dblp);
        let b = Dataset::default_synthesis(DatasetId::Dblp);
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    fn clustered_datasets_show_more_locality() {
        let db = Dataset::synthesize(DatasetId::Dblp, SynthScale::tiny(), Normalization::Unit);
        let fk = Dataset::synthesize(DatasetId::Flickr, SynthScale::tiny(), Normalization::Unit);
        let (d_db, _) = id_distance_and_max_degree(&db.graph);
        let (d_fk, _) = id_distance_and_max_degree(&fk.graph);
        let norm_db = d_db / db.graph.num_vertices() as f64;
        let norm_fk = d_fk / fk.graph.num_vertices() as f64;
        assert!(norm_db < norm_fk, "DBLP {norm_db} vs Flickr {norm_fk}");
    }

    #[test]
    fn sparsity_trajectory_matches_table2_average() {
        let ds = Dataset::synthesize(
            DatasetId::PubMed,
            SynthScale::tiny(),
            Normalization::Symmetric,
        );
        let l = 28;
        let avg: f64 = (0..l).map(|i| ds.intermediate_sparsity(i, l)).sum::<f64>() / l as f64;
        assert!((avg - ds.spec.feature_sparsity).abs() < 0.03, "avg {avg}");
        // Rising toward the output.
        assert!(ds.intermediate_sparsity(27, 28) > ds.intermediate_sparsity(0, 28));
        // Band respected.
        for i in 0..l {
            let s = ds.intermediate_sparsity(i, l);
            assert!((0.40..=0.80).contains(&s));
        }
    }

    #[test]
    fn traditional_band_is_low() {
        let ds = Dataset::synthesize(
            DatasetId::Cora,
            SynthScale::tiny(),
            Normalization::Symmetric,
        );
        for i in 0..5 {
            let s = ds.traditional_sparsity(i, 5);
            assert!((0.05..=0.30).contains(&s), "{s}");
        }
    }
}
