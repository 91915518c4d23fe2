//! Network configuration and parameters.

use sgcn_formats::DenseMatrix;

use crate::weights::glorot;

/// Aggregation variant (paper Fig. 16).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum GcnVariant {
    /// Vanilla GCN: symmetric-normalized weighted aggregation (Kipf &
    /// Welling, Eq. 1/2).
    #[default]
    Gcn,
    /// GINConv: unweighted sum over neighbors plus `(1+ε)·self` — no edge
    /// weights, so the topology stream shrinks (§VI-C).
    GinConv {
        /// The self-loop scaling ε.
        eps: f32,
    },
    /// GraphSAGE-mean with neighbor sampling: at most `sample` neighbors
    /// per vertex per layer, reducing the effective edge count (§VI-C).
    GraphSage {
        /// Per-vertex neighbor sample cap.
        sample: usize,
    },
}

impl GcnVariant {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            GcnVariant::Gcn => "GCN",
            GcnVariant::GinConv { .. } => "GINConv",
            GcnVariant::GraphSage { .. } => "GraphSAGE",
        }
    }
}

/// Deep-GCN shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Number of layers (paper default: 28).
    pub layers: usize,
    /// Uniform intermediate feature width (paper default: 256).
    pub width: usize,
    /// Whether residual connections are present (modern vs traditional,
    /// Fig. 2a).
    pub residual: bool,
    /// Aggregation variant.
    pub variant: GcnVariant,
}

impl NetworkConfig {
    /// The paper's evaluated network: `layers`-deep residual GCN of
    /// uniform `width` (§VI-A: 28 layers, 256 features).
    pub fn deep_residual(layers: usize, width: usize) -> Self {
        NetworkConfig {
            layers,
            width,
            residual: true,
            variant: GcnVariant::Gcn,
        }
    }

    /// The paper's default evaluation network: 28 layers × 256 features.
    pub fn paper_default() -> Self {
        NetworkConfig::deep_residual(28, 256)
    }

    /// A traditional (non-residual) GCN of the same shape (Fig. 2a's
    /// "Traditional" bars).
    pub fn traditional(layers: usize, width: usize) -> Self {
        NetworkConfig {
            layers,
            width,
            residual: false,
            variant: GcnVariant::Gcn,
        }
    }

    /// Switches the aggregation variant.
    pub fn with_variant(mut self, variant: GcnVariant) -> Self {
        self.variant = variant;
        self
    }
}

/// A deep GCN's parameters: one `width×width` weight matrix per layer,
/// except the first which maps `input_width → width`.
#[derive(Debug, Clone, PartialEq)]
pub struct GcnNetwork {
    config: NetworkConfig,
    input_width: usize,
    weights: Vec<DenseMatrix>,
}

impl GcnNetwork {
    /// Initializes deterministic Glorot weights.
    ///
    /// # Panics
    ///
    /// Panics if `layers`, `width` or `input_width` is zero.
    pub fn new(config: NetworkConfig, input_width: usize, seed: u64) -> Self {
        assert!(config.layers > 0, "network must have at least one layer");
        assert!(
            config.width > 0 && input_width > 0,
            "widths must be non-zero"
        );
        let weights = (0..config.layers)
            .map(|l| {
                let rows = if l == 0 { input_width } else { config.width };
                glorot(
                    rows,
                    config.width,
                    seed.wrapping_add(l as u64 * 0x9E37_79B9),
                )
            })
            .collect();
        GcnNetwork {
            config,
            input_width,
            weights,
        }
    }

    /// Weight matrix of layer `l` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn weight(&self, l: usize) -> &DenseMatrix {
        &self.weights[l]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_shape() {
        let c = NetworkConfig::paper_default();
        assert_eq!(c.layers, 28);
        assert_eq!(c.width, 256);
        assert!(c.residual);
        assert_eq!(c.variant.label(), "GCN");
    }

    #[test]
    fn first_layer_maps_input_width() {
        let n = GcnNetwork::new(NetworkConfig::deep_residual(3, 16), 100, 1);
        assert_eq!(n.weight(0).rows(), 100);
        assert_eq!(n.weight(0).cols(), 16);
        assert_eq!(n.weight(1).rows(), 16);
        assert_eq!(n.weight(2).cols(), 16);
    }

    #[test]
    fn layers_have_distinct_weights() {
        let n = GcnNetwork::new(NetworkConfig::deep_residual(3, 8), 8, 1);
        assert_ne!(n.weight(1), n.weight(2));
    }

    #[test]
    fn variant_labels() {
        assert_eq!(GcnVariant::GinConv { eps: 0.0 }.label(), "GINConv");
        assert_eq!(GcnVariant::GraphSage { sample: 25 }.label(), "GraphSAGE");
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn zero_layers_panics() {
        let _ = GcnNetwork::new(NetworkConfig::deep_residual(0, 8), 8, 1);
    }
}
