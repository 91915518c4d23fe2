//! GCN model substrate for the SGCN reproduction.
//!
//! Provides the deep residual GCNs whose intermediate-feature sparsity the
//! accelerator exploits (paper §II, §III-A):
//!
//! * [`NetworkConfig`] / [`GcnNetwork`] — deep (tens to hundreds of layers)
//!   uniform-width networks with residual connections, in the three
//!   aggregation variants the paper evaluates (vanilla GCN, GINConv,
//!   GraphSAGE — Fig. 16),
//! * [`ReferenceExecutor`] — a CPU `f32` executor producing every
//!   intermediate feature matrix, used both as the functional ground truth
//!   for the engine models and as the workload generator for the
//!   simulator,
//! * [`sparsity`] — target-calibrated activation thresholds. We do not
//!   train networks; instead the executor reproduces the paper's measured
//!   sparsity trajectories (Table II / Fig. 2) by calibrating each layer's
//!   activation threshold to the target sparsity — see
//!   `docs/ARCHITECTURE.md` ("Substitutions").
//!
//! # Example
//!
//! ```
//! use sgcn_graph::{generate, Normalization};
//! use sgcn_model::{GcnVariant, ModelTrace, NetworkConfig, ReferenceExecutor};
//!
//! let graph = generate::erdos_renyi(64, 4.0, 1, Normalization::Symmetric);
//! let config = NetworkConfig::deep_residual(8, 32);
//! let exec = ReferenceExecutor::new(&graph, config, 42);
//! let input = sgcn_model::features::generate_input_features(64, 16, 0.9, 7);
//! let targets = vec![0.55; 8];
//! let trace: ModelTrace = exec.infer(&input, &targets);
//! assert_eq!(trace.layer_features(8).rows(), 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod features;
pub mod layer;
pub mod network;
pub mod reference;
pub mod sparsity;
pub mod weights;

pub use network::{GcnNetwork, GcnVariant, NetworkConfig};
pub use reference::{ModelTrace, ReferenceExecutor};
