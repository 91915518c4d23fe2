//! Graph substrate for the SGCN reproduction.
//!
//! The SGCN accelerator consumes the graph topology in CSR form with
//! GCN-normalized edge weights (the paper's `Ã`). This crate provides:
//!
//! * [`CsrGraph`] — the normalized adjacency structure,
//! * [`GraphBuilder`] — edge-list ingestion with dedup, self-loops and the
//!   normalizations used by the GCN variants of the paper's Fig. 16,
//! * [`generate`] — synthetic topology generators (Erdős–Rényi, Chung–Lu
//!   power law, and a clustered stochastic block model reproducing the
//!   neighbor-similarity and diagonal-clustering structure of the paper's
//!   Fig. 7b),
//! * [`datasets`] — the nine-dataset catalog of Table II with scaled
//!   synthetic instantiation,
//! * [`partition`] — 2-D adjacency tiling used by GCNAX-style dataflows,
//! * [`reorder`] — BFS islandization (I-GCN) and degree ordering (EnGN),
//! * [`sampling`] — GraphSAGE-style per-request neighbor sampling with
//!   deterministic subgraph extraction (the serving subsystem's front end).
//!
//! # Example
//!
//! ```
//! use sgcn_graph::{GraphBuilder, Normalization};
//!
//! let graph = GraphBuilder::new(4)
//!     .undirected_edge(0, 1)
//!     .undirected_edge(1, 2)
//!     .undirected_edge(2, 3)
//!     .build(Normalization::Symmetric);
//! assert_eq!(graph.num_vertices(), 4);
//! // Self-loops are added by the symmetric GCN normalization.
//! assert!(graph.neighbors(0).contains(&0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod csr;
pub mod datasets;
pub mod generate;
pub mod partition;
pub mod reorder;
pub mod sampling;
#[cfg(test)]
mod stats;

pub use builder::{GraphBuilder, Normalization};
pub use csr::CsrGraph;
pub use datasets::{Dataset, DatasetId, DatasetSpec};
pub use partition::{Tile, Tiling, VertexRange};
pub use sampling::{sample_neighborhood, Fanouts, SampledSubgraph};
