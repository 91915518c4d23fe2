//! # SGCN — Exploiting Compressed-Sparse Features in Deep GCN Accelerators
//!
//! A full model of the SGCN accelerator (HPCA 2023) and the five baseline
//! accelerators it is evaluated against, on a shared cache + HBM memory
//! substrate. The three contributions of the paper map to:
//!
//! * **BEICSR** — [`sgcn_formats::Beicsr`] (bitmap-index embedded in-place
//!   CSR feature format),
//! * **Microarchitecture** — [`sgcn_engines`] (sparse aggregator, prefix
//!   sum, post-combination compressor) driven by the simulator in
//!   [`accel`],
//! * **Sparsity-aware cooperation** — [`cooperation`] (interleaved-strip
//!   engine scheduling producing nested reuse windows).
//!
//! [`experiments`] contains one driver per paper table/figure; the
//! `sgcn-bench` crate's binaries print them. [`serving`] goes beyond the
//! paper: GraphSAGE-sampled per-request subgraph inference with latency
//! percentile / throughput aggregation (the `serve_sim` harness), and
//! [`serving::queueing`] puts the accelerator behind live traffic — a
//! seeded open-loop arrival process, N engines with warm caches, and
//! pluggable co-scheduling policies (the `queue_sim` harness).
//!
//! # Quickstart
//!
//! ```
//! use sgcn::{accel::AccelModel, config::HwConfig, workload::Workload};
//! use sgcn_graph::datasets::{DatasetId, SynthScale};
//! use sgcn_model::NetworkConfig;
//!
//! let wl = Workload::build(
//!     DatasetId::Cora,
//!     SynthScale::tiny(),
//!     NetworkConfig::deep_residual(4, 64),
//!     7,
//! );
//! let hw = HwConfig::default();
//! let sgcn = AccelModel::sgcn().simulate(&wl, &hw);
//! let gcnax = AccelModel::gcnax().simulate(&wl, &hw);
//! assert!(sgcn.dram_bytes() < gcnax.dram_bytes());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accel;
pub mod config;
pub mod cooperation;
pub mod experiments;
pub mod metrics;
pub mod serving;
pub mod workload;

pub use accel::AccelModel;
pub use config::HwConfig;
pub use metrics::SimReport;
pub use serving::queueing::{QueueConfig, QueueOutcome, QueueSummary, SchedPolicy};
pub use serving::{Request, ServeSummary, ServingConfig, ServingContext};
pub use workload::Workload;
