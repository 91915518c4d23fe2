//! Sparse feature-matrix formats for the SGCN reproduction.
//!
//! This crate implements the storage formats compared in the SGCN paper
//! (HPCA 2023, Fig. 3 and §V-A):
//!
//! * [`DenseMatrix`] — uncompressed row-major storage (the baseline),
//! * [`CsrFeatures`] — compressed sparse row with explicit column indices,
//! * [`CooFeatures`] — coordinate format (row, col, value triples),
//! * [`BsrFeatures`] — block compressed sparse row (2×2 blocks by default),
//! * [`BlockedEllpack`] — ELLPACK with block padding,
//! * [`Beicsr`] — the paper's **Bitmap-index Embedded In-place CSR**, in both
//!   its non-sliced (§V-A) and sliced (§V-B) variants.
//!
//! Every format implements [`FeatureFormat`], which exposes the *memory
//! spans* an accelerator touches when reading a row or a column slice of a
//! row; a row write-back touches the spans of a row read. A format writes
//! only two span visitors, [`FeatureFormat::for_each_row_span`] and
//! [`FeatureFormat::for_each_slice_span`]: the allocating
//! [`FeatureFormat::row_spans`] / [`FeatureFormat::slice_spans`] and the
//! compacted line-run visitors the simulator replays all derive from them.
//! The SGCN simulator feeds those spans through its cache and DRAM models,
//! so the formats are the source of truth for the off-chip traffic
//! comparison of the paper's Fig. 3, Fig. 17 and Fig. 19.
//!
//! Every encoder works the way SGCN's compressor unit does (§V-E): one
//! pass that stores each value at the slot a running counter points to
//! and advances the counter by `(v != 0.0)`, with no per-element branch.
//! Variable-length formats count their non-zeros first and allocate
//! exactly; in-place formats zero their slot tails. Each format's
//! `from_parts` assembles it from its arrays.
//!
//! # Example
//!
//! ```
//! use sgcn_formats::{Beicsr, BeicsrConfig, DenseMatrix, FeatureFormat};
//!
//! let mut dense = DenseMatrix::zeros(4, 8);
//! dense.set(0, 1, 0.5);
//! dense.set(0, 6, -2.0);
//! let beicsr = Beicsr::encode(&dense, BeicsrConfig::non_sliced());
//! assert_eq!(beicsr.decode_row(0), dense.row(0));
//! // Reading row 0 touches the bitmap plus two non-zero values.
//! let bytes: u64 = beicsr.row_spans(0).iter().map(|s| u64::from(s.bytes)).sum();
//! assert!(bytes < 8 * 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod beicsr;
pub mod bitmap;
pub mod bsr;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod ellpack;
pub mod layout;
pub mod runs;
pub mod stats;
pub mod traits;

pub use ablation::{PackedBeicsr, SeparateBitmapCsr};
pub use beicsr::{Beicsr, BeicsrConfig};
pub use bitmap::Bitmap;
pub use bsr::BsrFeatures;
pub use coo::CooFeatures;
pub use csr::CsrFeatures;
pub use dense::DenseMatrix;
pub use ellpack::BlockedEllpack;
pub use layout::{align_up, Span, CACHELINE_BYTES, ELEM_BYTES};
pub use runs::{LineRun, RunCompactor};
pub use traits::{ColRange, FeatureFormat, FormatKind};
