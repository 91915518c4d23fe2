//! Memory-hierarchy simulator for the SGCN reproduction.
//!
//! The paper's evaluation platform is a 512 KB 16-way LRU global cache in
//! front of an HBM2 memory modelled with DRAMsim3 (Table III). This crate
//! re-implements that stack:
//!
//! * [`Cache`] — set-associative, LRU, line-granular; the hierarchy is
//!   generic over [`CacheModel`], whose reference model [`ListCache`]
//!   the equivalence tests run in its place,
//! * [`Dram`] — HBM1/HBM2 channel/bank/row-buffer model with 64 B bursts,
//! * [`MemorySystem`] — the cache + DRAM front-end the accelerator models
//!   drive, with per-traffic-class accounting (topology / feature input /
//!   feature output / weights / partial sums — the paper's Fig. 14
//!   categories) and an epoch memo that replays a repeating op stream
//!   (a deep net's steady-state layers) from a verified log,
//! * [`RowCache`] — the same cache with no DRAM behind it: a serving
//!   engine's warm cache, with optional per-row residency counters,
//! * [`EnergyModel`] — per-event energy for the compute/cache/DRAM
//!   breakdown of Fig. 13.
//!
//! # Example
//!
//! ```
//! use sgcn_mem::{CacheConfig, DramConfig, MemorySystem, Traffic};
//!
//! let mut mem: MemorySystem = MemorySystem::new(CacheConfig::default(), DramConfig::hbm2());
//! mem.read_span(0x0, 256, Traffic::FeatureRead);
//! mem.read_span(0x0, 256, Traffic::FeatureRead); // hits in cache
//! let r = mem.report();
//! assert_eq!(r.cache.hits, 4);
//! assert_eq!(r.dram_bytes_read(), 256);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod dram;
pub mod energy;
mod fastdiv;
pub mod system;

pub use cache::{
    Cache, CacheConfig, CacheModel, CacheStats, ListCache, ReplacementPolicy, ResidencySink,
};
pub use dram::{AddressMapping, Dram, DramConfig, DramStats, HbmGeneration};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use system::{
    EpochOutcome, MemReport, MemorySystem, RowCache, SpanCounts, Traffic, TrafficStats,
};
