//! Online queueing simulation: pluggable traffic models, N engines
//! (optionally heterogeneous), pluggable scheduling policies, SLO-aware
//! admission control, and warm-cache reuse across requests.
//!
//! [`super`] replays request *batches* offline — every request is ready
//! at time zero and latency is pure service time. A deployed accelerator
//! instead sits behind live traffic: requests arrive on their own clock,
//! queue when every engine is busy, and their end-to-end latency is
//! queueing delay plus service. This module models that pipeline as a
//! deterministic event-driven simulation:
//!
//! * [`TrafficModel`] — how requests arrive: the original open-loop
//!   exponential process, bursty (Markov-modulated on/off) and diurnal
//!   (sinusoidal rate envelope) variants, or a closed loop of K clients
//!   with seeded think times. Open-loop gaps are pure functions of
//!   `(seed, index, params)` ([`super::traffic`]); the closed-loop
//!   timeline feeds back from completions inside the serial event loop,
//!   so it is equally deterministic.
//! * [`prepare`] — the parallel half: samples each request's
//!   neighborhood, builds its workload, and simulates its *cold* service
//!   time ([`SimReport`]) via `par_map` in stream order.
//! * [`simulate_queue`] — the serial event loop: requests are dispatched
//!   to one of N engines per a [`SchedPolicy`]. Every engine owns a
//!   global cache ([`RowCache`]) that stays **warm across requests**:
//!   the input-feature rows of each served request (addressed by their
//!   *global* vertex ids) are read through it, so a later request
//!   sharing sampled neighborhoods hits resident lines. The cache has
//!   no DRAM model behind it: each warm hit line is priced as feature
//!   bytes the request need not fetch at its class's effective
//!   bandwidth, and that time comes off the request's cold latency.
//!   Engines may be heterogeneous (see below), and idle engines can
//!   optionally **steal** queued work from backlogged peers.
//! * [`SloConfig`] — per-request deadlines: admission control *sheds*
//!   requests predicted to miss their budget, completed requests that
//!   still missed count as *violations*, and the `slo-aware` policy
//!   serves queued requests earliest-deadline first.
//! * [`FailureModel`] / [`RetryPolicy`] / [`ScalePolicy`]
//!   ([`super::faults`]) — failure drills: seed-pure engine
//!   crash/recovery schedules injected as first-class events, bounded
//!   retry/redrive of fault-killed requests (exhausted requests become
//!   the *failed* terminal state alongside completed/shed), and elastic
//!   autoscaling with provisioning-delay and cold-cache penalties.
//!   Crashed and freshly-provisioned engines return **cold**
//!   ([`RowCache::flush`]), so warm-hit rates honestly pay the recovery
//!   warm-up.
//! * [`ArrivalTrace`] ([`super::trace`]) — record/replay: any run's
//!   arrival timeline serializes to deterministic JSON and replays
//!   bit-exactly through the same configuration.
//! * [`QueueSummary`] — queueing-delay and end-to-end percentiles
//!   (over **completed** requests only), shed/violation counts,
//!   utilization, makespan, warm-hit stats, rendered with the same
//!   fixed-precision deterministic JSON discipline as
//!   [`super::ServeSummary`] (no field ever renders `inf`/`NaN`; an
//!   empty stream — or a 100 %-shed run — yields a finite summary).
//!
//! # Determinism
//!
//! The only parallel stage is [`prepare`], which returns results in
//! stream order. The event loop is serial and consumes nothing but its
//! inputs, so `(context, stream, model, hw, QueueConfig)` fully
//! determines every record byte — `BENCH_queue.json` is identical across
//! `SGCN_THREADS=1,2,4` for every traffic model × policy × fleet
//! combination. The engines' caches always run on the `Cache` model;
//! `tests/proptest_row_cache.rs` holds `RowCache` equal to the
//! simulator's cache replay on both cache models.
//!
//! # The event loop
//!
//! One discrete-event loop serves every configuration: requests queue
//! per engine and start when their engine frees up. When service order
//! provably equals assignment order — no EDF reordering (`slo-aware`
//! or deadline classes), no work stealing, no failure drills, no
//! brownout — the loop runs in *exact-estimate* mode: warm-cache
//! accounting happens at assignment and the engine's queued backlog
//! carries the warm-adjusted service. Otherwise a queued request's
//! engine and order depend on future events, so warm accounting runs
//! at service start and queued work is priced at the cold scaled
//! estimate until then.
//!
//! Engine queues are indexed (`serving/engine_queue.rs`), so no queue
//! operation scans a queue: an assignment-order map keyed by a per-run
//! enqueue sequence serves FIFO pops, work steals (the newest entry of
//! the longest peer queue) and crash drains; EDF runs add a `(absolute
//! deadline, request id)` index for their pops; and a per-request
//! `(engine, sequence)` slot finds and removes any queued request
//! (preemption). Each is O(log n) in the queue's length, where the
//! former `Vec` queues paid O(n) per pop and a preemption searched every
//! engine's queue. Debug builds check each pop against the linear
//! discipline scan.
//!
//! # Heterogeneous lineups and cost-model dispatch
//!
//! Every run prices service from one per-class hardware table: each
//! engine belongs to a class, and the class's [`HwConfig`] sets the
//! engine's warm cache (geometry and cache engine) and its warm-savings
//! pricing (`effective_bw`, `line_bytes`). The table comes from the
//! fleet knob:
//!
//! * [`EngineLineup`] — one class per [`EngineClass`], each with its own
//!   hardware (cache geometry, DRAM generation, engine counts) and a
//!   relative cost-units price. [`prepare_for`] simulates every
//!   request's cold service **per class** in the parallel phase.
//! * [`FleetSpec`] — the scalar fleet: one class on the run's platform,
//!   scaled per engine. It serves the reference cold report, scaled by
//!   each engine's service-time factor, and warms the full Table III
//!   512 KB cache rather than the scaled-down experiment cache.
//!
//! A warm engine cache only ever sees whole feature rows of `k =
//! row_stride / line_bytes` lines. When `k` divides the class cache's
//! set count and its policy is LRU or FIFO, the engine runs the exact
//! row-granular twin ([`CacheConfig::row_granular`]): one probe per row,
//! with hits, evictions and contents identical to the line cache once
//! counts are scaled by `k` — PubMed's 32-line row on the 512-set
//! Table III cache and the 64-set lineup cache, and every quick-scale
//! row. Otherwise (BIP, or paper-scale Cora's 90-line row)
//! the engine keeps the line geometry through the same code.
//!
//! The `cost-aware` policy routes on a [`CostModel`]: a table of
//! per-class mean cold service cycles keyed by subgraph stats
//! ([`RequestStats`]: vertices, edges, sparsity, feature bytes), built
//! in stream order from the prepared cold reports. The dispatcher picks
//! the engine minimizing predicted completion (projected wait +
//! predicted service), falling back to least-loaded order (then engine
//! id) on ties.
//!
//! # Per-request format dispatch
//!
//! The unit of dispatch is a **`(hardware class, format)` pair**:
//! [`prepare_for`] simulates every request's cold service over the
//! full class × [`ServeFormat`] palette (one workload build per distinct
//! vertex; boundary encodings are built once and shared across every
//! cell through the workload's format cache), and a [`FormatPolicy`]
//! picks each request's serving format at assignment time —
//! `fixed:<format>` pins one palette column, `adaptive` serves each
//! request in the format minimizing its predicted service on the engine
//! the scheduling policy picked (under `cost-aware`, engines × formats
//! are minimized jointly). The [`CostModel`] is keyed by the same
//! `(class, format)` cells. It is fitted on the stream it prices, so
//! every query finds the request's stats; requests whose distinct seed
//! vertices sampled equal stats share their per-cell mean. The chosen
//! format is recorded per request ([`RequestTiming::format`]) and
//! summarized as per-format dispatch counts plus the routing
//! prediction's relative error. The default `fixed:native`
//! palette-of-one reproduces the single-format pipeline byte for byte.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use sgcn_formats::{Bitmap, FormatKind};
use sgcn_graph::sampling::Fanouts;
use sgcn_mem::{CacheConfig, RowCache, SpanCounts, Traffic};
use sgcn_par::par_map;

pub use crate::serving::faults::{
    DegradeMode, DegradePolicy, FailureModel, FaultPlan, Incident, RetryPolicy, ScalePolicy,
};
pub use crate::serving::sharding::{NetCost, NetworkModel, ShardPlan};
pub use crate::serving::slo::{ClassPolicy, ClassSlo, RequestClass, SloConfig, SloStats};
pub use crate::serving::trace::{ArrivalTrace, TIMESTAMP_LOG_FORMAT};
pub use crate::serving::traffic::{
    ArrivalModel, ArrivalProcess, BurstyArrivals, DiurnalArrivals, ThinkTimes, TrafficModel,
};

use super::engine_queue::EngineQueues;
use crate::accel::AccelModel;
use crate::config::HwConfig;
use crate::metrics::SimReport;
use crate::serving::{percentile, Request, ServingContext};

/// How the dispatcher picks an engine for the request at the head of the
/// queue (and, for [`SchedPolicy::SloAware`], how queued requests are
/// ordered).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedPolicy {
    /// FIFO queue dispatched round-robin: request `i` goes to engine
    /// `i mod N`. The oblivious baseline.
    FifoRoundRobin,
    /// The engine that frees up earliest (ties to the lowest id) — the
    /// classic load-balancing heuristic.
    LeastLoaded,
    /// Bounded-load warm-cache affinity: among engines whose backlog is
    /// within a slack window (two mean cold services) of the
    /// least-loaded one, count each engine's resident feature lines for
    /// the request's sampled vertices and route to the engine holding
    /// the most (ties to the earliest-free, then lowest id). The window
    /// keeps a hot neighborhood from starving the fleet behind one
    /// engine while preserving reuse. The count is O(rows): one read of
    /// the engine's per-row resident-line counter
    /// ([`RowCache::resident_lines`]) per sampled vertex, exact
    /// because feature rows are line-aligned and engine caches hold
    /// only feature rows. On a row-granular engine cache (a row's line
    /// count divides the set count under LRU or FIFO) the counter reads
    /// 0 or 1 per row and is scaled by the row's line count; otherwise
    /// it counts the row's resident lines directly.
    CacheAffinity,
    /// Deadline-driven: requests go to the least-loaded engine, and each
    /// engine serves its queued requests **earliest deadline first**
    /// instead of in arrival order, spending slack where it buys the
    /// most. Without an [`SloConfig`] every deadline saturates and the
    /// order degenerates to FIFO.
    SloAware,
    /// Cost-model-driven: predict the request's service time on every
    /// engine's hardware class ([`CostModel`], fitted from the prepared
    /// cold reports) and route to the engine minimizing predicted
    /// completion time (projected wait + predicted service), falling
    /// back to least-loaded order and then the lowest engine id on
    /// ties. On a legacy scalar fleet the prediction is the exact cold
    /// scaled estimate.
    CostAware,
    /// Shard-locality routing for a sharded feature store
    /// ([`ShardPlan`]): bounded-load like [`SchedPolicy::CacheAffinity`],
    /// but among eligible engines it maximizes the count of the
    /// request's sampled rows **resident on the engine's shard** — one
    /// word-level bitmap intersection per engine instead of a
    /// per-vertex counter read, so the query stays O(vertices / 64) at
    /// million-vertex scale. Without a configured shard plan the
    /// decision falls back to least-loaded (shard-oblivious) routing.
    ShardAffinity,
}

impl SchedPolicy {
    /// All policies in report order.
    pub const ALL: [SchedPolicy; 6] = [
        SchedPolicy::FifoRoundRobin,
        SchedPolicy::LeastLoaded,
        SchedPolicy::CacheAffinity,
        SchedPolicy::SloAware,
        SchedPolicy::CostAware,
        SchedPolicy::ShardAffinity,
    ];

    /// Display label (stable — appears in golden snapshots).
    pub fn label(&self) -> &'static str {
        match self {
            SchedPolicy::FifoRoundRobin => "fifo-rr",
            SchedPolicy::LeastLoaded => "least-loaded",
            SchedPolicy::CacheAffinity => "cache-affinity",
            SchedPolicy::SloAware => "slo-aware",
            SchedPolicy::CostAware => "cost-aware",
            SchedPolicy::ShardAffinity => "shard-affinity",
        }
    }

    /// Parses an `SGCN_POLICY`-style name; `None` for unknown names.
    pub fn parse(name: &str) -> Option<SchedPolicy> {
        match name.trim().to_ascii_lowercase().as_str() {
            "fifo" | "rr" | "fifo-rr" | "round-robin" => Some(SchedPolicy::FifoRoundRobin),
            "least" | "least-loaded" | "ll" => Some(SchedPolicy::LeastLoaded),
            "affinity" | "cache-affinity" | "warm" => Some(SchedPolicy::CacheAffinity),
            "slo" | "slo-aware" | "edf" | "deadline" => Some(SchedPolicy::SloAware),
            "cost" | "cost-aware" | "cm" => Some(SchedPolicy::CostAware),
            "shard" | "shard-affinity" | "locality" => Some(SchedPolicy::ShardAffinity),
            _ => None,
        }
    }

    /// Whether this policy reorders queued requests (so service order
    /// is unknown at assignment time).
    fn reorders_queue(&self) -> bool {
        matches!(self, SchedPolicy::SloAware)
    }
}

/// The scalar fleet of one queueing run: one hardware class on the
/// run's platform, with a per-engine service-time scale (1.0 = the
/// reference accelerator; a slow engine scales every service up) plus
/// the work-stealing switch. An [`EngineLineup`] supersedes it.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Per-engine service-time scale factors (`scales.len()` engines).
    pub scales: Vec<f64>,
    /// Whether an idle engine steals queued work from the most
    /// backlogged peer (tail steal, deterministic victim order).
    pub work_stealing: bool,
}

impl FleetSpec {
    /// A homogeneous fleet of reference engines.
    pub fn uniform(engines: usize) -> Self {
        FleetSpec {
            scales: vec![1.0; engines],
            work_stealing: false,
        }
    }

    /// A mixed fast/slow fleet: even engines are reference (1.0), odd
    /// engines are `slow_scale` × slower.
    ///
    /// # Panics
    ///
    /// Panics unless `slow_scale` is finite and ≥ 1.
    pub fn mixed(engines: usize, slow_scale: f64) -> Self {
        assert!(
            slow_scale.is_finite() && slow_scale >= 1.0,
            "slow-engine scale must be finite and >= 1, got {slow_scale}"
        );
        FleetSpec {
            scales: (0..engines)
                .map(|e| if e % 2 == 0 { 1.0 } else { slow_scale })
                .collect(),
            work_stealing: false,
        }
    }

    /// Enables cross-engine work stealing.
    pub fn with_work_stealing(mut self) -> Self {
        self.work_stealing = true;
        self
    }

    /// Engine count.
    pub fn engines(&self) -> usize {
        self.scales.len()
    }

    /// Whether every engine is a reference engine.
    pub fn is_uniform(&self) -> bool {
        self.scales.iter().all(|&s| s == 1.0)
    }

    /// Display label (stable — appears in golden snapshots):
    /// `uniform` / `mixed` / `custom`, with a `+steal` suffix when work
    /// stealing is on.
    pub fn label(&self) -> String {
        let mut distinct: Vec<u64> = self.scales.iter().map(|s| s.to_bits()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let base = if self.is_uniform() {
            "uniform"
        } else if distinct.len() == 2 {
            "mixed"
        } else {
            "custom"
        };
        if self.work_stealing {
            format!("{base}+steal")
        } else {
            base.to_string()
        }
    }

    /// Parses an `SGCN_FLEET`-style spec for an `engines`-wide fleet:
    /// `uniform`, `steal` (uniform + stealing), `mixed`, `mixed-steal`,
    /// or a comma-separated scale list (`1.0,1.5,1.0,1.5`, optionally
    /// `+steal`-suffixed). `None` for unknown names, length mismatches,
    /// or non-positive scales.
    pub fn parse(spec: &str, engines: usize) -> Option<FleetSpec> {
        let spec = spec.trim().to_ascii_lowercase();
        match spec.as_str() {
            "uniform" | "" => return Some(FleetSpec::uniform(engines)),
            "steal" | "uniform-steal" | "uniform+steal" => {
                return Some(FleetSpec::uniform(engines).with_work_stealing())
            }
            "mixed" => return Some(FleetSpec::mixed(engines, 1.5)),
            "mixed-steal" | "mixed+steal" => {
                return Some(FleetSpec::mixed(engines, 1.5).with_work_stealing())
            }
            _ => {}
        }
        let (list, steal) = match spec.strip_suffix("+steal") {
            Some(rest) => (rest, true),
            None => (spec.as_str(), false),
        };
        let scales: Option<Vec<f64>> = list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite() && *v > 0.0)
            })
            .collect();
        let scales = scales?;
        if scales.len() != engines {
            return None;
        }
        Some(FleetSpec {
            scales,
            work_stealing: steal,
        })
    }
}

/// One hardware class of a heterogeneous lineup: a named accelerator
/// configuration plus its relative price in cost units (reference
/// class = 1.0). Service times, warm-savings bandwidth and cache
/// geometry all come from `hw`, not from a scalar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineClass {
    /// Stable display name (appears in lineup labels).
    pub name: &'static str,
    /// The class's accelerator platform.
    pub hw: HwConfig,
    /// Relative cost of keeping one engine of this class in the fleet.
    pub cost_units: f64,
}

/// A heterogeneous engine lineup: the hardware classes in play and each
/// engine's class assignment. The real-hardware successor of the scalar
/// [`FleetSpec`] — every engine simulates on its own [`HwConfig`], with
/// per-class cold [`SimReport`]s from [`prepare_for`] and per-class
/// warm-savings pricing.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineLineup {
    /// The hardware classes (class 0 is the reference class whose cold
    /// reports calibrate arrivals).
    pub classes: Vec<EngineClass>,
    /// Per-engine class index (`assignment.len()` engines).
    pub assignment: Vec<usize>,
    /// Whether an idle engine steals queued work from the most
    /// backlogged peer.
    pub work_stealing: bool,
}

impl EngineLineup {
    /// The two standard classes derived from a base platform: `ref`
    /// (the base hardware, 1.0 cost units) and `eco` (half the engine
    /// arrays on HBM1, 0.45 cost units) — a cheaper, memory- and
    /// compute-lean class.
    pub fn standard_classes(base: HwConfig) -> Vec<EngineClass> {
        let eco = base
            .with_engines((base.aggregation_engines / 2).max(1))
            .with_hbm(sgcn_mem::HbmGeneration::Hbm1);
        vec![
            EngineClass {
                name: "ref",
                hw: base,
                cost_units: 1.0,
            },
            EngineClass {
                name: "eco",
                hw: eco,
                cost_units: 0.45,
            },
        ]
    }

    fn standard(engines: usize, base: HwConfig, class_of: impl Fn(usize) -> usize) -> Self {
        assert!(engines > 0, "a lineup needs at least one engine");
        EngineLineup {
            classes: Self::standard_classes(base),
            assignment: (0..engines).map(class_of).collect(),
            work_stealing: false,
        }
    }

    /// Every engine on the reference class.
    pub fn uniform(engines: usize, base: HwConfig) -> Self {
        Self::standard(engines, base, |_| 0)
    }

    /// Every engine on the eco class.
    pub fn eco(engines: usize, base: HwConfig) -> Self {
        Self::standard(engines, base, |_| 1)
    }

    /// Alternating reference/eco engines (even = ref, odd = eco).
    pub fn mixed(engines: usize, base: HwConfig) -> Self {
        Self::standard(engines, base, |e| e % 2)
    }

    /// Enables cross-engine work stealing.
    pub fn with_work_stealing(mut self) -> Self {
        self.work_stealing = true;
        self
    }

    /// Engine count.
    pub fn engines(&self) -> usize {
        self.assignment.len()
    }

    /// Total fleet price in cost units (sum of assigned class costs).
    pub fn cost_units(&self) -> f64 {
        self.assignment
            .iter()
            .map(|&k| self.classes[k].cost_units)
            .sum()
    }

    /// Display label (stable — appears in golden snapshots):
    /// `lineup-uniform` / `lineup-eco` / `lineup-mixed` /
    /// `lineup-custom`, with a `+steal` suffix when stealing is on.
    pub fn label(&self) -> String {
        let all = |k: usize| self.assignment.iter().all(|&a| a == k);
        let base = if all(0) {
            "lineup-uniform"
        } else if all(1) {
            "lineup-eco"
        } else if self.assignment.iter().enumerate().all(|(e, &a)| a == e % 2) {
            "lineup-mixed"
        } else {
            "lineup-custom"
        };
        if self.work_stealing {
            format!("{base}+steal")
        } else {
            base.to_string()
        }
    }

    /// Parses a lineup name for an `engines`-wide fleet on a base
    /// platform — the part after `lineup-` in an `SGCN_FLEET` spec:
    /// `uniform`, `eco`, `mixed`, optionally `+steal`-suffixed. `None`
    /// for unknown names.
    pub fn parse(spec: &str, engines: usize, base: HwConfig) -> Option<EngineLineup> {
        let spec = spec.trim().to_ascii_lowercase();
        let (name, steal) = match spec.strip_suffix("+steal") {
            Some(rest) => (rest.trim_end_matches('-'), true),
            None => (spec.as_str(), false),
        };
        let lineup = match name {
            "uniform" | "ref" => EngineLineup::uniform(engines, base),
            "eco" => EngineLineup::eco(engines, base),
            "mixed" => EngineLineup::mixed(engines, base),
            _ => return None,
        };
        Some(if steal {
            lineup.with_work_stealing()
        } else {
            lineup
        })
    }
}

/// One entry of a serving format palette: the storage format a request's
/// boundary features are simulated (and served) in. `Native` is the
/// model's own storage — SGCN's sliced BEICSR with its sparse-aware lane
/// work — i.e. the legacy single-format pipeline; a `Kind` forces a
/// Fig. 3 study format through the same override seam as the offline
/// format study (compute stays dense, only traffic changes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServeFormat {
    /// The model's native storage (no override).
    Native,
    /// A forced study format.
    Kind(FormatKind),
}

impl ServeFormat {
    /// The standard serving palette, native first (palette index 0 —
    /// the calibration column): the formats [`prepare_for`]
    /// simulates for a non-native format policy and
    /// [`FormatPolicy::parse`] accepts.
    pub const PALETTE: [ServeFormat; 6] = [
        ServeFormat::Native,
        ServeFormat::Kind(FormatKind::Dense),
        ServeFormat::Kind(FormatKind::Csr),
        ServeFormat::Kind(FormatKind::Bsr),
        ServeFormat::Kind(FormatKind::BlockedEllpack),
        ServeFormat::Kind(FormatKind::Beicsr),
    ];

    /// Display label (stable — appears in golden snapshots and JSON).
    pub fn label(&self) -> &'static str {
        match self {
            ServeFormat::Native => "native",
            ServeFormat::Kind(FormatKind::Dense) => "dense",
            ServeFormat::Kind(FormatKind::Csr) => "csr",
            ServeFormat::Kind(FormatKind::Coo) => "coo",
            ServeFormat::Kind(FormatKind::Bsr) => "bsr",
            ServeFormat::Kind(FormatKind::BlockedEllpack) => "blocked-ellpack",
            ServeFormat::Kind(FormatKind::BeicsrNonSliced) => "beicsr-nonsliced",
            ServeFormat::Kind(FormatKind::Beicsr) => "beicsr",
            ServeFormat::Kind(FormatKind::SeparateBitmap) => "separate-bitmap",
            ServeFormat::Kind(FormatKind::PackedBeicsr) => "packed-beicsr",
        }
    }

    /// Parses a standard-palette entry name; `None` for unknown names
    /// or kinds outside [`Self::PALETTE`].
    pub fn parse(name: &str) -> Option<ServeFormat> {
        let name = name.trim().to_ascii_lowercase();
        Self::PALETTE.iter().copied().find(|f| f.label() == name)
    }

    /// The format override the accelerator simulation runs under.
    pub fn override_kind(&self) -> Option<FormatKind> {
        match self {
            ServeFormat::Native => None,
            ServeFormat::Kind(k) => Some(*k),
        }
    }
}

/// How the dispatcher picks each request's serving format from the
/// prepared palette.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatPolicy {
    /// Every request serves in one fixed palette format. The default —
    /// `fixed:native` — reproduces the single-format pipeline byte for
    /// byte.
    Fixed(ServeFormat),
    /// Per-request adaptive dispatch: on the engine the scheduling
    /// policy picked, serve in the palette format minimizing the
    /// predicted service; under `cost-aware` the engine × format pair
    /// minimizing predicted completion wins. Ties go to the lowest
    /// palette index (native first in the standard palette).
    Adaptive,
}

impl Default for FormatPolicy {
    fn default() -> Self {
        FormatPolicy::Fixed(ServeFormat::Native)
    }
}

impl FormatPolicy {
    /// Display label (stable — appears in summaries and JSON):
    /// `fixed:<format>` or `adaptive`.
    pub fn label(&self) -> String {
        match self {
            FormatPolicy::Fixed(f) => format!("fixed:{}", f.label()),
            FormatPolicy::Adaptive => "adaptive".to_string(),
        }
    }

    /// The valid `SGCN_FORMATS`-style spellings — error-message
    /// material for knob parsers.
    pub fn valid_values() -> String {
        let fixed: Vec<String> = ServeFormat::PALETTE
            .iter()
            .map(|f| format!("fixed:{}", f.label()))
            .collect();
        format!("{}, adaptive", fixed.join(", "))
    }

    /// Parses an `SGCN_FORMATS`-style spec (`fixed:<format>` — the
    /// `fixed:` prefix is optional — or `adaptive`); `None` for unknown
    /// names.
    pub fn parse(spec: &str) -> Option<FormatPolicy> {
        let spec = spec.trim().to_ascii_lowercase();
        if spec == "adaptive" {
            return Some(FormatPolicy::Adaptive);
        }
        let name = spec.strip_prefix("fixed:").unwrap_or(spec.as_str());
        ServeFormat::parse(name).map(FormatPolicy::Fixed)
    }
}

/// Subgraph statistics of one prepared request — the key the
/// [`CostModel`] table prices service by.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RequestStats {
    /// Sampled subgraph vertex count.
    pub vertices: u64,
    /// Sampled subgraph edge count.
    pub edges: u64,
    /// Mean intermediate-value sparsity of the request's trace.
    pub sparsity: f64,
    /// Input-feature bytes the request streams (vertices × feature row).
    pub feature_bytes: u64,
}

/// Per-`(class, format)` mean cold service cycles of every stats
/// vector in a prepared stream: the table `cost-aware` and `adaptive`
/// dispatch price from. The event loop only queries the stream the
/// model was fitted on, so every query hits it. Distinct seed vertices
/// can sample subgraphs with equal stats but different cycles; such
/// requests share one entry, their per-cell mean. Cells are row-major
/// by class (`class * formats + format`), matching
/// [`PreparedRequest::class_reports`]; the legacy single-format fit is
/// the `formats == 1` case where a cell *is* a class. Fitting is one
/// integer fold in stream order, so the same stream always yields the
/// same model.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Mean cold cycles per cell (at least 1), keyed by the stats'
    /// exact bit pattern.
    table: BTreeMap<[u64; 4], Vec<u64>>,
}

/// The table key of a stats vector: its exact bit pattern.
fn stats_key(stats: &RequestStats) -> [u64; 4] {
    [
        stats.vertices,
        stats.edges,
        stats.sparsity.to_bits(),
        stats.feature_bytes,
    ]
}

impl CostModel {
    /// Fits the table from the prepared cold reports
    /// (`class_reports[cell]` when present, the reference report
    /// otherwise; the palette width comes from the prepared stream — 1
    /// for legacy single-format streams).
    pub fn fit(prepared: &[PreparedRequest], classes: usize) -> CostModel {
        let cells = classes.max(1) * prepared.first().map_or(1, |p| p.palette().len());
        let mut acc: BTreeMap<[u64; 4], (Vec<u64>, u64)> = BTreeMap::new();
        for p in prepared {
            let (sums, n) = acc
                .entry(stats_key(&p.stats))
                .or_insert_with(|| (vec![0; cells], 0));
            for (cell, sum) in sums.iter_mut().enumerate() {
                *sum += p.class_reports.get(cell).unwrap_or(&p.report).cycles;
            }
            *n += 1;
        }
        let table = acc
            .into_iter()
            .map(|(key, (sums, n))| (key, sums.iter().map(|s| (s / n).max(1)).collect()))
            .collect();
        CostModel { table }
    }

    /// Predicted cold service cycles of a request on the given
    /// `(class, format)` cell — `class * formats + format`: the mean
    /// over the fitted requests with these stats. `None` for stats the
    /// fitted stream never had.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the fitted classes × formats.
    pub fn predict_cycles(&self, cell: usize, stats: &RequestStats) -> Option<u64> {
        self.table.get(&stats_key(stats)).map(|cycles| cycles[cell])
    }
}

/// Knobs of one queueing run.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueConfig {
    /// Number of serving engines (each owns a warm [`RowCache`]).
    pub engines: usize,
    /// Dispatch policy.
    pub policy: SchedPolicy,
    /// Offered load ρ: the arrival rate as a fraction of the fleet's
    /// aggregate reference cold-service capacity (ρ = 1 saturates it;
    /// the mean inter-arrival gap is `mean_service / (engines × ρ)`).
    /// For the closed-loop traffic model this sets the mean think time
    /// instead (see [`simulate_queue`]).
    pub offered_load: f64,
    /// Arrival/think-time seed.
    pub seed: u64,
    /// The arrival model (default: open-loop exponential — the PR 3
    /// behavior).
    pub traffic: TrafficModel,
    /// Optional per-request deadline + shedding switch.
    pub slo: Option<SloConfig>,
    /// Engine lineup (default: a uniform fleet, no stealing).
    pub fleet: FleetSpec,
    /// Heterogeneous hardware lineup. When set it supersedes `fleet`:
    /// every engine runs its assigned class's [`HwConfig`] (cache
    /// geometry, DRAM bandwidth, cold service) and the prepared stream
    /// must come from [`prepare_for`] under the same lineup.
    pub lineup: Option<EngineLineup>,
    /// Failure drill: how engines crash and recover (default: never).
    pub faults: FailureModel,
    /// Redrive budget for fault-killed requests (default: 3 attempts,
    /// no backoff). Irrelevant without faults.
    pub retry: RetryPolicy,
    /// Elastic autoscaling; `None` keeps the static fleet. When set,
    /// `engines` is the fleet *ceiling* and the run starts with the
    /// policy's `min_engines` active.
    pub autoscale: Option<ScalePolicy>,
    /// Replay a recorded arrival timeline instead of generating one
    /// from `traffic`. The recorded traffic label is reported in the
    /// summary, so a faithful replay renders byte-identical JSON.
    pub trace: Option<ArrivalTrace>,
    /// Per-request serving-format policy (default: `fixed:native`, the
    /// single-format pipeline). Non-native fixed formats and adaptive
    /// dispatch need a stream prepared over a palette covering the
    /// formats in play ([`prepare_for`]).
    pub format: FormatPolicy,
    /// Deadline classes: a seeded interactive/batch mix where each
    /// class carries its own deadline, shed switch and retry budget,
    /// and interactive arrivals may preempt in-service batch work.
    /// Mutually exclusive with the single-class `slo` knob.
    pub classes: Option<ClassPolicy>,
    /// Brownout / graceful degradation: under backlog pressure the
    /// fleet steps down the [`DegradeMode`] ladder (adaptive → cheapest
    /// fixed format → reduced-fanout lite reports) and recovers one
    /// rung at a time. Needs a stream prepared by [`prepare_degraded`]
    /// and the adaptive format policy.
    pub degrade: Option<DegradePolicy>,
    /// Sharded feature store: when set, each engine serves from one
    /// shard ([`ShardPlan::engine_shard`]) and every sampled row not
    /// resident there pays the modeled cross-shard network cost
    /// (latency + bytes), accounted per request and summarized. Arms
    /// the [`SchedPolicy::ShardAffinity`] locality routing.
    pub sharding: Option<ShardPlan>,
}

impl QueueConfig {
    /// A config with exponential arrivals, no SLO, and a uniform fleet.
    ///
    /// # Panics
    ///
    /// Panics if `engines == 0` or `offered_load` is not a positive
    /// finite number.
    pub fn new(engines: usize, policy: SchedPolicy, offered_load: f64, seed: u64) -> Self {
        assert!(engines > 0, "queueing needs at least one engine");
        assert!(
            offered_load.is_finite() && offered_load > 0.0,
            "offered load must be positive and finite, got {offered_load}"
        );
        QueueConfig {
            engines,
            policy,
            offered_load,
            seed,
            traffic: TrafficModel::Exponential,
            slo: None,
            fleet: FleetSpec::uniform(engines),
            lineup: None,
            faults: FailureModel::None,
            retry: RetryPolicy::default(),
            autoscale: None,
            trace: None,
            format: FormatPolicy::default(),
            classes: None,
            degrade: None,
            sharding: None,
        }
    }

    /// Swaps the traffic model.
    pub fn with_traffic(mut self, traffic: TrafficModel) -> Self {
        self.traffic = traffic;
        self
    }

    /// Sets the SLO (deadline + shedding). Exclusive with deadline
    /// classes ([`Self::check`]).
    pub fn with_slo(mut self, slo: SloConfig) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Installs deadline classes (seeded interactive/batch mix with
    /// per-class contracts and optional preemption). Exclusive with the
    /// single-class SLO ([`Self::check`]).
    pub fn with_classes(mut self, classes: ClassPolicy) -> Self {
        self.classes = Some(classes);
        self
    }

    /// Arms brownout degradation (requires a [`prepare_degraded`]
    /// stream and the adaptive format policy at run time).
    pub fn with_degrade(mut self, degrade: DegradePolicy) -> Self {
        self.degrade = Some(degrade);
        self
    }

    /// Swaps the fleet (its width must match `engines`:
    /// [`Self::check`]).
    pub fn with_fleet(mut self, fleet: FleetSpec) -> Self {
        self.fleet = fleet;
        self
    }

    /// Installs a heterogeneous hardware lineup (supersedes the scalar
    /// fleet; its width must match `engines`: [`Self::check`]).
    pub fn with_lineup(mut self, lineup: EngineLineup) -> Self {
        self.lineup = Some(lineup);
        self
    }

    /// Whether idle engines steal queued work (from whichever fleet
    /// abstraction is active).
    fn stealing(&self) -> bool {
        self.lineup
            .as_ref()
            .map_or(self.fleet.work_stealing, |l| l.work_stealing)
    }

    /// The fleet label of whichever fleet abstraction is active.
    fn fleet_label(&self) -> String {
        self.lineup
            .as_ref()
            .map_or_else(|| self.fleet.label(), EngineLineup::label)
    }

    /// Arms a failure drill.
    pub fn with_faults(mut self, faults: FailureModel) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the redrive budget for fault-killed requests.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables elastic autoscaling (`engines` becomes the ceiling; the
    /// floor must fit under it: [`Self::check`]).
    pub fn with_autoscale(mut self, policy: ScalePolicy) -> Self {
        self.autoscale = Some(policy);
        self
    }

    /// Replays a recorded arrival timeline instead of generating one.
    pub fn with_trace(mut self, trace: ArrivalTrace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Sets the per-request serving-format policy.
    pub fn with_format(mut self, format: FormatPolicy) -> Self {
        self.format = format;
        self
    }

    /// Shards the feature store: engines serve from striped shards and
    /// cross-shard rows pay the plan's modeled network cost.
    pub fn with_sharding(mut self, plan: ShardPlan) -> Self {
        self.sharding = Some(plan);
        self
    }

    /// Checks the rules a configuration must satisfy on its own, before
    /// any stream is prepared. [`simulate_queue`] runs it first; a
    /// harness can run it as soon as the config is built, so a bad
    /// combination aborts before the expensive preparation.
    ///
    /// # Panics
    ///
    /// - the fleet's engine count disagrees with `engines`, or a fleet
    ///   scale is not positive and finite;
    /// - both an SLO and deadline classes are set;
    /// - a format policy other than `fixed:native` runs without a
    ///   hardware lineup;
    /// - a lineup's width disagrees with `engines`, or it assigns an
    ///   unknown class;
    /// - brownout runs without the adaptive format policy;
    /// - the autoscale floor exceeds `engines`;
    /// - closed-loop traffic has no clients (unless a recorded trace
    ///   replaces it).
    pub fn check(&self) {
        assert_eq!(
            self.fleet.engines(),
            self.engines,
            "fleet width must match the engine count"
        );
        for &s in &self.fleet.scales {
            assert!(
                s.is_finite() && s > 0.0,
                "fleet scales must be positive and finite, got {s}"
            );
        }
        assert!(
            self.slo.is_none() || self.classes.is_none(),
            "deadline classes supersede the single SLO — configure one or the other"
        );
        // The scalar fleet serves every request from its reference report,
        // which is the native column: any other format would be credited in
        // the summary's dispatch counts while the native report is served.
        assert!(
            self.lineup.is_some() || self.format == FormatPolicy::Fixed(ServeFormat::Native),
            "format policy {} needs a hardware lineup — the scalar fleet serves fixed:native only",
            self.format.label()
        );
        if let Some(lineup) = &self.lineup {
            assert_eq!(
                lineup.engines(),
                self.engines,
                "lineup width must match the engine count"
            );
            assert!(
                lineup.assignment.iter().all(|&k| k < lineup.classes.len()),
                "lineup assigns an unknown class"
            );
        }
        // Adaptive dispatch implies a lineup (asserted above).
        assert!(
            self.degrade.is_none() || matches!(self.format, FormatPolicy::Adaptive),
            "brownout degrades the adaptive dispatcher — run with the adaptive format policy"
        );
        if let Some(pol) = &self.autoscale {
            assert!(
                pol.min_engines <= self.engines,
                "autoscale floor {} exceeds the {}-engine ceiling",
                pol.min_engines,
                self.engines
            );
        }
        if let (None, TrafficModel::ClosedLoop { clients }) = (&self.trace, self.traffic) {
            assert!(clients > 0, "closed-loop traffic needs at least one client");
        }
    }

    /// Whether this run injects faults or scales the fleet — the
    /// configurations that need the event-driven loop's drill state.
    fn has_drills(&self) -> bool {
        !self.faults.is_none() || self.autoscale.is_some()
    }
}

/// A request with its model-level simulation done: the sampled global
/// vertex ids (the warm-cache working set) and the cold-cache service
/// report.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedRequest {
    /// The request.
    pub request: Request,
    /// Global (original dataset) ids of the sampled neighborhood — the
    /// input-feature rows the engine pulls through its warm cache.
    pub vertices: Vec<u32>,
    /// Cold service simulation of the request's workload on the
    /// reference platform.
    pub report: SimReport,
    /// Subgraph statistics: the [`CostModel`]'s table key (the event
    /// loop's `cost-aware` and `adaptive` dispatch price service by
    /// them) and the batch view's subgraph sizes
    /// ([`crate::serving::ServeSummary`]). [`Default`] in fabricated
    /// test streams that never reach the cost model.
    pub stats: RequestStats,
    /// Cold reports over the prepared `(class, format)` matrix from
    /// [`prepare_for`], row-major by class
    /// (`class_reports[class * formats.len() + format]`); empty on the
    /// legacy scalar path.
    pub class_reports: Vec<SimReport>,
    /// The format palette `class_reports` is simulated over (one column
    /// per entry, palette order). Empty means the single-format
    /// `[ServeFormat::Native]` palette — the shape [`prepare`]
    /// produces.
    pub formats: Vec<ServeFormat>,
    /// Reduced-fanout "lite" cold reports, one per lineup class (native
    /// format) — the bottom rung of the brownout ladder. Empty unless
    /// the stream came from [`prepare_degraded`].
    pub lite_reports: Vec<SimReport>,
    /// The lite sample's global vertex ids (the reduced warm-cache
    /// working set). Empty unless prepared by [`prepare_degraded`].
    pub lite_vertices: Vec<u32>,
}

impl PreparedRequest {
    /// The format palette the request was prepared over — the columns
    /// of `class_reports`. An empty `formats` (the shape [`prepare`]
    /// produces) is the single-format `[ServeFormat::Native]` palette.
    pub fn palette(&self) -> &[ServeFormat] {
        if self.formats.is_empty() {
            &[ServeFormat::Native]
        } else {
            &self.formats
        }
    }
}

/// Samples, builds and simulates every request in parallel (stream
/// order) — the model-independent-of-policy half of a queueing run.
/// Prepare once, then [`simulate_queue`] any number of
/// traffic/policy/load/fleet combinations over the same prepared stream.
///
/// Sampling, workload construction and the cold simulation are bit-pure
/// in the request's `seed_vertex` (never its stream position), so each
/// distinct vertex is simulated once and duplicates — the whole point of
/// a hotspot stream — clone the result.
pub fn prepare(
    ctx: &ServingContext,
    requests: &[Request],
    model: &AccelModel,
    hw: &HwConfig,
) -> Vec<PreparedRequest> {
    prepare_cells(
        ctx,
        requests,
        model,
        std::slice::from_ref(hw),
        &[ServeFormat::Native],
        false,
        false,
    )
}

/// [`prepare`] over a lineup's full `(hardware class, format)` dispatch
/// matrix ([`PreparedRequest::class_reports`], row-major by class) plus
/// the brownout ladder's bottom rung: every distinct vertex is **also**
/// sampled at half fanouts (each hop's cap halved, floor 1) and
/// cold-simulated once per lineup class in the native format, filling
/// [`PreparedRequest::lite_reports`] and
/// [`PreparedRequest::lite_vertices`]. The lite context shares the
/// synthesized graph and input features, so the extra cost is one small
/// workload build + one simulation per class per distinct vertex.
///
/// # Panics
///
/// Panics if `formats` is empty or repeats an entry.
pub fn prepare_degraded(
    ctx: &ServingContext,
    requests: &[Request],
    model: &AccelModel,
    lineup: &EngineLineup,
    formats: &[ServeFormat],
) -> Vec<PreparedRequest> {
    let hws: Vec<HwConfig> = lineup.classes.iter().map(|c| c.hw).collect();
    prepare_cells(ctx, requests, model, &hws, formats, true, true)
}

/// The brownout ladder's reduced sampling schedule: every hop's fanout
/// cap halved, floored at one neighbor.
fn lite_fanouts(full: &Fanouts) -> Fanouts {
    Fanouts::new(full.caps().iter().map(|&c| (c / 2).max(1)).collect())
}

#[allow(clippy::type_complexity)]
fn prepare_cells(
    ctx: &ServingContext,
    requests: &[Request],
    model: &AccelModel,
    hws: &[HwConfig],
    formats: &[ServeFormat],
    keep_class_reports: bool,
    build_lite: bool,
) -> Vec<PreparedRequest> {
    assert!(!formats.is_empty(), "a prepare matrix needs >= 1 format");
    for (i, f) in formats.iter().enumerate() {
        assert!(!formats[..i].contains(f), "palette repeats {:?}", f.label());
    }
    let mut distinct: Vec<u32> = requests.iter().map(|r| r.seed_vertex).collect();
    distinct.sort_unstable();
    distinct.dedup();
    // The lite context shares the synthesized graph/features (fanouts
    // only change the sampling schedule), so deriving it is cheap.
    let lite_ctx = build_lite.then(|| ctx.with_fanouts(lite_fanouts(&ctx.config().fanouts)));
    // Every non-native palette encoding is built once into a workload's
    // shared format cache, so its per-(class, format) simulations reuse
    // the encodings instead of re-encoding per class.
    let kinds: Vec<FormatKind> = formats
        .iter()
        .filter_map(ServeFormat::override_kind)
        .collect();
    let per_vertex: Vec<(
        Vec<u32>,
        RequestStats,
        Vec<SimReport>,
        Vec<SimReport>,
        Vec<u32>,
    )> = par_map(distinct.clone(), |seed_vertex| {
        let probe = Request {
            index: 0,
            seed_vertex,
        };
        let sub = ctx.sample(&probe);
        let vertices = sub.vertices.clone();
        let wl = ctx.build_workload_from(&probe, sub);
        wl.precache_boundary_formats(&kinds);
        let stats = RequestStats {
            vertices: vertices.len() as u64,
            edges: wl.graph().num_edges() as u64,
            sparsity: wl.trace.avg_intermediate_sparsity(),
            feature_bytes: vertices.len() as u64 * wl.dataset.input_features as u64 * 4,
        };
        let mut reports = Vec::with_capacity(hws.len() * formats.len());
        for hw in hws {
            for f in formats {
                reports.push(model.simulate_with_format(&wl, hw, f.override_kind()));
            }
        }
        let (lite_reports, lite_vertices) = match &lite_ctx {
            Some(lctx) => {
                let lsub = lctx.sample(&probe);
                let lverts = lsub.vertices.clone();
                let lwl = lctx.build_workload_from(&probe, lsub);
                let lr: Vec<SimReport> = hws
                    .iter()
                    .map(|hw| model.simulate_with_format(&lwl, hw, None))
                    .collect();
                (lr, lverts)
            }
            None => (Vec::new(), Vec::new()),
        };
        (vertices, stats, reports, lite_reports, lite_vertices)
    });
    requests
        .iter()
        .map(|req| {
            let at = distinct
                .binary_search(&req.seed_vertex)
                .expect("every stream vertex was prepared");
            let (vertices, stats, reports, lite_reports, lite_vertices) = &per_vertex[at];
            PreparedRequest {
                request: *req,
                vertices: vertices.clone(),
                report: reports[0].clone(),
                stats: *stats,
                class_reports: if keep_class_reports {
                    reports.clone()
                } else {
                    Vec::new()
                },
                formats: if keep_class_reports {
                    formats.to_vec()
                } else {
                    Vec::new()
                },
                lite_reports: lite_reports.clone(),
                lite_vertices: lite_vertices.clone(),
            }
        })
        .collect()
}

/// One completed request's timeline through the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTiming {
    /// Stream position.
    pub index: usize,
    /// Engine that served it.
    pub engine: usize,
    /// Arrival time (cycles).
    pub arrival: u64,
    /// Service start (≥ arrival).
    pub start: u64,
    /// Service end.
    pub finish: u64,
    /// Warm-adjusted service time (`finish - start`).
    pub service_cycles: u64,
    /// Warm-cache filtering of the request's feature working set on its
    /// engine.
    pub warm: SpanCounts,
    /// Palette index of the serving format the dispatcher chose (0 —
    /// native — on the legacy single-format path).
    pub format: usize,
    /// The dispatcher's routing-time service prediction (cycles): what
    /// the format/engine choice was minimized over. Compared against
    /// `service_cycles` in the summary's prediction-error stat.
    pub predicted_cycles: u64,
    /// Whether service started with the fleet browned out (any
    /// [`DegradeMode`] below full service) — the summary's
    /// degraded-completion count. Always `false` without a
    /// [`DegradePolicy`].
    pub degraded: bool,
    /// Cross-shard network bill of this request (all-zero without a
    /// [`ShardPlan`]).
    pub net: NetCost,
    /// Sampled feature rows the service streamed (the `remote_rate`
    /// denominator; counts the lite sample under lite service).
    pub sampled_vertices: u64,
}

impl RequestTiming {
    /// Queueing delay (cycles spent waiting for an engine).
    pub fn wait_cycles(&self) -> u64 {
        self.start - self.arrival
    }

    /// End-to-end latency (wait + service).
    pub fn e2e_cycles(&self) -> u64 {
        self.finish - self.arrival
    }
}

/// A request rejected at admission: it never touched an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedRecord {
    /// Stream position.
    pub index: usize,
    /// Arrival time (cycles) — also the instant the shed decision was
    /// made.
    pub arrival: u64,
}

/// A request that exhausted its retry budget (or could never be
/// re-dispatched): the third terminal state alongside completed/shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailedRecord {
    /// Stream position.
    pub index: usize,
    /// Original arrival time (cycles).
    pub arrival: u64,
    /// The instant the request was abandoned (its last kill, or the
    /// moment no engine could ever serve it again).
    pub at: u64,
    /// Dispatch attempts consumed (0 if it never reached an engine).
    pub attempts: u32,
}

/// A warm-accounted service: the priced service time and the cache
/// counters the accounting produced.
#[derive(Debug, Clone, Copy)]
struct ExactService {
    service: u64,
    warm: SpanCounts,
    /// Cross-shard network bill (all-zero without a shard plan).
    net: NetCost,
    /// Feature rows streamed (lite sample under lite service).
    sampled: u64,
}

/// A request assigned to an engine but not yet started.
#[derive(Debug, Clone, Copy)]
struct Queued {
    id: usize,
    arrival: u64,
    /// Service estimate at assignment time (the assignee's scale). In
    /// exact-estimate mode this is the warm-accounted service; in
    /// reordering/stealing/drill runs it is the cold scaled estimate
    /// and the serving engine re-prices when service starts.
    est: u64,
    /// The warm accounting already performed at assignment
    /// (exact-estimate mode only) — consumed by `start_service` without
    /// touching the cache again.
    exact: Option<ExactService>,
}

/// The request an engine is currently serving — what a crash or a
/// preemption kills.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    id: usize,
    finish: u64,
}

/// Per-engine state: the warm cache plus scheduling clocks and drill
/// state (crash epoch, park/up flags, uptime accounting).
struct Engine {
    mem: RowCache,
    /// Completion time of all *started* work.
    next_free: u64,
    /// Sum of queued service estimates (backlog projection).
    queued_est: u64,
    busy: u64,
    served: u64,
    warm: SpanCounts,
    /// Service-time scale of this engine (the scalar fleet's factor;
    /// 1.0 under a hardware lineup).
    scale: f64,
    /// Hardware-class index into the run's pricing table (0 on the
    /// scalar fleet).
    class: usize,
    /// Crash counter: completion events minted before a crash carry a
    /// stale epoch and are discarded when popped.
    epoch: u64,
    /// `false` while crashed (between a fault-down and its fault-up).
    up: bool,
    /// `false` while parked by the autoscaler (or not yet provisioned).
    active: bool,
    /// A scale-up provision is pending for this engine.
    provisioning: bool,
    /// The request being served right now.
    in_flight: Option<InFlight>,
    /// Start of the current availability interval, if available.
    up_since: Option<u64>,
    /// Closed availability intervals (clipped to the makespan at
    /// finalize — a handful per run, one per crash/park).
    up_intervals: Vec<(u64, u64)>,
}

impl Engine {
    /// Projected completion time of everything assigned so far.
    fn projected_free(&self) -> u64 {
        self.next_free.saturating_add(self.queued_est)
    }

    /// Whether the engine can take work: in the fleet and not crashed.
    fn available(&self) -> bool {
        self.active && self.up
    }
}

/// Where the next arrival comes from.
enum Source {
    /// Precomputed open-loop timeline.
    Open { times: Vec<u64>, ptr: usize },
    /// Closed loop: each client's next-issue instant becomes known when
    /// its previous request finishes (or is shed).
    Closed {
        ready: BinaryHeap<Reverse<(u64, usize)>>,
        cursor: usize,
        limit: usize,
        think: ThinkTimes,
        client_of: Vec<usize>,
    },
}

/// The full result of one queueing run.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueOutcome {
    /// Per-request timelines of **completed** requests, in stream order.
    pub records: Vec<RequestTiming>,
    /// Requests rejected at admission, in stream order.
    pub shed: Vec<ShedRecord>,
    /// Requests that exhausted their retry budget, in stream order.
    pub failed: Vec<FailedRecord>,
    /// Busy cycles per engine.
    pub engine_busy: Vec<u64>,
    /// Requests served per engine.
    pub engine_served: Vec<u64>,
    /// Warm-cache counts per engine.
    pub engine_warm: Vec<SpanCounts>,
    /// Availability cycles per engine, clipped to the makespan.
    pub engine_uptime: Vec<u64>,
    /// The aggregate view.
    pub summary: QueueSummary,
}

impl QueueOutcome {
    /// Records the run's arrival timeline: every offered request's
    /// arrival instant (completed, shed and failed alike) in stream
    /// order, tagged with the traffic label that generated it. Feeding
    /// the trace back via [`QueueConfig::with_trace`] replays the run
    /// bit-identically.
    pub fn arrival_trace(&self) -> ArrivalTrace {
        let mut pairs: Vec<(usize, u64)> = self
            .records
            .iter()
            .map(|r| (r.index, r.arrival))
            .chain(self.shed.iter().map(|s| (s.index, s.arrival)))
            .chain(self.failed.iter().map(|f| (f.index, f.arrival)))
            .collect();
        pairs.sort_unstable();
        ArrivalTrace::new(
            self.summary.traffic.clone(),
            pairs.into_iter().map(|(_, t)| t).collect(),
        )
    }
}

/// The seeded deadline-class draw: pure in `(seed, request index,
/// interactive fraction)` — a splitmix-style hash to a unit uniform,
/// like the fault plan's draws — so the mix is thread- and
/// replay-stable, and the summary can re-derive any record's class
/// from its stream index alone.
fn class_of(seed: u64, index: usize, interactive_frac: f64) -> RequestClass {
    let mut z = (seed ^ 0xC1A5_5000_0000_0001)
        .wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let u = (z >> 11) as f64 / (1u64 << 53) as f64;
    if u < interactive_frac {
        RequestClass::Interactive
    } else {
        RequestClass::Batch
    }
}

/// Materializes a class policy's deadlines to cycles against the
/// stream's mean cold service (floor one cycle, like every other
/// service-relative knob).
fn class_deadlines(pol: &ClassPolicy, mean_service: f64) -> [u64; RequestClass::COUNT] {
    let to_cycles = |services: f64| ((services * mean_service).round() as u64).max(1);
    [
        to_cycles(pol.interactive.deadline_services),
        to_cycles(pol.batch.deadline_services),
    ]
}

/// Scales a cold service time by an engine class factor. A reference
/// engine (scale 1.0) passes the cold cycles through untouched.
fn scale_service(cold_cycles: u64, scale: f64) -> u64 {
    if scale == 1.0 {
        cold_cycles
    } else {
        (cold_cycles as f64 * scale).round().max(1.0) as u64
    }
}

/// Per-hardware-class warm-savings pricing: the class's effective DRAM
/// bandwidth, cache line size, and line-aligned feature-row stride.
#[derive(Debug, Clone, Copy)]
struct ClassPricing {
    effective_bw: f64,
    line_bytes: u64,
    row_stride: u64,
    /// Unpadded feature-row bytes — what a cross-shard fetch actually
    /// moves over the interconnect (the stride padding is a cache-layout
    /// artifact, not wire traffic).
    feature_row_bytes: u64,
}

impl ClassPricing {
    /// Pricing from one hardware class's cache geometry and DRAM.
    fn new(hw: &HwConfig, feature_row_bytes: u64) -> Self {
        let line_bytes = hw.cache.line_bytes;
        ClassPricing {
            effective_bw: hw.dram.peak_bytes_per_cycle * hw.dram.efficiency,
            line_bytes,
            row_stride: feature_row_bytes.div_ceil(line_bytes) * line_bytes,
            feature_row_bytes,
        }
    }

    /// Lines of the class's cache per line of `mem`: the row's line
    /// count when `mem` runs the row-granular twin, 1 on the line
    /// geometry. Every count read off an engine cache is scaled by it
    /// back into the class's lines.
    #[inline]
    fn granule(&self, mem: &RowCache) -> u64 {
        mem.line_bytes() / self.line_bytes
    }
}

/// A fresh engine cache for one hardware class: the class's cache
/// geometry on its cache engine, with no DRAM behind it (warm hits are
/// priced at the class's effective bandwidth, never by a device model).
///
/// An engine cache only ever sees whole feature rows — `k =
/// row_stride / line_bytes` lines from line `v·k` — so when `k` divides
/// the set count under LRU or FIFO it runs the exact row-granular twin
/// ([`CacheConfig::row_granular`]): one probe per row instead of `k`,
/// with identical hits, evictions and contents up to the `k`-fold
/// [`ClassPricing::granule`]. Any other geometry or policy (BIP, or a
/// line count that does not divide the set count) falls back to the
/// class's line geometry through the same code. Cache-affinity routing
/// scores engines by resident lines per feature row, so only that
/// policy arms the row counters; every other policy reads untracked.
fn engine_memory(hw: &HwConfig, pricing: &ClassPricing, policy: SchedPolicy) -> RowCache {
    let cache = hw
        .cache
        .row_granular(pricing.row_stride / pricing.line_bytes)
        .unwrap_or(hw.cache);
    let mut mem: RowCache = RowCache::new(cache);
    if policy == SchedPolicy::CacheAffinity {
        mem.track_rows(pricing.row_stride / cache.line_bytes);
    }
    mem
}

/// Bounded-load affinity slack: two mean cold services, guarded against
/// degenerate means (empty streams, fabricated zero-cycle profiles, or
/// non-finite sums) — an unguarded `as u64` cast maps NaN to 0 and
/// would silently degenerate bounded-load affinity to pure greedy.
fn affinity_slack_cycles(mean_service: f64) -> u64 {
    if mean_service.is_finite() && mean_service > 0.0 {
        (2.0 * mean_service).ceil() as u64
    } else {
        0
    }
}

/// The serial event loop's working state.
struct QueueSim<'a> {
    prepared: &'a [PreparedRequest],
    cfg: &'a QueueConfig,
    engines: Vec<Engine>,
    /// Every engine's assigned-but-unstarted requests.
    queues: EngineQueues<Queued>,
    records: Vec<RequestTiming>,
    shed: Vec<ShedRecord>,
    failed: Vec<FailedRecord>,
    /// Pending completions `(finish, engine, epoch, id)`: entries with a
    /// stale epoch were killed by a crash and are discarded on pop.
    completions: BinaryHeap<Reverse<(u64, usize, u64, usize)>>,
    source: Source,
    /// Per-class warm-savings pricing (one entry for the scalar fleet).
    pricing: Vec<ClassPricing>,
    /// The fitted service-time predictor (cost-aware or adaptive-format
    /// routing under a lineup; `None` otherwise — scalar-fleet
    /// cost-aware routes on the exact cold scaled estimate).
    cost: Option<CostModel>,
    /// The prepared stream's format palette (always ≥ 1 entry;
    /// `[Native]` on the legacy single-format path).
    palette: &'a [ServeFormat],
    /// Palette index every request serves in under a fixed format
    /// policy; `None` under adaptive dispatch.
    fixed_fmt: Option<usize>,
    /// Chosen palette format per request, committed at every
    /// (re)assignment — what `cold_est`/`account_warm` price from.
    chosen_fmt: Vec<usize>,
    /// Routing-time predicted service per request (the quantity the
    /// dispatcher minimized), recorded for the summary's
    /// predicted-vs-actual error.
    predicted: Vec<u64>,
    /// Work stealing (from whichever fleet abstraction is active).
    stealing: bool,
    /// Exact-estimate mode: assignment order equals service order, so
    /// warm accounting happens at assignment and `queued_est` carries
    /// warm-adjusted service.
    exact_est: bool,
    affinity_slack: u64,
    /// Drill state (faults/autoscale): changes event ordering details
    /// (deferred closed-loop feedback, availability bookkeeping), so it
    /// is only armed when the configuration actually drills.
    drills: bool,
    /// Whether a started request can still be rolled back (a drill
    /// kills it, or a preempting class re-queues it): its closed-loop
    /// client is then released at the completion event, once, instead
    /// of at each start.
    hold_clients: bool,
    /// Crash/recovery schedule: `(time, 0=up|1=down, engine)`, sorted.
    /// Recoveries sort before crashes at equal instants so chained
    /// incidents (`up_at == next down_at`) hand over cleanly.
    drill_events: Vec<(u64, u8, usize)>,
    drill_ptr: usize,
    /// Pending scale-up completions `(time, engine)`.
    provisions: BinaryHeap<Reverse<(u64, usize)>>,
    /// Pending redrives `(time, id)` — killed requests waiting out their
    /// backoff, and arrivals deferred past a total outage.
    redrives: BinaryHeap<Reverse<(u64, usize)>>,
    /// Dispatch count per request (terminal `failed` when it would
    /// exceed `retry.max_attempts`).
    attempts: Vec<u32>,
    /// Original arrival instant per request (drill bookkeeping).
    arrival_of: Vec<u64>,
    /// Mean cold service time of the prepared stream (cycles).
    mean_service: f64,
    /// Autoscale provisioning delay / decision cooldown (cycles).
    prov_delay: u64,
    cooldown_cycles: u64,
    cooldown_until: u64,
    incidents: u64,
    retries: u64,
    peak_available: usize,
    /// Per-request deadline class (empty without a [`ClassPolicy`]).
    classes: Vec<RequestClass>,
    /// Per-class deadlines in cycles, materialized from the stream's
    /// mean cold service (`[0, 0]` without classes).
    class_ddl: [u64; RequestClass::COUNT],
    /// Pending preemption attempts `(time, interactive id)` — processed
    /// after same-instant completions, so a freed engine serves the
    /// request without a preemption and the event no-ops.
    preempts: BinaryHeap<Reverse<(u64, usize)>>,
    /// Times each request has been preempted (bounded by the policy's
    /// `max_preemptions`, so conservation cannot livelock).
    preempt_count: Vec<u32>,
    /// Preemptions that actually fired.
    preemptions: u64,
    /// Whether a [`DegradePolicy`] is armed.
    degrade_armed: bool,
    /// Current brownout rung.
    degrade_mode: DegradeMode,
    /// Every rung change as `(instant entered, rung)`, starting with
    /// full service at 0; folded into per-rung residency clipped at the
    /// makespan once the run ends.
    mode_log: Vec<(u64, DegradeMode)>,
    /// Brownout decision cooldown (cycles, from `cooldown_services`).
    degrade_cooldown_cycles: u64,
    degrade_cooldown_until: u64,
    /// Palette index of the cheapest fixed format (lowest mean cold
    /// cycles across the stream's prepared cells) — the ladder's first
    /// rung. 0 when brownout is off.
    cheapest_fmt: usize,
    /// Per-request sampled-vertex bitmaps over the shard plan's vertex
    /// space (parallel to `prepared`; empty without sharding) — the
    /// word-level operand shard-affinity routing intersects against
    /// shard residency.
    req_bits: Vec<Bitmap>,
}

impl QueueSim<'_> {
    /// Whether any engine can take work right now.
    fn any_available(&self) -> bool {
        self.engines.iter().any(Engine::available)
    }

    /// Picks the serving engine for request `id` arriving at `arrival`,
    /// projecting each engine's backlog as `projected_free` (started
    /// work plus queued estimates). Crashed and parked engines are
    /// never picked; callers check
    /// [`Self::any_available`] first (trivially true without drills).
    fn pick_engine(&self, id: usize, arrival: u64) -> usize {
        let p = &self.prepared[id];
        match self.cfg.policy {
            // Dispatch by the request's stream index (not loop
            // position), so the documented `i mod N` contract holds even
            // when a caller simulates a subset or reordering of a
            // stream. A down round-robin target falls through to the
            // next available engine in cyclic order.
            SchedPolicy::FifoRoundRobin => {
                let n = self.engines.len();
                let base = p.request.index % n;
                (0..n)
                    .map(|k| (base + k) % n)
                    .find(|&e| self.engines[e].available())
                    .expect("an engine is available")
            }
            SchedPolicy::LeastLoaded | SchedPolicy::SloAware => {
                self.argmin_available(|_, e| e.projected_free())
            }
            // Cost-model routing: minimize predicted completion
            // (projected start + predicted service on the engine's
            // class, in the best palette format for that class under
            // adaptive dispatch — a joint engines × formats argmin),
            // falling back to least-loaded order then the lowest id on
            // ties.
            SchedPolicy::CostAware => self.argmin_available(|e, eng| {
                let start = eng.projected_free().max(arrival);
                (
                    start.saturating_add(self.best_format(e, p).1),
                    eng.projected_free(),
                )
            }),
            // Cache affinity reads each engine's per-row resident-line
            // counters: one array read per sampled row, exact because
            // the engine caches hold only line-aligned feature rows,
            // scaled from row-lines back to class lines. The commit
            // happens once the winner is chosen.
            SchedPolicy::CacheAffinity => self.bounded_load_pick(arrival, |_, eng| {
                let pricing = &self.pricing[eng.class];
                let granule = pricing.granule(&eng.mem);
                let score = p
                    .vertices
                    .iter()
                    .map(|&v| eng.mem.resident_lines(u64::from(v)))
                    .sum::<u64>()
                    * granule;
                debug_assert_eq!(
                    score,
                    {
                        let stride = pricing.row_stride;
                        p.vertices
                            .iter()
                            .map(|&v| eng.mem.peek_span(u64::from(v) * stride, stride).hits)
                            .sum::<u64>()
                            * granule
                    },
                    "row counters diverged from the warm cache"
                );
                score
            }),
            // Shard locality is one word-level bitmap intersection per
            // engine (request bits ∧ shard residency). Engines striped
            // onto the same shard tie on locality. Without a shard plan
            // the policy is documented to degrade to least-loaded
            // (shard-oblivious) routing.
            SchedPolicy::ShardAffinity => match &self.cfg.sharding {
                Some(plan) => {
                    let bits = &self.req_bits[id];
                    self.bounded_load_pick(arrival, |e, _| {
                        plan.resident_count(plan.engine_shard(e), bits)
                    })
                }
                None => self.argmin_available(|_, e| e.projected_free()),
            },
        }
    }

    /// The available engine minimizing `key`, ties to the lowest id.
    fn argmin_available<K: Ord>(&self, key: impl Fn(usize, &Engine) -> K) -> usize {
        self.engines
            .iter()
            .enumerate()
            .filter(|(_, eng)| eng.available())
            .min_by_key(|&(e, eng)| (key(e, eng), e))
            .map(|(e, _)| e)
            .expect("an engine is available")
    }

    /// Bounded-load locality routing: an engine's backlog is the work
    /// queued beyond the request's `arrival` instant, and only engines
    /// within `affinity_slack` of the lightest backlog are eligible
    /// (pure greedy routing would starve the fleet behind one hot
    /// engine). Among those the highest locality `score` wins, ties to
    /// the earliest-free then lowest id.
    fn bounded_load_pick(&self, arrival: u64, score: impl Fn(usize, &Engine) -> u64) -> usize {
        let backlog = |eng: &Engine| eng.projected_free().saturating_sub(arrival);
        let min_backlog = self
            .engines
            .iter()
            .filter(|eng| eng.available())
            .map(backlog)
            .min()
            .expect("an engine is available");
        let limit = min_backlog.saturating_add(self.affinity_slack);
        let mut best = usize::MAX;
        let mut best_key = (0u64, 0u64); // (score, -projected_free) maximized
        for (e, eng) in self.engines.iter().enumerate() {
            if !eng.available() || backlog(eng) > limit {
                continue;
            }
            let key = (score(e, eng), u64::MAX - eng.projected_free());
            if best == usize::MAX || key > best_key {
                best_key = key;
                best = e;
            }
        }
        best
    }

    /// The deadline class of request `id` (interactive when classes are
    /// off — per-class state is never consulted then).
    fn req_class(&self, id: usize) -> RequestClass {
        self.classes
            .get(id)
            .copied()
            .unwrap_or(RequestClass::Interactive)
    }

    /// Request `id`'s dispatch-attempt ceiling: its class's budget under
    /// deadline classes, the run-wide retry policy otherwise.
    fn max_attempts_of(&self, id: usize) -> u32 {
        match &self.cfg.classes {
            Some(pol) => pol.slo(self.req_class(id)).max_attempts,
            None => self.cfg.retry.max_attempts,
        }
    }

    /// Admission control: `true` if the active contract sheds request
    /// `id` arriving at `arrival` with service estimate `est` on engine
    /// `e`. Under deadline classes each class applies its own shed
    /// switch and deadline; otherwise the single SLO decides.
    fn shed_decision(&self, arrival: u64, e: usize, est: u64, id: usize) -> bool {
        if let Some(pol) = &self.cfg.classes {
            let class = self.req_class(id);
            if !pol.slo(class).shed {
                return false;
            }
            // An interactive arrival that can preempt a batch victim
            // will not actually queue behind the backlog — admission
            // predicts the post-preemption wait (zero), not the
            // discipline wait, so preemption lowers the shed rate and
            // not just the served tail.
            if pol.preempt
                && class == RequestClass::Interactive
                && self.preempt_victim(arrival).is_some()
            {
                return est > self.class_ddl[class.idx()];
            }
            let wait_pred = self.engines[e].projected_free().saturating_sub(arrival);
            return wait_pred.saturating_add(est) > self.class_ddl[class.idx()];
        }
        match &self.cfg.slo {
            Some(slo) if slo.shed => {
                let wait_pred = self.engines[e].projected_free().saturating_sub(arrival);
                !slo.admits(wait_pred, est)
            }
            _ => false,
        }
    }

    /// Whether a committed format choice is the lite pseudo-format (the
    /// sentinel one past the palette — only ever committed with
    /// brownout armed, which guarantees `lite_reports` exist).
    fn is_lite(&self, fmt: usize) -> bool {
        fmt == self.palette.len()
    }

    /// The cold report of request `p` in format `fmt` on hardware class
    /// `class` — the one lookup every pricing path reads: the class's
    /// reduced-fanout lite report under the lite pseudo-format, the
    /// `(class, format)` lineup cell, or the reference report for a
    /// stream prepared without cells (the scalar fleet's one native
    /// column).
    fn cell_report<'p>(&self, p: &'p PreparedRequest, class: usize, fmt: usize) -> &'p SimReport {
        if self.is_lite(fmt) {
            &p.lite_reports[class]
        } else if p.class_reports.is_empty() {
            &p.report
        } else {
            &p.class_reports[class * self.palette.len() + fmt]
        }
    }

    /// Cold service estimate of request `id` on engine `e`: its report
    /// in the committed format ([`Self::assign_format`]) on the engine's
    /// class, scaled by the engine's scalar-fleet factor.
    fn cold_est(&self, e: usize, id: usize) -> u64 {
        let eng = &self.engines[e];
        let report = self.cell_report(&self.prepared[id], eng.class, self.chosen_fmt[id]);
        scale_service(report.cycles, eng.scale)
    }

    /// Predicted service of request `p` on engine `e` in format `f`
    /// (the lite pseudo-format included): the fitted cost model's
    /// `(class, format)` cell prediction when present, the exact cold
    /// report otherwise, scaled by the engine's scalar-fleet factor.
    fn predicted_service(&self, e: usize, f: usize, p: &PreparedRequest) -> u64 {
        let class = self.engines[e].class;
        let cycles = match &self.cost {
            Some(model) if !self.is_lite(f) => model
                .predict_cycles(class * self.palette.len() + f, &p.stats)
                .expect("the cost model is fitted on the stream it prices"),
            _ => self.cell_report(p, class, f).cycles,
        };
        scale_service(cycles, self.engines[e].scale)
    }

    /// The palette format minimizing request `p`'s predicted service on
    /// engine `e` (the pinned column under a fixed policy), with the
    /// winning prediction. Ties go to the lowest palette index — native
    /// first in the standard palette. Brownout overrides the policy:
    /// rung 1 pins the stream's cheapest fixed column, rung 2 serves
    /// the class's reduced-fanout lite report (the pseudo-format one
    /// past the palette).
    fn best_format(&self, e: usize, p: &PreparedRequest) -> (usize, u64) {
        let pinned = match self.degrade_mode {
            DegradeMode::CheapFixed => Some(self.cheapest_fmt),
            DegradeMode::Lite => Some(self.palette.len()),
            DegradeMode::Full => self.fixed_fmt,
        };
        if let Some(f) = pinned {
            return (f, self.predicted_service(e, f, p));
        }
        (0..self.palette.len())
            .map(|f| (f, self.predicted_service(e, f, p)))
            .min_by_key(|&(f, s)| (s, f))
            .expect("palette is non-empty")
    }

    /// Commits request `id`'s format choice (and the routing-time
    /// prediction it was minimized to) for service on engine `e` —
    /// called at every (re)assignment, so a redriven request re-picks
    /// for its new engine. Pure in `(engine class, prepared, cost
    /// model)`.
    fn assign_format(&mut self, e: usize, id: usize) {
        let (fmt, predicted) = self.best_format(e, &self.prepared[id]);
        self.chosen_fmt[id] = fmt;
        self.predicted[id] = predicted;
    }

    /// Pulls request `id`'s feature working set through engine `e`'s
    /// warm cache and prices its service: warm hits displace
    /// feature-read DRAM bytes at the class's effective bandwidth, and
    /// the whole warm-adjusted cold time is scaled by the engine's
    /// scalar-fleet factor — a slow engine's savings are slow too.
    fn account_warm(&mut self, e: usize, id: usize) -> ExactService {
        let prepared = self.prepared;
        let p = &prepared[id];
        let class = self.engines[e].class;
        let pricing = self.pricing[class];
        let scale = self.engines[e].scale;
        let fmt = self.chosen_fmt[id];
        // The committed (class, format) cell: a recovered or
        // freshly-provisioned engine re-warms against its *own* class's
        // report. Lite service streams the reduced sample — fewer
        // feature rows through the cache, and savings capped at the lite
        // report's own DRAM traffic.
        let report = self.cell_report(p, class, fmt);
        let vertices = if self.is_lite(fmt) {
            &p.lite_vertices
        } else {
            &p.vertices
        };
        let eng = &mut self.engines[e];
        // Feature rows are line-aligned (`row_stride` pads to a line
        // multiple), so each row is one run of lines through the warm
        // cache — the same batched probe the dataflow simulator's
        // `MemorySystem::access_lines` makes, minus its DRAM walk. On a
        // row-granular cache the run is one row-line.
        let lines_per_row = pricing.row_stride / eng.mem.line_bytes();
        let mut warm = SpanCounts::default();
        for &v in vertices {
            let first = u64::from(v) * lines_per_row;
            warm.add(eng.mem.read_lines(first, lines_per_row));
        }
        let warm = warm.scaled(pricing.granule(&eng.mem));
        // Reuse can only displace feature-read DRAM traffic the cold run
        // actually paid for.
        let saved_bytes =
            (warm.hits * pricing.line_bytes).min(report.dram_bytes_for(Traffic::FeatureRead));
        let saved_cycles = if pricing.effective_bw > 0.0 {
            (saved_bytes as f64 / pricing.effective_bw).floor() as u64
        } else {
            0
        };
        let mut service = scale_service(report.cycles.saturating_sub(saved_cycles), scale).max(1);
        // Sharded store: rows not resident on the engine's shard are
        // fetched over the interconnect before service can stream them
        // — pure in `(engine shard, request)`.
        let net = match &self.cfg.sharding {
            Some(plan) => {
                let cost =
                    plan.remote_cost(plan.engine_shard(e), vertices, pricing.feature_row_bytes);
                service += cost.cycles;
                cost
            }
            None => NetCost::default(),
        };
        ExactService {
            service,
            warm,
            net,
            sampled: vertices.len() as u64,
        }
    }

    /// Runs one request on engine `e` starting at `start`: warm-cache
    /// filtering (unless already accounted at assignment), service-time
    /// displacement, bookkeeping. Returns the finish time.
    fn start_service(
        &mut self,
        e: usize,
        id: usize,
        arrival: u64,
        start: u64,
        exact: Option<ExactService>,
    ) -> u64 {
        let ExactService {
            service,
            warm,
            net,
            sampled,
        } = match exact {
            Some(done) => done,
            None => self.account_warm(e, id),
        };
        let p = &self.prepared[id];
        let eng = &mut self.engines[e];
        let finish = start + service;
        eng.next_free = finish;
        eng.busy += service;
        eng.served += 1;
        eng.warm.add(warm);
        self.records.push(RequestTiming {
            index: p.request.index,
            engine: e,
            arrival,
            start,
            finish,
            service_cycles: service,
            warm,
            format: self.chosen_fmt[id],
            predicted_cycles: self.predicted[id],
            // A lite-format request renders a degraded answer even if
            // the fleet recovered between assignment and service start.
            degraded: self.degrade_armed
                && (self.degrade_mode != DegradeMode::Full || self.is_lite(self.chosen_fmt[id])),
            net,
            sampled_vertices: sampled,
        });
        let epoch = self.engines[e].epoch;
        self.engines[e].in_flight = Some(InFlight { id, finish });
        self.completions.push(Reverse((finish, e, epoch, id)));
        finish
    }

    /// Issues the next request from the arrival source, if any. Returns
    /// `(request slot, arrival time)`.
    fn next_arrival(&mut self) -> Option<(usize, u64)> {
        match &mut self.source {
            Source::Open { times, ptr } => {
                if *ptr >= times.len() {
                    return None;
                }
                let at = *ptr;
                *ptr += 1;
                Some((at, times[at]))
            }
            Source::Closed {
                ready,
                cursor,
                limit,
                think: _,
                client_of,
            } => {
                if *cursor >= *limit {
                    return None;
                }
                let Reverse((t, client)) = ready.pop().expect("a client is always ready");
                let id = *cursor;
                *cursor += 1;
                client_of[id] = client;
                Some((id, t))
            }
        }
    }

    /// The next arrival instant without consuming it.
    fn peek_arrival(&self) -> Option<u64> {
        match &self.source {
            Source::Open { times, ptr } => times.get(*ptr).copied(),
            Source::Closed {
                ready,
                cursor,
                limit,
                ..
            } => {
                if *cursor >= *limit {
                    None
                } else {
                    ready.peek().map(|Reverse((t, _))| *t)
                }
            }
        }
    }

    /// Closed-loop feedback: once request `id`'s outcome instant is
    /// known (finish, or the arrival instant when shed), its client
    /// thinks and becomes ready again. No-op for open-loop sources.
    ///
    /// A think lasts at least one cycle, so the next arrival lands after
    /// the instant that released the client. A replay materializes every
    /// arrival up front and runs an instant's arrivals before its
    /// redrives and completions; a zero-cycle think would let the
    /// replayed arrival overtake the completion that released it.
    fn schedule_next_client(&mut self, id: usize, basis: u64) {
        if let Source::Closed {
            ready,
            think,
            client_of,
            ..
        } = &mut self.source
        {
            let client = client_of[id];
            ready.push(Reverse((
                basis.saturating_add(think.gap_cycles(id).max(1)),
                client,
            )));
        }
    }

    /// The discrete-event loop: requests queue per engine and are
    /// pulled (earliest-deadline-first under `slo-aware`, FIFO
    /// otherwise) when an engine frees up; idle engines may steal queued
    /// work from backlogged peers. Arrivals at an instant are processed
    /// before completions at the same instant, so a completing engine
    /// sees the freshest queue. Drill events interleave with a fixed
    /// priority at equal instants: recovery < crash < provision <
    /// arrival < redrive < completion — so a chained incident hands
    /// over cleanly, a revived engine catches same-instant redrives,
    /// and a crash at a request's exact finish instant kills it.
    fn run(&mut self) {
        // Autoscaling decisions happen at instant *boundaries* (when
        // the clock is about to advance), never between two events at
        // the same instant: the end-of-instant fleet state is identical
        // no matter how same-instant events interleave, so boundary
        // evaluation is what keeps record→replay bit-identical.
        let mut now = 0u64;
        let mut evaluated_at = u64::MAX;
        loop {
            self.purge_stale_completions();
            let tf = self
                .drill_events
                .get(self.drill_ptr)
                .map(|&(t, kind, _)| (t, kind));
            let tp = self.provisions.peek().map(|Reverse((t, _))| (*t, 2u8));
            let ta = self.peek_arrival().map(|t| (t, 3u8));
            let tr = self.redrives.peek().map(|Reverse((t, _))| (*t, 4u8));
            let tc = self.completions.peek().map(|Reverse((t, ..))| (*t, 5u8));
            // Preemption attempts sort *after* same-instant completions:
            // an engine freed at the same instant serves the interactive
            // request without a preemption, and the event no-ops.
            let tq = self.preempts.peek().map(|Reverse((t, _))| (*t, 6u8));
            if ta.is_none() && tr.is_none() && tc.is_none() && tq.is_none() {
                // No work left anywhere (engine queues drain whenever a
                // completion is pending, so they are empty too): the
                // remaining fault/provision events are beyond the
                // makespan and cannot affect any metric.
                break;
            }
            let next = [tf, tp, ta, tr, tc, tq]
                .into_iter()
                .flatten()
                .min()
                .expect("some source is non-empty");
            if (self.cfg.autoscale.is_some() || self.degrade_armed)
                && next.0 > now
                && evaluated_at != now
            {
                // The instant is complete: one scaling decision and one
                // brownout decision, then re-gather (a zero-delay
                // provision lands at `now` and must process before the
                // clock moves). Boundary evaluation is what keeps
                // record→replay bit-identical — see `evaluate_scaling`.
                evaluated_at = now;
                if self.cfg.autoscale.is_some() {
                    self.evaluate_scaling(now);
                }
                if self.degrade_armed {
                    self.evaluate_degrade(now);
                }
                continue;
            }
            now = next.0;
            match next.1 {
                0 | 1 => {
                    let (t, kind, e) = self.drill_events[self.drill_ptr];
                    self.drill_ptr += 1;
                    if kind == 0 {
                        self.recover(e, t);
                    } else {
                        self.crash(e, t);
                    }
                }
                2 => {
                    let Reverse((t, e)) = self.provisions.pop().expect("peeked");
                    self.provision_complete(e, t);
                }
                3 => {
                    let (id, t) = self.next_arrival().expect("peeked");
                    self.arrive(id, t);
                }
                4 => {
                    let Reverse((t, id)) = self.redrives.pop().expect("peeked");
                    self.process_redrive(id, t);
                }
                5 => {
                    let Reverse((t, e, epoch, id)) = self.completions.pop().expect("peeked");
                    // Epoch-fresh completions are real; stale ones were
                    // killed by a crash (or rolled back by a
                    // preemption) and carry no bookkeeping.
                    if self.engines[e].epoch == epoch {
                        // Clear the slot unless a same-instant dispatch
                        // already reused it.
                        if let Some(fl) = self.engines[e].in_flight {
                            if fl.id == id && fl.finish == t {
                                self.engines[e].in_flight = None;
                            }
                        }
                        if self.hold_clients {
                            // The closed-loop client was held until the
                            // outcome was known.
                            self.schedule_next_client(id, t);
                        }
                    }
                    self.dispatch_idle(t);
                }
                _ => {
                    let Reverse((t, id)) = self.preempts.pop().expect("peeked");
                    self.process_preempt(id, t);
                }
            }
        }
    }

    /// Drops completion entries whose engine crashed after they were
    /// minted (their epoch is stale) so peeks see only live work.
    fn purge_stale_completions(&mut self) {
        while let Some(&Reverse((_, e, epoch, _))) = self.completions.peek() {
            if self.engines[e].epoch == epoch {
                break;
            }
            self.completions.pop();
        }
    }

    /// Arrival: admission, assignment, and a dispatch pass so an idle
    /// fleet starts the request immediately. Under drills an arrival
    /// into a total outage is deferred to the next revival (or failed
    /// outright when none is coming).
    fn arrive(&mut self, id: usize, t: u64) {
        self.arrival_of[id] = t;
        if self.drills && !self.any_available() {
            self.defer_or_fail(id, t);
            return;
        }
        let Some((e, est)) = self.route(id, t, true) else {
            return;
        };
        self.attempts[id] = 1;
        // Exact-estimate mode: assignment order is service order, so
        // warm accounting happens now — queued_est then projects
        // warm-adjusted service exactly.
        let exact = self.exact_est.then(|| self.account_warm(e, id));
        self.enqueue(e, id, exact.map_or(est, |x| x.service), exact);
        self.dispatch_idle(t);
        // An interactive arrival that is *still* waiting after the
        // dispatch pass schedules a preemption attempt at this instant
        // (rank 6 — after same-instant completions, so a newly freed
        // engine serves it without preempting anyone).
        if let Some(pol) = &self.cfg.classes {
            if pol.preempt
                && self.req_class(id) == RequestClass::Interactive
                && self.queues.get(id).is_some()
            {
                self.preempts.push(Reverse((t, id)));
            }
        }
    }

    /// The dispatch steps arrivals and redrives share: pick request
    /// `id`'s engine at `t`, commit its format there, and price its cold
    /// estimate. With `admit`, admission control runs too and a shed
    /// request returns `None`.
    fn route(&mut self, id: usize, t: u64, admit: bool) -> Option<(usize, u64)> {
        let e = self.pick_engine(id, t);
        self.assign_format(e, id);
        let est = self.cold_est(e, id);
        if admit && self.shed_decision(t, e, est, id) {
            self.shed_request(id, t);
            return None;
        }
        Some((e, est))
    }

    /// Queues request `id` on engine `e` with service estimate `est`
    /// (and the warm accounting already done in exact-estimate mode).
    fn enqueue(&mut self, e: usize, id: usize, est: u64, exact: Option<ExactService>) {
        let q = Queued {
            id,
            arrival: self.arrival_of[id],
            est,
            exact,
        };
        self.queues.push(e, id, self.deadline(&q), q);
        let eng = &mut self.engines[e];
        eng.queued_est = eng.queued_est.saturating_add(est);
    }

    /// Removes queued request `id` from its engine's queue.
    fn unqueue(&mut self, id: usize) -> Queued {
        let (e, q) = self.queues.remove(id).expect("request is queued");
        self.engines[e].queued_est -= q.est;
        q
    }

    /// Sheds request `id` and releases its closed-loop client at `t`.
    fn shed_request(&mut self, id: usize, t: u64) {
        self.shed.push(ShedRecord {
            index: self.prepared[id].request.index,
            arrival: self.arrival_of[id],
        });
        self.schedule_next_client(id, t);
    }

    /// Un-records engine `e`'s in-flight service, aborted at `t`: the
    /// engine was genuinely occupied from start to `t` but rendered
    /// nothing, so the record, the unserved tail of its busy time, its
    /// served count and its warm counters come back out (the cache
    /// contents stay). Returns the aborted request. Callers bump the
    /// epoch and reset `next_free` themselves.
    fn rollback_in_flight(&mut self, e: usize, t: u64) -> Option<usize> {
        let fl = self.engines[e].in_flight.take()?;
        let idx = self.prepared[fl.id].request.index;
        let pos = self
            .records
            .iter()
            .rposition(|r| r.index == idx && r.finish == fl.finish && r.engine == e)
            .expect("in-flight request has a record");
        let rec = self.records.remove(pos);
        let eng = &mut self.engines[e];
        eng.busy -= fl.finish - t;
        eng.served -= 1;
        eng.warm.lines -= rec.warm.lines;
        eng.warm.hits -= rec.warm.hits;
        eng.warm.misses -= rec.warm.misses;
        Some(fl.id)
    }

    /// The engine whose in-service work a preemption at `t` would
    /// evict, if any (`None` unless deadline classes preempt): an
    /// available engine mid-service on a **batch** request with
    /// preemption budget left, the one finishing latest (most residual
    /// work reclaimed; ties to the lowest engine id). Admission control
    /// and [`Self::process_preempt`] share this one scan.
    fn preempt_victim(&self, t: u64) -> Option<usize> {
        let max_preemptions = match &self.cfg.classes {
            Some(pol) if pol.preempt => pol.max_preemptions,
            _ => return None,
        };
        self.engines
            .iter()
            .enumerate()
            .filter_map(|(e, eng)| {
                let fl = eng.in_flight.filter(|_| eng.available())?;
                (fl.finish > t
                    && self.req_class(fl.id) == RequestClass::Batch
                    && self.preempt_count[fl.id] < max_preemptions)
                    .then_some((fl.finish, Reverse(e)))
            })
            .max()
            .map(|(_, Reverse(e))| e)
    }

    /// Whether queued request `id` (which arrived at `arrival`) has
    /// already blown through its class deadline by dispatch time `t`.
    /// Serving it cannot meet the SLO, so a shedding class drops it
    /// from the queue instead of burning capacity on it.
    fn expired_at_dispatch(&self, id: usize, arrival: u64, t: u64) -> bool {
        match &self.cfg.classes {
            Some(pol) => {
                let class = self.req_class(id);
                pol.slo(class).shed && t > arrival.saturating_add(self.class_ddl[class.idx()])
            }
            None => false,
        }
    }

    /// Attempts to preempt an in-service batch request in favor of the
    /// still-waiting interactive request `id` (scheduled only when the
    /// deadline classes preempt). No-ops when the request already
    /// started (or terminated). The victim ([`Self::preempt_victim`])
    /// has its partial service rolled back exactly like a crash kill —
    /// the engine was genuinely occupied from start to `t` but rendered
    /// nothing — except its warm cache survives, so the re-queued batch
    /// work re-prices its residual against the rows it already pulled.
    /// The interactive request then starts on the freed engine
    /// immediately.
    fn process_preempt(&mut self, id: usize, t: u64) {
        // Stale event: the request already reached an engine.
        let Some((src, &Queued { est, .. })) = self.queues.get(id) else {
            return;
        };
        let Some(ve) = self.preempt_victim(t) else {
            // The victim promised at admission is gone (completed, or
            // taken by a same-instant preemption). Re-check the normal
            // deadline prediction so an optimistically admitted
            // interactive cannot strand in the backlog past its
            // deadline — it sheds now instead. The request itself
            // already sits in the holder's queue, so its own estimate
            // must come back out of the projection — otherwise the
            // deadline check double-counts its service.
            let wait_pred = self.engines[src]
                .projected_free()
                .saturating_sub(est)
                .saturating_sub(self.arrival_of[id]);
            let ddl = self.class_ddl[self.req_class(id).idx()];
            if wait_pred.saturating_add(est) > ddl {
                self.unqueue(id);
                self.shed_request(id, t);
            }
            return;
        };
        // Un-record the aborted service (the crash-kill rollback), but
        // keep the cache warm: the victim's rows stay resident.
        let vid = self.rollback_in_flight(ve, t).expect("victim in flight");
        self.engines[ve].epoch += 1; // the victim's pending completion dies stale
        self.engines[ve].next_free = t;
        self.preempt_count[vid] += 1;
        self.preemptions += 1;
        // The victim re-queues on its engine at the cold estimate; its
        // residual re-prices against the warm cache at restart.
        self.assign_format(ve, vid);
        let vest = self.cold_est(ve, vid);
        self.enqueue(ve, vid, vest, None);
        // Move the interactive request to the freed engine and start it
        // now (bypassing the queue discipline — that is the point).
        let q = self.unqueue(id);
        self.assign_format(ve, id);
        let finish = self.start_service(ve, id, q.arrival, t, None);
        if !self.hold_clients {
            self.schedule_next_client(id, finish);
        }
    }

    /// Starts queued work on every idle available engine (its own queue
    /// first, a stolen tail entry from the longest peer queue
    /// otherwise).
    fn dispatch_idle(&mut self, t: u64) {
        for e in 0..self.engines.len() {
            if !self.engines[e].available() || self.engines[e].next_free > t {
                continue; // down, parked, or mid-service
            }
            while let Some(q) = self.pop_next(e) {
                // Expiry shedding: a queued request whose class deadline
                // already passed (its engine sat out a fault, say) cannot
                // meet the SLO — a shedding class drops it at dispatch
                // rather than burn capacity on a guaranteed violation.
                if self.expired_at_dispatch(q.id, q.arrival, t) {
                    self.shed_request(q.id, t);
                    continue;
                }
                let start = t.max(self.engines[e].next_free);
                let finish = self.start_service(e, q.id, q.arrival, start, q.exact);
                // A request that may yet be killed or preempted releases
                // its closed-loop client at the completion *event*
                // instead (its outcome is not known here).
                if !self.hold_clients {
                    self.schedule_next_client(q.id, finish);
                }
                break;
            }
        }
    }

    /// A killed (or undeliverable) request either re-enters dispatch
    /// after the retry backoff or terminates as failed when its
    /// dispatch budget is spent (its class's budget under deadline
    /// classes).
    fn handle_kill(&mut self, id: usize, t: u64) {
        if self.attempts[id] >= self.max_attempts_of(id) {
            self.fail(id, t);
        } else {
            self.redrives.push(Reverse((
                t.saturating_add(self.cfg.retry.backoff_cycles),
                id,
            )));
        }
    }

    /// Terminal failure: record it and release the closed-loop client.
    fn fail(&mut self, id: usize, t: u64) {
        self.failed.push(FailedRecord {
            index: self.prepared[id].request.index,
            arrival: self.arrival_of[id],
            at: t,
            attempts: self.attempts[id],
        });
        self.schedule_next_client(id, t);
    }

    /// No engine can take the request now: park it until the next
    /// revival event (fault recovery or pending provision), or fail it
    /// when no revival is ever coming. Revival candidates are strictly
    /// in the future — same-instant recoveries and provisions sort
    /// before arrivals and redrives — so this always makes progress.
    fn defer_or_fail(&mut self, id: usize, t: u64) {
        let next_up = self.drill_events[self.drill_ptr..]
            .iter()
            .find(|ev| ev.1 == 0)
            .map(|ev| ev.0);
        let next_prov = self.provisions.peek().map(|Reverse((t, _))| *t);
        match next_up.into_iter().chain(next_prov).min() {
            Some(revival) => {
                // A same-instant revival can only be a provision pushed
                // while processing this very instant; it sorts before
                // the redrive (priority 2 < 4), so progress is made.
                debug_assert!(revival >= t, "revival events at {t} were already processed");
                self.redrives.push(Reverse((revival, id)));
            }
            None => self.fail(id, t),
        }
    }

    /// Redrive pop: dispatch a killed request again (bypassing SLO
    /// admission — it was already admitted), or run the first dispatch
    /// of an arrival that was deferred past a total outage (which still
    /// faces admission).
    fn process_redrive(&mut self, id: usize, t: u64) {
        if !self.any_available() {
            self.defer_or_fail(id, t);
            return;
        }
        let first_dispatch = self.attempts[id] == 0;
        let Some((e, est)) = self.route(id, t, first_dispatch) else {
            return;
        };
        self.attempts[id] += 1;
        if !first_dispatch {
            self.retries += 1;
        }
        // Redrives exist only under drills, which never run in
        // exact-estimate mode: queue at the cold estimate.
        self.enqueue(e, id, est, None);
        self.dispatch_idle(t);
    }

    /// Fault-down: the engine drops its in-flight request and queue
    /// (both re-enter dispatch via the retry policy), bumps its epoch so
    /// pending completion events die with it, and closes its
    /// availability interval.
    fn crash(&mut self, e: usize, t: u64) {
        if !self.engines[e].up {
            return; // overlapping scripted outages merge
        }
        self.incidents += 1;
        self.close_uptime(e, t);
        self.engines[e].up = false;
        self.engines[e].epoch += 1;
        if let Some(id) = self.rollback_in_flight(e, t) {
            self.handle_kill(id, t);
        }
        self.engines[e].next_free = t;
        let killed = self.queues.drain(e);
        self.engines[e].queued_est = 0;
        for q in killed {
            self.handle_kill(q.id, t);
        }
    }

    /// Fault-up: the engine returns **cold** (its cache power-cycled)
    /// and immediately joins dispatch.
    fn recover(&mut self, e: usize, t: u64) {
        if self.engines[e].up {
            return; // merged overlapping outage already recovered
        }
        self.engines[e].up = true;
        self.engines[e].mem.flush();
        self.engines[e].next_free = t;
        self.open_uptime(e, t);
        self.update_peak();
        self.dispatch_idle(t);
    }

    /// Scale-up provision completed: the engine joins the fleet cold.
    fn provision_complete(&mut self, e: usize, t: u64) {
        let eng = &mut self.engines[e];
        eng.provisioning = false;
        eng.active = true;
        eng.mem.flush();
        eng.next_free = eng.next_free.max(t);
        self.open_uptime(e, t);
        self.update_peak();
        self.dispatch_idle(t);
    }

    /// Backlog-pressure autoscaling, evaluated after every event:
    /// outstanding work (queued estimates + unfinished service) per
    /// available engine, in mean cold services. Above `up_pressure` the
    /// lowest-id parked engine starts provisioning; below
    /// `down_pressure` the highest-id idle engine parks. Pending
    /// provisions count as capacity so one backlog spike does not
    /// provision the whole reserve, and a cooldown separates decisions.
    fn evaluate_scaling(&mut self, t: u64) {
        let pol = self.cfg.autoscale.clone().expect("autoscale is on");
        if t < self.cooldown_until {
            return;
        }
        let pending = self.engines.iter().filter(|e| e.provisioning).count();
        let pressure = self.backlog_pressure(t, pending);
        let active = self.engines.iter().filter(|e| e.active).count();
        if pressure > pol.up_pressure && active + pending < self.engines.len() {
            if let Some(e) = self
                .engines
                .iter()
                .position(|e| !e.active && !e.provisioning)
            {
                self.engines[e].provisioning = true;
                self.provisions
                    .push(Reverse((t.saturating_add(self.prov_delay), e)));
                self.cooldown_until = t.saturating_add(self.cooldown_cycles);
            }
        } else if pressure < pol.down_pressure && active > pol.min_engines && pending == 0 {
            // Park the highest-id engine that is truly idle.
            if let Some(e) = (0..self.engines.len()).rev().find(|&e| {
                let eng = &self.engines[e];
                eng.available()
                    && eng.in_flight.is_none()
                    && self.queues.is_empty(e)
                    && eng.next_free <= t
            }) {
                self.close_uptime(e, t);
                self.engines[e].active = false;
                self.cooldown_until = t.saturating_add(self.cooldown_cycles);
            }
        }
    }

    /// Brownout, evaluated at the same instant boundaries as
    /// autoscaling (and with the same backlog-pressure signal): above
    /// `down_pressure` the fleet steps **down** one rung of the
    /// [`DegradeMode`] ladder, below `up_pressure` it recovers one
    /// rung, with a cooldown between changes. One rung per boundary, so
    /// the mode trajectory is monotone between reversals — the ladder
    /// never skips a rung.
    fn evaluate_degrade(&mut self, t: u64) {
        let pol = self.cfg.degrade.clone().expect("brownout is armed");
        if t < self.degrade_cooldown_until {
            return;
        }
        let pressure = self.backlog_pressure(t, 0);
        let next = if pressure > pol.down_pressure {
            self.degrade_mode.down()
        } else if pressure < pol.up_pressure {
            self.degrade_mode.up()
        } else {
            self.degrade_mode
        };
        if next != self.degrade_mode {
            self.mode_log.push((t, next));
            self.degrade_mode = next;
            self.degrade_cooldown_until = t.saturating_add(self.degrade_cooldown_cycles);
        }
    }

    /// The backlog-pressure signal autoscaling and brownout share:
    /// outstanding work (queued estimates + unfinished service) on the
    /// available engines at `t`, in mean cold services per engine of
    /// capacity — the available engines plus `extra` (autoscale's
    /// pending provisions). With no capacity it is infinite while any
    /// work remains, zero otherwise.
    fn backlog_pressure(&self, t: u64, extra: usize) -> f64 {
        let available = self.engines.iter().filter(|e| e.available()).count();
        let outstanding: u64 = self
            .engines
            .iter()
            .filter(|e| e.available())
            .map(|e| e.queued_est.saturating_add(e.next_free.saturating_sub(t)))
            .sum();
        let capacity = (available + extra) as f64 * self.mean_service;
        if capacity > 0.0 {
            outstanding as f64 / capacity
        } else if outstanding > 0 || !self.redrives.is_empty() || self.peek_arrival().is_some() {
            f64::INFINITY
        } else {
            0.0
        }
    }

    /// Closes engine `e`'s availability interval at `t`.
    fn close_uptime(&mut self, e: usize, t: u64) {
        if let Some(since) = self.engines[e].up_since.take() {
            self.engines[e].up_intervals.push((since, t));
        }
    }

    /// Opens engine `e`'s availability interval at `t` if it is
    /// available and none is open.
    fn open_uptime(&mut self, e: usize, t: u64) {
        if self.engines[e].available() && self.engines[e].up_since.is_none() {
            self.engines[e].up_since = Some(t);
        }
    }

    /// Tracks the largest simultaneously-available fleet.
    fn update_peak(&mut self) {
        let now = self.engines.iter().filter(|e| e.available()).count();
        self.peak_available = self.peak_available.max(now);
    }

    /// The next request engine `e` should serve: its own queue in
    /// discipline order, else (with work stealing) the tail of the
    /// longest peer queue (ties to the lowest peer id).
    fn pop_next(&mut self, e: usize) -> Option<Queued> {
        debug_assert_eq!(
            self.queues.next(e).map(|q| q.id),
            self.discipline_pick(e),
            "the indexed pick disagrees with the linear discipline scan"
        );
        let (src, q) = match self.queues.pop_next(e) {
            Some(q) => (e, q),
            None if self.stealing => {
                let victim = (0..self.engines.len())
                    .filter(|&v| !self.queues.is_empty(v))
                    .max_by_key(|&v| (self.queues.len(v), Reverse(v)))?;
                let q = self
                    .queues
                    .pop_back(victim)
                    .expect("victim queue is non-empty");
                (victim, q)
            }
            None => return None,
        };
        self.engines[src].queued_est -= q.est;
        Some(q)
    }

    /// Queued request `q`'s absolute deadline, the key the discipline
    /// serves by: its class's deadline under deadline classes (for
    /// **every** policy, so an interactive request overtakes queued
    /// batch work), the run's SLO under `slo-aware`. Without an SLO
    /// every deadline saturates and EDF degenerates to id order — FIFO.
    /// Other runs serve assignment order and never read it.
    fn deadline(&self, q: &Queued) -> u64 {
        let ddl = match (&self.cfg.classes, self.cfg.policy) {
            (Some(_), _) => self.class_ddl[self.req_class(q.id).idx()],
            (None, SchedPolicy::SloAware) => self.cfg.slo.map_or(u64::MAX, |s| s.deadline_cycles),
            (None, _) => u64::MAX,
        };
        q.arrival.saturating_add(ddl)
    }

    /// The linear reference for [`EngineQueues::next`]: a scan of
    /// engine `e`'s queue in assignment order for the earliest
    /// `(deadline, id)` under EDF, the front otherwise. Debug builds
    /// check every pop against it.
    fn discipline_pick(&self, e: usize) -> Option<usize> {
        let mut queue = self.queues.iter(e);
        if self.cfg.classes.is_none() && !self.cfg.policy.reorders_queue() {
            return queue.next().map(|q| q.id);
        }
        queue.min_by_key(|q| (self.deadline(q), q.id)).map(|q| q.id)
    }
}

/// Runs the serial event loop over a prepared stream.
///
/// `feature_row_bytes` is the byte size of one input-feature row (the
/// unit pulled through an engine's warm cache per sampled vertex);
/// [`feature_row_bytes`] derives it from the serving context.
///
/// # Panics
///
/// Panics on a configuration [`QueueConfig::check`] rejects, or one the
/// prepared stream cannot serve:
///
/// - the prepared requests do not share one format palette
///   ([`PreparedRequest::palette`]), or a fixed format policy names a
///   format outside it;
/// - a lineup run's request lacks its per-(class, format) cold reports;
/// - a brownout run's request lacks its lite reports (one per lineup
///   class);
/// - a recorded arrival trace's length disagrees with the stream.
pub fn simulate_queue(
    prepared: &[PreparedRequest],
    cfg: &QueueConfig,
    hw: &HwConfig,
    feature_row_bytes: u64,
) -> QueueOutcome {
    cfg.check();
    // The prepared stream's format palette: every request must share
    // it, and the fixed-format policy must name one of its columns.
    let palette = prepared
        .first()
        .map_or(&[ServeFormat::Native][..], PreparedRequest::palette);
    assert!(
        prepared.iter().all(|p| p.palette() == palette),
        "every prepared request must share one format palette"
    );
    let fixed_fmt = match cfg.format {
        FormatPolicy::Fixed(f) => Some(palette.iter().position(|&g| g == f).unwrap_or_else(|| {
            panic!(
                "format {:?} is not in the prepared palette {:?} — prepare with prepare_for \
                 under this format policy",
                f.label(),
                palette.iter().map(ServeFormat::label).collect::<Vec<_>>()
            )
        })),
        FormatPolicy::Adaptive => None,
    };
    // One hardware table prices every engine: the lineup's classes, or —
    // for the scalar fleet — one class on the run's platform, scaled per
    // engine. The scalar class warms the full Table III cache
    // (`CacheConfig::default()`, 512 KB) rather than `hw.cache`: serving
    // engines keep input-feature rows resident across requests, unlike
    // the scaled-down experiment caches, which model intermediate
    // working sets.
    let (class_hw, engine_hw): (Vec<HwConfig>, Vec<(usize, f64)>) = match &cfg.lineup {
        Some(lineup) => (
            lineup.classes.iter().map(|c| c.hw).collect(),
            lineup.assignment.iter().map(|&k| (k, 1.0)).collect(),
        ),
        None => (
            vec![HwConfig {
                cache: CacheConfig::default(),
                ..*hw
            }],
            cfg.fleet.scales.iter().map(|&s| (0, s)).collect(),
        ),
    };
    if cfg.lineup.is_some() {
        for p in prepared {
            assert_eq!(
                p.class_reports.len(),
                class_hw.len() * palette.len(),
                "a lineup run needs per-(class, format) cold reports — prepare with \
                 prepare_for under this lineup"
            );
        }
    }
    if cfg.degrade.is_some() {
        for p in prepared {
            assert_eq!(
                p.lite_reports.len(),
                class_hw.len(),
                "brownout needs reduced-fanout lite cold reports — prepare with prepare_degraded"
            );
        }
    }
    let n = prepared.len();
    // Arrival rate calibrated to the stream's own mean cold service time
    // on a reference engine: ρ = offered_load of the fleet's aggregate
    // reference capacity.
    let mean_service = if n == 0 {
        0.0
    } else {
        prepared.iter().map(|p| p.report.cycles as f64).sum::<f64>() / n as f64
    };
    let mean_gap = mean_service / (cfg.engines as f64 * cfg.offered_load);

    let source = if let Some(trace) = &cfg.trace {
        // Replay: the recorded timeline *is* the arrival source, no
        // matter which model generated it (a recorded closed loop
        // replays open — the recording already contains the feedback).
        assert_eq!(
            trace.len(),
            n,
            "arrival trace length must match the prepared stream"
        );
        Source::Open {
            times: trace.times.clone(),
            ptr: 0,
        }
    } else {
        match cfg.traffic {
            TrafficModel::ClosedLoop { clients } => {
                // Interactive-response-time calibration: K clients cycling
                // through think + response approach throughput K/(Z + R);
                // targeting ρ of the fleet's reference capacity with R ≈ one
                // mean service gives Z = S·(K/(N·ρ) − 1), clamped at 0 (more
                // clients than the target supports simply saturate).
                let think_mean = (mean_service
                    * (clients as f64 / (cfg.engines as f64 * cfg.offered_load) - 1.0))
                    .max(0.0);
                let mut ready = BinaryHeap::with_capacity(clients);
                for c in 0..clients {
                    ready.push(Reverse((0u64, c)));
                }
                Source::Closed {
                    ready,
                    cursor: 0,
                    limit: n,
                    think: ThinkTimes::new(cfg.seed, think_mean),
                    client_of: vec![0; n],
                }
            }
            _ => Source::Open {
                times: cfg
                    .traffic
                    .open_loop(cfg.seed, mean_gap)
                    .expect("open-loop model")
                    .timeline(n),
                ptr: 0,
            },
        }
    };

    // Warm hits displace DRAM fetches; the shaved service time is the
    // avoided bytes at the class's effective bandwidth. Rows are
    // line-aligned in the warm-cache address space: padding the stride
    // to a line multiple keeps adjacent vertex ids from sharing a
    // boundary line, so a cold engine reports zero warm hits even when
    // the row size is not a multiple of the line size (the line count
    // per row is unchanged — an aligned row touches ⌈row/line⌉ lines
    // either way).
    let pricing: Vec<ClassPricing> = class_hw
        .iter()
        .map(|h| ClassPricing::new(h, feature_row_bytes))
        .collect();
    // Affinity slack: the warm engine may run ahead of the least-loaded
    // one by at most two mean cold services before the policy falls back
    // to balancing (bounded-load affinity — pure greedy routing would
    // starve the rest of the fleet behind one hot engine).
    let affinity_slack = affinity_slack_cycles(mean_service);

    // The starting fleet: everything, or the autoscale floor.
    let initial_active = cfg
        .autoscale
        .as_ref()
        .map_or(cfg.engines, |p| p.min_engines);
    // Each engine runs its class's cache geometry, DRAM and cache engine.
    let engines: Vec<Engine> = engine_hw
        .iter()
        .enumerate()
        .map(|(e, &(class, scale))| {
            let active = e < initial_active;
            let h = &class_hw[class];
            Engine {
                mem: engine_memory(h, &pricing[class], cfg.policy),
                next_free: 0,
                queued_est: 0,
                busy: 0,
                served: 0,
                warm: SpanCounts::default(),
                scale,
                class,
                epoch: 0,
                up: true,
                active,
                provisioning: false,
                in_flight: None,
                up_since: active.then_some(0),
                up_intervals: Vec::new(),
            }
        })
        .collect();

    // The fault schedule, materialized against the stream's own mean
    // cold service (pure in `(model, seed, engines, mean)`). Recoveries
    // sort before crashes at equal instants — see `QueueSim::run`.
    let plan = cfg.faults.materialize(cfg.seed, cfg.engines, mean_service);
    let mut drill_events: Vec<(u64, u8, usize)> = Vec::with_capacity(2 * plan.incidents().len());
    for inc in plan.incidents() {
        drill_events.push((inc.down_at, 1, inc.engine));
        drill_events.push((inc.up_at, 0, inc.engine));
    }
    drill_events.sort_unstable();

    let drills = cfg.has_drills();
    let (prov_delay, cooldown_cycles) = match &cfg.autoscale {
        Some(p) => (
            (p.provision_services * mean_service).round() as u64,
            (p.cooldown_services * mean_service).round() as u64,
        ),
        None => (0, 0),
    };
    let stealing = cfg.stealing();
    // Deadline classes reorder every queue (per-class EDF) and brownout
    // re-prices service at start time, so neither knows service order
    // at assignment.
    let lab = cfg.classes.is_some() || cfg.degrade.is_some();
    // A run whose service order provably equals assignment order
    // accounts warm caches at assignment (exact-estimate mode).
    let exact_est = !drills && !stealing && !cfg.policy.reorders_queue() && !lab;
    // Deadline classes and `slo-aware` serve each queue earliest
    // deadline first.
    let edf = cfg.classes.is_some() || cfg.policy.reorders_queue();
    // The cost model is fitted (serially, in stream order) only when
    // routing actually has distinct cells to predict for: cost-aware
    // engine choice or adaptive format choice, under a lineup.
    let adaptive = matches!(cfg.format, FormatPolicy::Adaptive);
    let cost = (cfg.lineup.is_some() && (cfg.policy == SchedPolicy::CostAware || adaptive))
        .then(|| CostModel::fit(prepared, class_hw.len()));
    let peak_available = engines.iter().filter(|e| e.available()).count();
    // Per-request deadline classes and their materialized deadlines
    // (pure in seed × index, so replay and the summary agree).
    let classes: Vec<RequestClass> = match &cfg.classes {
        Some(pol) => prepared
            .iter()
            .map(|p| class_of(cfg.seed, p.request.index, pol.interactive_frac))
            .collect(),
        None => Vec::new(),
    };
    let class_ddl = cfg
        .classes
        .as_ref()
        .map_or([0, 0], |pol| class_deadlines(pol, mean_service));
    // The brownout ladder's first rung: the palette column with the
    // lowest mean cold cycles across every prepared cell (ties to the
    // lowest index — native first in the standard palette).
    let cheapest_fmt = if cfg.degrade.is_some() && !prepared.is_empty() {
        let class_count = class_hw.len();
        let pal_len = palette.len();
        (0..pal_len)
            .min_by_key(|&f| {
                let total: u64 = prepared
                    .iter()
                    .flat_map(|p| {
                        (0..class_count).map(move |c| p.class_reports[c * pal_len + f].cycles)
                    })
                    .sum();
                (total, f)
            })
            .expect("palette is non-empty")
    } else {
        0
    };
    let degrade_cooldown_cycles = cfg
        .degrade
        .as_ref()
        .map_or(0, |p| (p.cooldown_services * mean_service).round() as u64);
    // Sharded store: per-request sampled-vertex bitmaps over the plan's
    // vertex space, built once in stream order (serial — deterministic
    // at any thread count). Every sampled id must fall inside the
    // plan's store.
    let req_bits: Vec<Bitmap> = match &cfg.sharding {
        Some(plan) => prepared
            .iter()
            .map(|p| {
                for &v in &p.vertices {
                    assert!(
                        (v as usize) < plan.vertices(),
                        "sampled vertex {v} outside the shard plan's {}-vertex store",
                        plan.vertices()
                    );
                }
                plan.request_residency(&p.vertices)
            })
            .collect(),
        None => Vec::new(),
    };
    let mut sim = QueueSim {
        prepared,
        cfg,
        engines,
        queues: EngineQueues::new(cfg.engines, n, edf),
        records: Vec::with_capacity(n),
        shed: Vec::new(),
        failed: Vec::new(),
        completions: BinaryHeap::new(),
        source,
        pricing,
        cost,
        palette,
        fixed_fmt,
        chosen_fmt: vec![0; n],
        predicted: vec![0; n],
        stealing,
        exact_est,
        affinity_slack,
        drills,
        hold_clients: drills || cfg.classes.is_some_and(|c| c.preempt),
        drill_events,
        drill_ptr: 0,
        provisions: BinaryHeap::new(),
        redrives: BinaryHeap::new(),
        attempts: vec![0; n],
        arrival_of: vec![0; n],
        mean_service,
        prov_delay,
        cooldown_cycles,
        cooldown_until: 0,
        incidents: 0,
        retries: 0,
        peak_available,
        classes,
        class_ddl,
        preempts: BinaryHeap::new(),
        preempt_count: vec![0; n],
        preemptions: 0,
        degrade_armed: cfg.degrade.is_some(),
        degrade_mode: DegradeMode::Full,
        mode_log: vec![(0, DegradeMode::Full)],
        degrade_cooldown_cycles,
        degrade_cooldown_until: 0,
        cheapest_fmt,
        req_bits,
    };
    sim.run();

    let QueueSim {
        mut engines,
        mut records,
        mut shed,
        mut failed,
        incidents,
        retries,
        peak_available,
        palette,
        preemptions,
        mode_log,
        class_ddl,
        ..
    } = sim;
    // Records arrive in service-start order. Indices are unique, so an
    // unstable sort gives stream order without a stream-sized buffer.
    records.sort_unstable_by_key(|r| r.index);
    shed.sort_unstable_by_key(|s| s.index);
    failed.sort_unstable_by_key(|f| f.index);
    assert_eq!(records.len() + shed.len() + failed.len(), n, "conservation");

    // Availability is defined over [0, makespan]: close every open
    // interval there and clip the closed ones (a fault event can be
    // processed past the last completion when a later arrival sheds).
    let makespan = records.iter().map(|r| r.finish).max().unwrap_or(0);
    for eng in &mut engines {
        if let Some(since) = eng.up_since.take() {
            eng.up_intervals.push((since, u64::MAX));
        }
    }
    let engine_uptime: Vec<u64> = engines
        .iter()
        .map(|e| {
            e.up_intervals
                .iter()
                .map(|&(s, t)| t.min(makespan).saturating_sub(s.min(makespan)))
                .sum()
        })
        .collect();

    let engine_busy: Vec<u64> = engines.iter().map(|e| e.busy).collect();
    let engine_served: Vec<u64> = engines.iter().map(|e| e.served).collect();
    let engine_warm: Vec<SpanCounts> = engines.iter().map(|e| e.warm).collect();
    let drill_stats = DrillStats {
        incidents,
        retries,
        peak_engines: peak_available,
    };
    // Residency per rung over [0, makespan]: a rung change processed
    // past the last completion (a late failure or shed keeps the loop
    // running) clips to nothing, so the rungs partition the makespan.
    let mut mode_residency = [0u64; DegradeMode::COUNT];
    if cfg.degrade.is_some() {
        for (i, &(since, mode)) in mode_log.iter().enumerate() {
            let until = mode_log.get(i + 1).map_or(makespan, |&(t, _)| t);
            mode_residency[mode.idx()] += until.min(makespan).saturating_sub(since.min(makespan));
        }
    }
    let lab_stats = LabStats {
        preemptions,
        mode_cycles: mode_residency,
        class_ddl,
    };
    let summary = QueueSummary::from_run(
        &records,
        &shed,
        &failed,
        &engine_busy,
        &engine_uptime,
        &drill_stats,
        &lab_stats,
        cfg,
        palette,
    );
    QueueOutcome {
        records,
        shed,
        failed,
        engine_busy,
        engine_served,
        engine_warm,
        engine_uptime,
        summary,
    }
}

/// Prepares `requests` the way `cfg` needs them: [`prepare`] on `hw`
/// without a lineup. With one, every request's cold service is
/// simulated once per lineup class × palette format inside the same
/// parallel, stream-ordered phase, filling
/// [`PreparedRequest::class_reports`] row-major by class: the native
/// column under `fixed:native`, the full [`ServeFormat::PALETTE`] under
/// any other format policy, and [`prepare_degraded`]'s lite reports on
/// top when a brownout ladder is armed. Each distinct vertex builds its
/// workload **once** — with every non-native palette encoding pre-built
/// through the workload's shared format cache — so widening the palette
/// adds simulations per cell but never re-encodes a boundary per class.
/// The reference report (`report`) is class 0 in native, so arrival
/// calibration does not depend on the palette.
pub fn prepare_for(
    ctx: &ServingContext,
    requests: &[Request],
    model: &AccelModel,
    hw: &HwConfig,
    cfg: &QueueConfig,
) -> Vec<PreparedRequest> {
    let Some(lineup) = &cfg.lineup else {
        return prepare(ctx, requests, model, hw);
    };
    if cfg.degrade.is_some() {
        return prepare_degraded(ctx, requests, model, lineup, &ServeFormat::PALETTE);
    }
    let formats: &[ServeFormat] = if cfg.format == FormatPolicy::Fixed(ServeFormat::Native) {
        &[ServeFormat::Native]
    } else {
        &ServeFormat::PALETTE
    };
    let hws: Vec<HwConfig> = lineup.classes.iter().map(|c| c.hw).collect();
    prepare_cells(ctx, requests, model, &hws, formats, true, false)
}

/// Byte size of one input-feature row of the context's dataset (f32
/// elements) — the warm-cache unit per sampled vertex.
pub fn feature_row_bytes(ctx: &ServingContext) -> u64 {
    ctx.dataset.input_features as u64 * 4
}

/// Aggregate view of a queueing run: the SLO percentiles over queueing
/// delay and end-to-end latency (completed requests only), shed and
/// violation accounting, fleet utilization, and warm-cache reuse.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueSummary {
    /// Requests offered (completed + shed).
    pub requests: usize,
    /// Engine count.
    pub engines: usize,
    /// Policy label.
    pub policy: &'static str,
    /// Offered load ρ.
    pub offered_load: f64,
    /// Traffic-model label.
    pub traffic: String,
    /// Fleet label.
    pub fleet: String,
    /// Deadline budget (cycles); 0 when no SLO is configured.
    pub deadline_cycles: u64,
    /// Requests served to completion.
    pub completed: usize,
    /// Requests rejected at admission.
    pub shed: u64,
    /// `shed / requests` (0 when nothing offered).
    pub shed_rate: f64,
    /// Completed requests whose end-to-end latency exceeded the
    /// deadline (0 without an SLO).
    pub violations: u64,
    /// `violations / completed` (0 when nothing completed).
    pub violation_rate: f64,
    /// Last finish time (cycles); 0 for an empty or fully-shed stream.
    pub makespan_cycles: u64,
    /// Mean queueing delay (completed requests).
    pub mean_wait_cycles: f64,
    /// Median queueing delay.
    pub p50_wait_cycles: u64,
    /// 95th-percentile queueing delay.
    pub p95_wait_cycles: u64,
    /// 99th-percentile queueing delay.
    pub p99_wait_cycles: u64,
    /// Worst queueing delay.
    pub max_wait_cycles: u64,
    /// Mean end-to-end latency (completed requests).
    pub mean_e2e_cycles: f64,
    /// Median end-to-end latency.
    pub p50_e2e_cycles: u64,
    /// 95th-percentile end-to-end latency.
    pub p95_e2e_cycles: u64,
    /// 99th-percentile end-to-end latency.
    pub p99_e2e_cycles: u64,
    /// Worst end-to-end latency.
    pub max_e2e_cycles: u64,
    /// Completed requests per second at 1 GHz over the makespan (0 when
    /// empty).
    pub throughput_rps: f64,
    /// Mean fleet utilization: busy cycles / (engines × makespan), in
    /// `[0, 1]` (0 when empty).
    pub utilization: f64,
    /// Feature lines pulled through warm caches.
    pub warm_lines: u64,
    /// Lines already resident (reuse across requests).
    pub warm_hits: u64,
    /// `warm_hits / warm_lines` (0 when no lines).
    pub warm_hit_rate: f64,
    /// Failure-model label (`none` without a drill).
    pub faults: String,
    /// Retry-policy label.
    pub retry: String,
    /// Autoscale label (`none` for a static fleet).
    pub autoscale: String,
    /// Engine crashes that actually fired.
    pub incidents: u64,
    /// Redrive dispatches of fault-killed requests.
    pub retries: u64,
    /// Requests that exhausted their retry budget.
    pub failed: u64,
    /// `failed / requests` (0 when nothing offered).
    pub failed_rate: f64,
    /// Fleet availability: uptime cycles / (engines × makespan), in
    /// `[0, 1]` (1.0 for a drill-free run, 0 when empty).
    pub availability: f64,
    /// Largest simultaneously-available fleet observed.
    pub peak_engines: usize,
    /// Fleet price in cost units: the lineup's summed class costs, or
    /// one unit per engine on the legacy scalar path.
    pub cost_units: f64,
    /// Format-policy label (`fixed:native` on the legacy path).
    pub format_policy: String,
    /// Completed requests per palette format, in palette order
    /// (`(label, count)` pairs).
    pub format_dispatch: Vec<(String, u64)>,
    /// Mean relative error of the dispatcher's routing-time service
    /// prediction against the actual warm-adjusted service, over
    /// completed requests (0 when nothing completed).
    pub format_pred_err: f64,
    /// Class-policy label (`none` when deadline classes are off).
    pub classes: String,
    /// Degrade-policy label (`none` when brownout is off).
    pub degrade: String,
    /// Batch requests preempted by arriving interactive requests.
    pub preemptions: u64,
    /// Completed requests served in a degraded configuration (pinned
    /// cheap format or lite fanouts).
    pub degraded: u64,
    /// Cycles the fleet spent on each degradation rung (full,
    /// cheap-fixed, lite), clipped at the makespan.
    pub mode_cycles: [u64; DegradeMode::COUNT],
    /// Completed requests per class (interactive, batch).
    pub class_completed: [u64; RequestClass::COUNT],
    /// Shed requests per class.
    pub class_shed: [u64; RequestClass::COUNT],
    /// Failed requests per class.
    pub class_failed: [u64; RequestClass::COUNT],
    /// Completed requests over their class deadline (0 without classes).
    pub class_violations: [u64; RequestClass::COUNT],
    /// 99th-percentile end-to-end latency per class, completed requests
    /// only (0 for an empty class).
    pub class_p99_e2e: [u64; RequestClass::COUNT],
    /// Shard-plan label (`none` without a sharded store).
    pub shards: String,
    /// Cross-shard feature bytes moved over the interconnect
    /// (completed requests).
    pub net_bytes: u64,
    /// Cycles spent on cross-shard fetches (round trips + transfer).
    pub net_cycles: u64,
    /// Fraction of sampled rows fetched from a remote shard, over
    /// completed requests (0 without sharding or an empty stream).
    pub remote_rate: f64,
}

/// Drill counters threaded from the event loop into the summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrillStats {
    /// Engine crashes that actually fired.
    pub incidents: u64,
    /// Redrive dispatches.
    pub retries: u64,
    /// Largest simultaneously-available fleet.
    pub peak_engines: usize,
}

/// Scenario-lab counters (deadline classes + brownout) threaded from
/// the event loop into the summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabStats {
    /// Batch requests preempted by interactive arrivals.
    pub preemptions: u64,
    /// Cycles spent on each degradation rung, clipped at the makespan
    /// (all zero when brownout is off).
    pub mode_cycles: [u64; DegradeMode::COUNT],
    /// Per-class deadline budget in cycles (zero when classes are off).
    pub class_ddl: [u64; RequestClass::COUNT],
}

impl QueueSummary {
    /// Aggregates a run. Percentiles, makespan, throughput and warm
    /// stats cover **completed** requests only; shed and failed requests
    /// contribute to their own accounting alone. An empty — or fully
    /// shed, or fully failed — stream yields the all-zero latency
    /// block: every ratio has a zero-denominator guard (including
    /// utilization and availability over zero-uptime fleets), so no
    /// field is ever `inf`/`NaN`.
    #[allow(clippy::too_many_arguments)]
    pub fn from_run(
        records: &[RequestTiming],
        shed: &[ShedRecord],
        failed: &[FailedRecord],
        engine_busy: &[u64],
        engine_uptime: &[u64],
        drill: &DrillStats,
        lab: &LabStats,
        cfg: &QueueConfig,
        formats: &[ServeFormat],
    ) -> Self {
        let formats = if formats.is_empty() {
            &[ServeFormat::Native][..]
        } else {
            formats
        };
        let completed = records.len();
        let offered = completed + shed.len() + failed.len();
        let mut waits: Vec<u64> = records.iter().map(|r| r.wait_cycles()).collect();
        let mut e2es: Vec<u64> = records.iter().map(|r| r.e2e_cycles()).collect();
        waits.sort_unstable();
        e2es.sort_unstable();
        let makespan = records.iter().map(|r| r.finish).max().unwrap_or(0);
        let busy: u64 = engine_busy.iter().sum();
        let uptime: u64 = engine_uptime.iter().sum();
        let mut warm = SpanCounts::default();
        for r in records {
            warm.add(r.warm);
        }
        let slo_stats = SloStats {
            offered: offered as u64,
            completed: completed as u64,
            shed: shed.len() as u64,
            violations: match &cfg.slo {
                Some(slo) => records
                    .iter()
                    .filter(|r| slo.violated(r.e2e_cycles()))
                    .count() as u64,
                None => 0,
            },
        };
        let div = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let mut dispatch: Vec<(String, u64)> = formats
            .iter()
            .map(|f| (f.label().to_string(), 0u64))
            .collect();
        if cfg.degrade.is_some() {
            // Lite reports are a pseudo-format one past the palette.
            dispatch.push(("lite".to_string(), 0));
        }
        let mut err_sum = 0.0;
        let mut degraded = 0u64;
        let mut net_bytes = 0u64;
        let mut net_cycles = 0u64;
        let mut remote_rows = 0u64;
        let mut sampled_rows = 0u64;
        for r in records {
            let slot = r.format.min(dispatch.len() - 1);
            dispatch[slot].1 += 1;
            let actual = r.service_cycles.max(1) as f64;
            err_sum += (r.predicted_cycles as f64 - actual).abs() / actual;
            degraded += u64::from(r.degraded);
            net_bytes += r.net.bytes;
            net_cycles += r.net.cycles;
            remote_rows += r.net.remote_vertices;
            sampled_rows += r.sampled_vertices;
        }
        // Per-class partitions re-derive each request's class from the
        // seeded hash, so shed and failed records need no extra field.
        let mut class_completed = [0u64; RequestClass::COUNT];
        let mut class_shed = [0u64; RequestClass::COUNT];
        let mut class_failed = [0u64; RequestClass::COUNT];
        let mut class_violations = [0u64; RequestClass::COUNT];
        let mut class_p99_e2e = [0u64; RequestClass::COUNT];
        if let Some(pol) = &cfg.classes {
            let frac = pol.interactive_frac;
            let mut class_e2e: [Vec<u64>; RequestClass::COUNT] = [Vec::new(), Vec::new()];
            for r in records {
                let c = class_of(cfg.seed, r.index, frac).idx();
                class_completed[c] += 1;
                let e2e = r.e2e_cycles();
                class_e2e[c].push(e2e);
                if e2e > lab.class_ddl[c] {
                    class_violations[c] += 1;
                }
            }
            for s in shed {
                class_shed[class_of(cfg.seed, s.index, frac).idx()] += 1;
            }
            for f in failed {
                class_failed[class_of(cfg.seed, f.index, frac).idx()] += 1;
            }
            for (c, e2es) in class_e2e.iter_mut().enumerate() {
                e2es.sort_unstable();
                class_p99_e2e[c] = percentile(e2es, 99);
            }
        }
        QueueSummary {
            requests: offered,
            engines: cfg.engines,
            policy: cfg.policy.label(),
            offered_load: cfg.offered_load,
            // A replayed run reports the label of the traffic that was
            // recorded, so a faithful replay renders identical bytes.
            traffic: cfg
                .trace
                .as_ref()
                .map(|t| t.traffic.clone())
                .unwrap_or_else(|| cfg.traffic.label()),
            fleet: cfg.fleet_label(),
            deadline_cycles: cfg.slo.map(|s| s.deadline_cycles).unwrap_or(0),
            completed,
            shed: slo_stats.shed,
            shed_rate: slo_stats.shed_rate(),
            violations: slo_stats.violations,
            violation_rate: slo_stats.violation_rate(),
            makespan_cycles: makespan,
            mean_wait_cycles: div(waits.iter().sum::<u64>() as f64, completed as f64),
            p50_wait_cycles: percentile(&waits, 50),
            p95_wait_cycles: percentile(&waits, 95),
            p99_wait_cycles: percentile(&waits, 99),
            max_wait_cycles: waits.last().copied().unwrap_or(0),
            mean_e2e_cycles: div(e2es.iter().sum::<u64>() as f64, completed as f64),
            p50_e2e_cycles: percentile(&e2es, 50),
            p95_e2e_cycles: percentile(&e2es, 95),
            p99_e2e_cycles: percentile(&e2es, 99),
            max_e2e_cycles: e2es.last().copied().unwrap_or(0),
            throughput_rps: div(completed as f64 * 1e9, makespan as f64),
            // Busy over *uptime*: a drill-free fleet's uptime is exactly
            // engines × makespan, reproducing the legacy ratio bit for
            // bit; a drilled fleet is not billed for its downtime.
            utilization: div(busy as f64, uptime as f64),
            warm_lines: warm.lines,
            warm_hits: warm.hits,
            warm_hit_rate: div(warm.hits as f64, warm.lines as f64),
            faults: cfg.faults.label(),
            retry: cfg.retry.label(),
            autoscale: cfg
                .autoscale
                .as_ref()
                .map_or_else(|| "none".to_string(), ScalePolicy::label),
            incidents: drill.incidents,
            retries: drill.retries,
            failed: failed.len() as u64,
            failed_rate: div(failed.len() as f64, offered as f64),
            availability: div(uptime as f64, cfg.engines as f64 * makespan as f64),
            peak_engines: drill.peak_engines,
            cost_units: cfg
                .lineup
                .as_ref()
                .map_or(cfg.engines as f64, EngineLineup::cost_units),
            format_policy: cfg.format.label(),
            format_dispatch: dispatch,
            format_pred_err: div(err_sum, completed as f64),
            classes: cfg
                .classes
                .as_ref()
                .map_or_else(|| "none".to_string(), ClassPolicy::label),
            degrade: cfg
                .degrade
                .as_ref()
                .map_or_else(|| "none".to_string(), DegradePolicy::label),
            preemptions: lab.preemptions,
            degraded,
            mode_cycles: lab.mode_cycles,
            class_completed,
            class_shed,
            class_failed,
            class_violations,
            class_p99_e2e,
            shards: cfg
                .sharding
                .as_ref()
                .map_or_else(|| "none".to_string(), ShardPlan::label),
            net_bytes,
            net_cycles,
            remote_rate: div(remote_rows as f64, sampled_rows as f64),
        }
    }

    /// Deterministic JSON rendering (fixed field order, fixed float
    /// precision) — the `BENCH_queue.json` payload, byte-identical across
    /// thread counts by construction. The label is escaped.
    pub fn to_json(&self, label: &str) -> String {
        let label = label.replace('\\', "\\\\").replace('"', "\\\"");
        format!(
            "{{\n  \"bench\": \"queue_sim\",\n  \"workload\": \"{label}\",\n  \"requests\": {},\n  \"engines\": {},\n  \"policy\": \"{}\",\n  \"offered_load\": {:.3},\n  \"traffic\": \"{}\",\n  \"fleet\": \"{}\",\n  \"deadline_cycles\": {},\n  \"completed\": {},\n  \"shed\": {},\n  \"shed_rate\": {:.6},\n  \"violations\": {},\n  \"violation_rate\": {:.6},\n  \"makespan_cycles\": {},\n  \"p50_wait_cycles\": {},\n  \"p95_wait_cycles\": {},\n  \"p99_wait_cycles\": {},\n  \"max_wait_cycles\": {},\n  \"mean_wait_cycles\": {:.3},\n  \"p50_e2e_cycles\": {},\n  \"p95_e2e_cycles\": {},\n  \"p99_e2e_cycles\": {},\n  \"max_e2e_cycles\": {},\n  \"mean_e2e_cycles\": {:.3},\n  \"throughput_rps\": {:.3},\n  \"utilization\": {:.6},\n  \"warm_lines\": {},\n  \"warm_hits\": {},\n  \"warm_hit_rate\": {:.6},\n  \"faults\": \"{}\",\n  \"retry\": \"{}\",\n  \"autoscale\": \"{}\",\n  \"incidents\": {},\n  \"retries\": {},\n  \"failed\": {},\n  \"failed_rate\": {:.6},\n  \"availability\": {:.6},\n  \"peak_engines\": {},\n  \"cost_units\": {:.3},\n  \"format_policy\": \"{}\",\n  \"format_dispatch\": {{{}}},\n  \"format_pred_err\": {:.6},\n  \"classes\": \"{}\",\n  \"degrade\": \"{}\",\n  \"preemptions\": {},\n  \"degraded\": {},\n  \"mode_cycles\": {{\"full\": {}, \"cheap_fixed\": {}, \"lite\": {}}},\n  \"class_completed\": {{\"interactive\": {}, \"batch\": {}}},\n  \"class_shed\": {{\"interactive\": {}, \"batch\": {}}},\n  \"class_failed\": {{\"interactive\": {}, \"batch\": {}}},\n  \"class_violations\": {{\"interactive\": {}, \"batch\": {}}},\n  \"class_p99_e2e\": {{\"interactive\": {}, \"batch\": {}}},\n  \"shards\": \"{}\",\n  \"net_bytes\": {},\n  \"net_cycles\": {},\n  \"remote_rate\": {:.6}\n}}\n",
            self.requests,
            self.engines,
            self.policy,
            self.offered_load,
            self.traffic,
            self.fleet,
            self.deadline_cycles,
            self.completed,
            self.shed,
            self.shed_rate,
            self.violations,
            self.violation_rate,
            self.makespan_cycles,
            self.p50_wait_cycles,
            self.p95_wait_cycles,
            self.p99_wait_cycles,
            self.max_wait_cycles,
            self.mean_wait_cycles,
            self.p50_e2e_cycles,
            self.p95_e2e_cycles,
            self.p99_e2e_cycles,
            self.max_e2e_cycles,
            self.mean_e2e_cycles,
            self.throughput_rps,
            self.utilization,
            self.warm_lines,
            self.warm_hits,
            self.warm_hit_rate,
            self.faults,
            self.retry,
            self.autoscale,
            self.incidents,
            self.retries,
            self.failed,
            self.failed_rate,
            self.availability,
            self.peak_engines,
            self.cost_units,
            self.format_policy,
            self.format_dispatch
                .iter()
                .map(|(f, c)| format!("\"{f}\": {c}"))
                .collect::<Vec<_>>()
                .join(", "),
            self.format_pred_err,
            self.classes,
            self.degrade,
            self.preemptions,
            self.degraded,
            self.mode_cycles[0],
            self.mode_cycles[1],
            self.mode_cycles[2],
            self.class_completed[0],
            self.class_completed[1],
            self.class_shed[0],
            self.class_shed[1],
            self.class_failed[0],
            self.class_failed[1],
            self.class_violations[0],
            self.class_violations[1],
            self.class_p99_e2e[0],
            self.class_p99_e2e[1],
            self.shards,
            self.net_bytes,
            self.net_cycles,
            self.remote_rate,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::{ServingConfig, ServingContext};
    use sgcn_graph::datasets::{DatasetId, SynthScale};
    use sgcn_graph::sampling::Fanouts;

    fn tiny_ctx() -> ServingContext {
        ServingContext::new(ServingConfig {
            dataset: DatasetId::Cora,
            scale: SynthScale::tiny(),
            fanouts: Fanouts::new(vec![6, 3]),
            width: 64,
            seed: 7,
        })
    }

    fn qcfg(engines: usize, policy: SchedPolicy) -> QueueConfig {
        QueueConfig::new(engines, policy, 0.8, 7)
    }

    fn prepared_tiny(n: usize, pool: usize) -> (ServingContext, Vec<PreparedRequest>, u64) {
        let ctx = tiny_ctx();
        let stream = ctx.hotspot_stream(n, pool);
        let prepared = prepare(&ctx, &stream, &AccelModel::sgcn(), &HwConfig::default());
        let row = feature_row_bytes(&ctx);
        (ctx, prepared, row)
    }

    /// Prepares `stream` for `lineup` the way `format` needs it: the
    /// native column under `fixed:native`, the full palette otherwise.
    fn prepare_lineup(
        ctx: &ServingContext,
        stream: &[Request],
        lineup: &EngineLineup,
        format: FormatPolicy,
    ) -> Vec<PreparedRequest> {
        let cfg = qcfg(lineup.engines(), SchedPolicy::LeastLoaded)
            .with_lineup(lineup.clone())
            .with_format(format);
        prepare_for(ctx, stream, &AccelModel::sgcn(), &HwConfig::default(), &cfg)
    }

    /// Prepares `stream` the way `cfg` needs it on the default hardware
    /// and runs it.
    fn run(ctx: &ServingContext, stream: &[Request], cfg: &QueueConfig) -> QueueOutcome {
        let hw = HwConfig::default();
        let prepared = prepare_for(ctx, stream, &AccelModel::sgcn(), &hw, cfg);
        simulate_queue(&prepared, cfg, &hw, feature_row_bytes(ctx))
    }

    #[test]
    fn policy_labels_and_parse_round_trip() {
        for p in SchedPolicy::ALL {
            assert_eq!(SchedPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(
            SchedPolicy::parse("FIFO"),
            Some(SchedPolicy::FifoRoundRobin)
        );
        assert_eq!(SchedPolicy::parse("least"), Some(SchedPolicy::LeastLoaded));
        assert_eq!(SchedPolicy::parse("warm"), Some(SchedPolicy::CacheAffinity));
        assert_eq!(SchedPolicy::parse("edf"), Some(SchedPolicy::SloAware));
        assert_eq!(SchedPolicy::parse("bogus"), None);
    }

    #[test]
    fn only_cache_affinity_arms_row_tracking() {
        // The counters cost an update per fill and eviction; policies
        // that never read them replay untracked, exactly as before the
        // counters existed — on the row geometry (PubMed's 32-line row)
        // and on the line fallback (a 90-line row) alike.
        let hw = HwConfig::default();
        for row_bytes in [2000, 90 * 64] {
            let pricing = ClassPricing::new(&hw, row_bytes);
            for policy in SchedPolicy::ALL {
                let mem = engine_memory(&hw, &pricing, policy);
                assert_eq!(
                    mem.tracks_rows(),
                    policy == SchedPolicy::CacheAffinity,
                    "{policy:?}, {row_bytes} B rows"
                );
            }
        }
    }

    #[test]
    fn engine_memory_picks_row_geometry_only_when_exact() {
        // (cache, row bytes) → expected engine line bytes.
        let table_iii = HwConfig::default();
        let lineup_cache = HwConfig::default().with_cache_kib(64);
        let bip = HwConfig::default().with_cache_policy(sgcn_mem::ReplacementPolicy::Bip);
        let cases = [
            // PubMed's 2,000 B row pads to 32 lines: 32 | 512 sets and
            // 32 | 64 sets, so both caches replay one line per row.
            (table_iii, 2000, 2048),
            (lineup_cache, 2000, 2048),
            // Cora's 90-line row divides neither: line geometry.
            (table_iii, 90 * 64, 64),
            (lineup_cache, 90 * 64, 64),
            // BIP's global insertion counter rules the twin out.
            (bip, 2000, 64),
        ];
        for (hw, row_bytes, line_bytes) in cases {
            let pricing = ClassPricing::new(&hw, row_bytes);
            let mut mem = engine_memory(&hw, &pricing, SchedPolicy::CacheAffinity);
            assert_eq!(mem.line_bytes(), line_bytes, "{row_bytes} B rows");
            assert_eq!(pricing.granule(&mem), line_bytes / 64);
            // Either way the armed counters, scaled by the granule, count
            // a resident row's class lines.
            let row_lines = pricing.row_stride / line_bytes;
            mem.read_lines(3 * row_lines, row_lines);
            assert_eq!(
                mem.resident_lines(3) * pricing.granule(&mem),
                pricing.row_stride / 64
            );
        }
    }

    #[test]
    fn cache_affinity_through_the_line_fallback_conserves_requests() {
        // A 3-line row divides no power-of-two set count, so the engines
        // run the line geometry; under `cargo test` every routing
        // decision also checks the row counters against the peek oracle.
        let (_ctx, prepared, _row) = prepared_tiny(48, 6);
        let hw = HwConfig::default();
        assert_eq!(
            engine_memory(
                &hw,
                &ClassPricing::new(&hw, 3 * 64),
                SchedPolicy::CacheAffinity
            )
            .line_bytes(),
            64
        );
        let out = simulate_queue(&prepared, &qcfg(3, SchedPolicy::CacheAffinity), &hw, 3 * 64);
        let sum = &out.summary;
        assert_eq!(
            sum.completed as u64 + sum.shed + sum.failed,
            prepared.len() as u64
        );
        assert!(sum.warm_hits > 0, "the hot pool must reuse resident rows");
    }

    #[test]
    fn fleet_labels_and_parse_round_trip() {
        assert_eq!(FleetSpec::uniform(4).label(), "uniform");
        assert_eq!(FleetSpec::mixed(4, 1.5).label(), "mixed");
        assert_eq!(
            FleetSpec::mixed(4, 1.5).with_work_stealing().label(),
            "mixed+steal"
        );
        assert_eq!(FleetSpec::parse("uniform", 3), Some(FleetSpec::uniform(3)));
        assert_eq!(
            FleetSpec::parse("steal", 2),
            Some(FleetSpec::uniform(2).with_work_stealing())
        );
        assert_eq!(FleetSpec::parse("mixed", 4), Some(FleetSpec::mixed(4, 1.5)));
        assert_eq!(
            FleetSpec::parse("mixed-steal", 4),
            Some(FleetSpec::mixed(4, 1.5).with_work_stealing())
        );
        let custom = FleetSpec::parse("1.0,2.0,3.0", 3).expect("parses");
        assert_eq!(custom.scales, vec![1.0, 2.0, 3.0]);
        assert_eq!(custom.label(), "custom");
        assert_eq!(
            FleetSpec::parse("1.0,1.5+steal", 2),
            Some(FleetSpec::mixed(2, 1.5).with_work_stealing())
        );
        assert_eq!(FleetSpec::parse("1.0,1.5", 3), None, "length mismatch");
        assert_eq!(FleetSpec::parse("1.0,-2.0", 2), None, "negative scale");
        assert_eq!(FleetSpec::parse("gibberish", 2), None);
    }

    #[test]
    #[should_panic(expected = "at least one engine")]
    fn zero_engines_panics() {
        let _ = QueueConfig::new(0, SchedPolicy::LeastLoaded, 0.5, 0);
    }

    #[test]
    #[should_panic(expected = "offered load")]
    fn non_finite_load_panics() {
        let _ = QueueConfig::new(2, SchedPolicy::LeastLoaded, f64::INFINITY, 0);
    }

    #[test]
    #[should_panic(expected = "fleet width")]
    fn fleet_width_mismatch_panics() {
        qcfg(2, SchedPolicy::LeastLoaded)
            .with_fleet(FleetSpec::uniform(3))
            .check();
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_client_closed_loop_panics() {
        // Only the string parser rejects `closed:0`; the struct is
        // freely constructible, so the event loop must refuse it too.
        let (_ctx, prepared, row) = prepared_tiny(4, 2);
        let cfg =
            qcfg(2, SchedPolicy::LeastLoaded).with_traffic(TrafficModel::ClosedLoop { clients: 0 });
        let _ = simulate_queue(&prepared, &cfg, &HwConfig::default(), row);
    }

    #[test]
    #[should_panic(expected = "needs a hardware lineup")]
    fn non_native_format_without_a_lineup_panics() {
        // A palette-wide stream carries a csr column, but the scalar
        // fleet serves the native reference report: running it pinned
        // to csr would credit csr for native service.
        let ctx = tiny_ctx();
        let hw = HwConfig::default();
        let stream = ctx.hotspot_stream(4, 2);
        let prepared = prepare_lineup(
            &ctx,
            &stream,
            &EngineLineup::uniform(2, hw),
            FormatPolicy::Adaptive,
        );
        let cfg = qcfg(2, SchedPolicy::LeastLoaded)
            .with_format(FormatPolicy::Fixed(ServeFormat::Kind(FormatKind::Csr)));
        let _ = simulate_queue(&prepared, &cfg, &hw, feature_row_bytes(&ctx));
    }

    #[test]
    fn empty_stream_yields_zero_summary_and_finite_json() {
        let ctx = tiny_ctx();
        let out = run(&ctx, &[], &qcfg(2, SchedPolicy::LeastLoaded));
        assert!(out.records.is_empty());
        assert!(out.shed.is_empty());
        let s = &out.summary;
        assert_eq!(s.requests, 0);
        assert_eq!(s.completed, 0);
        assert_eq!(s.makespan_cycles, 0);
        assert_eq!(s.throughput_rps, 0.0);
        assert_eq!(s.utilization, 0.0);
        assert_eq!(s.warm_hit_rate, 0.0);
        assert_eq!(s.shed_rate, 0.0);
        assert_eq!(s.violation_rate, 0.0);
        let json = s.to_json("empty");
        assert!(
            !json.contains("inf") && !json.contains("NaN") && !json.contains("nan"),
            "{json}"
        );
    }

    #[test]
    fn event_loop_invariants_hold_for_every_policy() {
        let ctx = tiny_ctx();
        let stream = ctx.request_stream(24);
        for policy in SchedPolicy::ALL {
            let out = run(&ctx, &stream, &qcfg(3, policy));
            assert_eq!(out.records.len(), 24, "{policy:?}");
            assert_eq!(out.engine_served.iter().sum::<u64>(), 24);
            let s = &out.summary;
            assert_eq!(s.completed, 24);
            assert_eq!(s.shed, 0);
            for r in &out.records {
                assert!(r.start >= r.arrival, "{policy:?}");
                assert!(r.finish > r.start, "{policy:?}");
                assert!(r.engine < 3);
                assert!(r.finish <= s.makespan_cycles);
            }
            // Per-engine service intervals never overlap: busy time is the
            // sum of disjoint intervals, so it fits in the makespan.
            for e in 0..3 {
                assert!(out.engine_busy[e] <= s.makespan_cycles, "{policy:?}");
            }
            assert!(s.utilization > 0.0 && s.utilization <= 1.0, "{policy:?}");
            assert!(s.p50_wait_cycles <= s.p95_wait_cycles);
            assert!(s.p95_wait_cycles <= s.p99_wait_cycles);
            assert!(s.p99_wait_cycles <= s.max_wait_cycles);
            assert!(s.p50_e2e_cycles <= s.p99_e2e_cycles);
            assert!(s.max_e2e_cycles >= s.max_wait_cycles);
            assert!(s.warm_hits <= s.warm_lines);
            assert!(s.throughput_rps > 0.0);
        }
    }

    #[test]
    fn fifo_round_robin_rotates_engines() {
        let ctx = tiny_ctx();
        let stream = ctx.request_stream(12);
        let out = run(&ctx, &stream, &qcfg(4, SchedPolicy::FifoRoundRobin));
        for r in &out.records {
            assert_eq!(r.engine, r.index % 4);
        }
    }

    #[test]
    fn least_loaded_never_queues_while_an_engine_idles() {
        let ctx = tiny_ctx();
        let stream = ctx.request_stream(20);
        let out = run(&ctx, &stream, &qcfg(2, SchedPolicy::LeastLoaded));
        // Reconstruct: when a request waited, every engine must have been
        // busy at its arrival.
        let mut free_at = [0u64; 2];
        for r in &out.records {
            if r.start > r.arrival {
                assert!(
                    free_at.iter().all(|&f| f > r.arrival),
                    "request {} waited while an engine was free",
                    r.index
                );
            }
            free_at[r.engine] = r.finish;
        }
    }

    #[test]
    fn rerun_is_bit_identical_for_every_traffic_model() {
        let (_ctx, prepared, row) = prepared_tiny(16, 3);
        let hw = HwConfig::default();
        for traffic in [
            TrafficModel::Exponential,
            TrafficModel::bursty_default(),
            TrafficModel::diurnal_default(),
            TrafficModel::ClosedLoop { clients: 4 },
        ] {
            let cfg = qcfg(2, SchedPolicy::CacheAffinity).with_traffic(traffic);
            let a = simulate_queue(&prepared, &cfg, &hw, row);
            let b = simulate_queue(&prepared, &cfg, &hw, row);
            assert_eq!(a, b, "{traffic:?}");
            assert_eq!(a.summary.to_json("q"), b.summary.to_json("q"));
        }
    }

    #[test]
    fn warm_savings_scale_with_the_engine_class() {
        // Regression (heterogeneous-engine mispricing): warm-hit savings
        // used to be subtracted from the *scaled* estimate at reference
        // bandwidth, so a 2×-slow engine banked full-speed DRAM savings.
        // Post-fix, the warm-adjusted cold time is scaled as a whole:
        // slow warm service must be the scaled fast warm service, and
        // never less than it.
        let (_ctx, prepared, row) = prepared_tiny(8, 1);
        let hw = HwConfig::default();
        let fast_cfg = QueueConfig::new(1, SchedPolicy::LeastLoaded, 0.5, 7);
        let slow_cfg = QueueConfig::new(1, SchedPolicy::LeastLoaded, 0.5, 7)
            .with_fleet(FleetSpec::parse("2.0", 1).expect("parses"));
        let fast = simulate_queue(&prepared, &fast_cfg, &hw, row);
        let slow = simulate_queue(&prepared, &slow_cfg, &hw, row);
        assert_eq!(fast.records.len(), slow.records.len());
        let mut warm_seen = false;
        for (f, s) in fast.records.iter().zip(&slow.records) {
            assert_eq!(f.index, s.index);
            // One engine, one hot seed: both runs touch the cache in the
            // same order, so the warm trajectories match.
            assert_eq!(f.warm, s.warm);
            assert!(
                s.service_cycles >= f.service_cycles,
                "slow warm service {} < fast warm service {}",
                s.service_cycles,
                f.service_cycles
            );
            assert_eq!(
                s.service_cycles,
                scale_service(f.service_cycles, 2.0),
                "request {}: slow engine banked reference-speed savings",
                f.index
            );
            warm_seen |= f.warm.hits > 0;
        }
        assert!(warm_seen, "the hotspot stream never hit warm");
    }

    #[test]
    fn affinity_slack_guards_degenerate_means() {
        assert_eq!(affinity_slack_cycles(10.5), 21);
        assert_eq!(affinity_slack_cycles(1.0), 2);
        assert_eq!(affinity_slack_cycles(0.0), 0);
        assert_eq!(affinity_slack_cycles(-3.0), 0);
        assert_eq!(affinity_slack_cycles(f64::NAN), 0);
        assert_eq!(affinity_slack_cycles(f64::INFINITY), 0);
    }

    #[test]
    fn cache_affinity_survives_a_degenerate_stream() {
        // An empty prepared stream has mean_service = 0 — the affinity
        // slack degenerates to 0 and the run must still be finite.
        let out = simulate_queue(
            &[],
            &qcfg(2, SchedPolicy::CacheAffinity),
            &HwConfig::default(),
            256,
        );
        assert_eq!(out.summary.requests, 0);
        let json = out.summary.to_json("degenerate");
        assert!(
            !json.contains("inf") && !json.contains("NaN") && !json.contains("nan"),
            "{json}"
        );
    }

    #[test]
    fn lineup_labels_and_parse_round_trip() {
        let base = HwConfig::default();
        for spec in ["uniform", "eco", "mixed"] {
            let lineup = EngineLineup::parse(spec, 4, base).expect("parses");
            assert_eq!(lineup.label(), format!("lineup-{spec}"));
            let steal = EngineLineup::parse(&format!("{spec}+steal"), 4, base).expect("parses");
            assert_eq!(steal.label(), format!("lineup-{spec}+steal"));
            assert!(steal.work_stealing);
        }
        assert_eq!(EngineLineup::parse("bogus", 4, base), None);
        assert_eq!(EngineLineup::mixed(4, base).engines(), 4);
        let mixed = EngineLineup::mixed(4, base);
        assert!(mixed.cost_units() < 4.0, "eco engines are cheaper");
        assert!((EngineLineup::uniform(4, base).cost_units() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn serve_format_and_policy_labels_round_trip() {
        for f in ServeFormat::PALETTE {
            assert_eq!(ServeFormat::parse(f.label()), Some(f));
            let policy = FormatPolicy::Fixed(f);
            assert_eq!(FormatPolicy::parse(&policy.label()), Some(policy));
            // The bare format name parses as its fixed policy too.
            assert_eq!(FormatPolicy::parse(f.label()), Some(policy));
            assert!(FormatPolicy::valid_values().contains(&policy.label()));
        }
        assert_eq!(ServeFormat::Native.override_kind(), None);
        assert_eq!(
            ServeFormat::Kind(FormatKind::Beicsr).override_kind(),
            Some(FormatKind::Beicsr)
        );
        assert_eq!(
            FormatPolicy::parse("adaptive"),
            Some(FormatPolicy::Adaptive)
        );
        assert_eq!(FormatPolicy::default().label(), "fixed:native");
        // Non-palette study formats are not serving formats.
        assert_eq!(ServeFormat::parse("coo"), None);
        assert_eq!(FormatPolicy::parse("bogus"), None);
    }

    /// Fabricates a prepared request of `vertices` sampled vertices
    /// whose cold service is 1,000 cycles per vertex.
    fn fab_request(index: usize, vertices: u64) -> PreparedRequest {
        let report = SimReport {
            accelerator: "fab",
            workload: "FAB",
            cycles: 1_000 * vertices,
            agg_cycles: 0,
            comb_cycles: 0,
            mem_cycles: 0,
            macs: 0,
            mem: sgcn_mem::MemReport::default(),
            energy: Default::default(),
            tdp_watts: 0.0,
            layers: Vec::new().into(),
        };
        PreparedRequest {
            request: Request {
                index,
                seed_vertex: vertices as u32,
            },
            vertices: vec![vertices as u32],
            report,
            stats: RequestStats {
                vertices,
                edges: vertices * 3,
                sparsity: 0.5,
                feature_bytes: vertices * 256,
            },
            class_reports: Vec::new(),
            formats: Vec::new(),
            lite_reports: Vec::new(),
            lite_vertices: Vec::new(),
        }
    }

    #[test]
    fn cost_model_averages_colliding_stats_per_cell() {
        // Two classes × two formats; request 7 repeats request 3's
        // stats with other cycles, as two distinct seed vertices can.
        let prepared: Vec<PreparedRequest> = (0..10)
            .map(|i| {
                let mut p = fab_request(i, 20 + 13 * (if i == 7 { 3 } else { i }) as u64);
                p.formats = ServeFormat::PALETTE[..2].to_vec();
                p.class_reports = (0..4u64)
                    .map(|c| SimReport {
                        cycles: p.report.cycles * (c + 1) + 7 * i as u64,
                        ..p.report.clone()
                    })
                    .collect();
                p
            })
            .collect();
        let model = CostModel::fit(&prepared, 2);
        for cell in 0..4 {
            let cycles = |i: usize| prepared[i].class_reports[cell].cycles;
            assert_ne!(cycles(3), cycles(7));
            let mean = Some((cycles(3) + cycles(7)) / 2);
            assert_eq!(model.predict_cycles(cell, &prepared[3].stats), mean);
            assert_eq!(model.predict_cycles(cell, &prepared[7].stats), mean);
            assert_eq!(
                model.predict_cycles(cell, &prepared[5].stats),
                Some(cycles(5))
            );
        }
        let unseen = RequestStats {
            vertices: 777,
            ..prepared[0].stats
        };
        assert_eq!(model.predict_cycles(0, &unseen), None);
    }

    #[test]
    fn uniform_lineup_on_the_base_hw_matches_the_scalar_fleet() {
        // A uniform lineup of reference-class engines prices exactly
        // like the legacy uniform fleet (same cache geometry, same DRAM,
        // same cold reports), so per-request records must be identical.
        let ctx = tiny_ctx();
        let stream = ctx.hotspot_stream(16, 3);
        let base = HwConfig::default();
        let row = feature_row_bytes(&ctx);
        let native_prep = prepare(&ctx, &stream, &AccelModel::sgcn(), &base);
        let lineup = EngineLineup::uniform(3, base);
        let lineup_prep = prepare_lineup(&ctx, &stream, &lineup, FormatPolicy::default());
        for policy in [SchedPolicy::LeastLoaded, SchedPolicy::CacheAffinity] {
            let legacy = simulate_queue(&native_prep, &qcfg(3, policy), &base, row);
            let lin = simulate_queue(
                &lineup_prep,
                &qcfg(3, policy).with_lineup(lineup.clone()),
                &base,
                row,
            );
            assert_eq!(legacy.records, lin.records, "{policy:?}");
            assert_eq!(legacy.engine_busy, lin.engine_busy);
            assert_eq!(legacy.summary.warm_hits, lin.summary.warm_hits);
        }
    }

    #[test]
    fn eco_lineup_engines_serve_slower_than_reference() {
        // The eco class (half the engines, HBM1) must actually cost
        // cycles — otherwise the lineup grid answers nothing.
        let ctx = tiny_ctx();
        let stream = ctx.hotspot_stream(12, 3);
        let base = HwConfig::default();
        let lineup = EngineLineup::mixed(2, base);
        let prepared = prepare_lineup(&ctx, &stream, &lineup, FormatPolicy::default());
        for p in &prepared {
            assert_eq!(p.class_reports.len(), 2);
            assert_eq!(p.class_reports[0], p.report);
            assert!(
                p.class_reports[1].cycles > p.class_reports[0].cycles,
                "eco ({}) should be slower than ref ({})",
                p.class_reports[1].cycles,
                p.class_reports[0].cycles
            );
        }
    }

    #[test]
    fn cost_model_predicts_per_class_service_deterministically() {
        let ctx = tiny_ctx();
        let stream = ctx.hotspot_stream(20, 5);
        let base = HwConfig::default();
        let lineup = EngineLineup::mixed(2, base);
        let prepared = prepare_lineup(&ctx, &stream, &lineup, FormatPolicy::default());
        let model = CostModel::fit(&prepared, 2);
        // Refitting the same stream yields the same model, and each
        // request predicts the per-cell mean cold cycles of the requests
        // sharing its stats (itself included).
        assert_eq!(model, CostModel::fit(&prepared, 2));
        for p in &prepared {
            for cell in 0..2 {
                let same: Vec<u64> = prepared
                    .iter()
                    .filter(|q| q.stats == p.stats)
                    .map(|q| q.class_reports[cell].cycles)
                    .collect();
                let mean = same.iter().sum::<u64>() / same.len() as u64;
                assert_eq!(model.predict_cycles(cell, &p.stats), Some(mean.max(1)));
            }
        }
        // The fitted eco predictions track the real ordering on average.
        let (mut eco_more, mut total) = (0usize, 0usize);
        for p in &prepared {
            total += 1;
            if model.predict_cycles(1, &p.stats) > model.predict_cycles(0, &p.stats) {
                eco_more += 1;
            }
        }
        assert!(
            eco_more * 2 > total,
            "eco predicted slower on only {eco_more}/{total} requests"
        );
    }

    #[test]
    fn cost_aware_matches_or_beats_least_loaded_on_a_mixed_lineup() {
        // The acceptance gate of the lineup work: on a heterogeneous
        // lineup under bursty traffic, routing on predicted per-class
        // completion must not lose to class-blind least-loaded routing.
        let ctx = tiny_ctx();
        let stream = ctx.hotspot_stream(48, 6);
        let base = HwConfig::default();
        let lineup = EngineLineup::mixed(4, base);
        let prepared = prepare_lineup(&ctx, &stream, &lineup, FormatPolicy::default());
        let row = feature_row_bytes(&ctx);
        let run = |policy| {
            let cfg = QueueConfig::new(4, policy, 0.9, 7)
                .with_traffic(TrafficModel::bursty_default())
                .with_lineup(lineup.clone());
            simulate_queue(&prepared, &cfg, &base, row)
        };
        let least = run(SchedPolicy::LeastLoaded);
        let cost = run(SchedPolicy::CostAware);
        assert_eq!(cost.summary.completed, least.summary.completed);
        assert!(
            cost.summary.p99_e2e_cycles <= least.summary.p99_e2e_cycles,
            "cost-aware p99 {} > least-loaded p99 {}",
            cost.summary.p99_e2e_cycles,
            least.summary.p99_e2e_cycles
        );
    }

    #[test]
    fn adaptive_dispatch_matches_or_beats_every_fixed_format() {
        // The acceptance gate of the format work: on the mixed lineup
        // under bursty traffic, letting the cost model pick the
        // (engine, format) pair per request must not lose to pinning
        // every request to any single palette format.
        let ctx = tiny_ctx();
        let stream = ctx.hotspot_stream(36, 5);
        let base = HwConfig::default();
        let lineup = EngineLineup::mixed(3, base);
        let prepared = prepare_lineup(&ctx, &stream, &lineup, FormatPolicy::Adaptive);
        let row = feature_row_bytes(&ctx);
        for p in &prepared {
            assert_eq!(p.formats, ServeFormat::PALETTE.to_vec());
            assert_eq!(p.class_reports.len(), 2 * ServeFormat::PALETTE.len());
        }
        let run = |format: FormatPolicy| {
            let cfg = QueueConfig::new(3, SchedPolicy::CostAware, 0.9, 7)
                .with_traffic(TrafficModel::bursty_default())
                .with_lineup(lineup.clone())
                .with_format(format);
            simulate_queue(&prepared, &cfg, &base, row).summary
        };
        let adaptive = run(FormatPolicy::Adaptive);
        assert_eq!(adaptive.format_policy, "adaptive");
        assert_eq!(
            adaptive.format_dispatch.iter().map(|(_, c)| c).sum::<u64>(),
            adaptive.completed as u64,
            "dispatch counts must partition completions"
        );
        for (idx, f) in ServeFormat::PALETTE.into_iter().enumerate() {
            let fixed = run(FormatPolicy::Fixed(f));
            assert_eq!(fixed.completed, adaptive.completed);
            // A fixed policy dispatches every completion in its format.
            for (i, (label, count)) in fixed.format_dispatch.iter().enumerate() {
                assert_eq!(label, ServeFormat::PALETTE[i].label());
                assert_eq!(
                    *count,
                    if i == idx { fixed.completed as u64 } else { 0 },
                    "fixed:{} dispatched {count} requests as {label}",
                    f.label()
                );
            }
            assert!(
                adaptive.p99_e2e_cycles <= fixed.p99_e2e_cycles,
                "adaptive p99 {} > fixed:{} p99 {}",
                adaptive.p99_e2e_cycles,
                f.label(),
                fixed.p99_e2e_cycles
            );
        }
    }

    #[test]
    fn affinity_beats_fifo_on_shared_neighborhood_stream() {
        let (_ctx, prepared, row) = prepared_tiny(32, 3);
        let hw = HwConfig::default();
        let fifo = simulate_queue(&prepared, &qcfg(4, SchedPolicy::FifoRoundRobin), &hw, row);
        let aff = simulate_queue(&prepared, &qcfg(4, SchedPolicy::CacheAffinity), &hw, row);
        assert!(
            aff.summary.warm_hits >= fifo.summary.warm_hits,
            "affinity {} < fifo {}",
            aff.summary.warm_hits,
            fifo.summary.warm_hits
        );
        // And strictly more on this stream: 3 hot seeds over 4 engines
        // round-robin tear the reuse apart, affinity keeps it together.
        assert!(
            aff.summary.warm_hit_rate > fifo.summary.warm_hit_rate,
            "affinity {} !> fifo {}",
            aff.summary.warm_hit_rate,
            fifo.summary.warm_hit_rate
        );
        // Warm reuse shaves service time: total busy under affinity is no
        // worse than FIFO's.
        assert!(aff.engine_busy.iter().sum::<u64>() <= fifo.engine_busy.iter().sum::<u64>());
    }

    #[test]
    fn identical_requests_hit_warm_on_the_same_engine() {
        let ctx = tiny_ctx();
        // One hot seed: every request samples the identical neighborhood.
        // Light offered load, so the warm engine's backlog always drains
        // below the affinity slack and the policy never has to divert for
        // balance (the bounded-load fallback under pressure is exercised
        // by the policy-sweep grids).
        let stream = ctx.hotspot_stream(6, 1);
        let out = run(
            &ctx,
            &stream,
            &QueueConfig::new(2, SchedPolicy::CacheAffinity, 0.3, 7),
        );
        // The identical working set fits the 512 KB warm cache at tiny
        // scale, so an engine is cold exactly once: its first visit.
        // (An arrival burst may still divert past the affinity slack —
        // that diverted request is the new engine's cold first visit.)
        let mut visited = [false; 2];
        for r in &out.records {
            if visited[r.engine] {
                assert_eq!(r.warm.misses, 0, "request {} re-missed", r.index);
            } else {
                assert_eq!(r.warm.hits, 0, "request {} warm on a cold engine", r.index);
                visited[r.engine] = true;
            }
        }
        // Affinity keeps the hot seed home for the clear majority.
        let home = out.records[0].engine;
        let at_home = out.records.iter().filter(|r| r.engine == home).count();
        assert!(at_home * 2 > out.records.len(), "{at_home}/6 stayed home");
        let s = &out.summary;
        assert!(s.warm_hit_rate > 0.5, "rate {}", s.warm_hit_rate);
    }

    #[test]
    fn closed_loop_never_exceeds_client_cap_in_flight() {
        let (_ctx, prepared, row) = prepared_tiny(24, 4);
        let hw = HwConfig::default();
        for clients in [1usize, 2, 5] {
            let cfg = qcfg(3, SchedPolicy::LeastLoaded)
                .with_traffic(TrafficModel::ClosedLoop { clients });
            let out = simulate_queue(&prepared, &cfg, &hw, row);
            assert_eq!(out.records.len(), 24, "K={clients}");
            // In-flight = requests with arrival <= t < finish. Sweep the
            // event instants.
            for r in &out.records {
                let t = r.arrival;
                let in_flight = out
                    .records
                    .iter()
                    .filter(|o| o.arrival <= t && t < o.finish)
                    .count();
                assert!(
                    in_flight <= clients,
                    "K={clients}: {in_flight} in flight at {t}"
                );
            }
            // With one client the system is fully serial: no waiting
            // beyond the engine being its own predecessor.
            if clients == 1 {
                for w in out.records.windows(2) {
                    assert!(w[1].arrival >= w[0].finish, "serial client overlapped");
                }
            }
        }
    }

    #[test]
    fn closed_loop_preemption_releases_each_client_once() {
        // A preempted batch request re-queues and later restarts. Its
        // client must come back once, when the request finishes — not
        // at each start, or every preemption adds a client to the loop.
        let (_ctx, prepared, row) = prepared_tiny(60, 6);
        let clients = 4;
        let cfg = qcfg(2, SchedPolicy::LeastLoaded)
            .with_traffic(TrafficModel::ClosedLoop { clients })
            .with_classes(ClassPolicy::mix(0.3).with_preemption());
        let out = simulate_queue(&prepared, &cfg, &HwConfig::default(), row);
        assert!(out.summary.preemptions > 0, "the run must preempt");
        assert_eq!(out.records.len() + out.shed.len() + out.failed.len(), 60);
        for r in &out.records {
            let t = r.arrival;
            let in_system = out
                .records
                .iter()
                .filter(|o| o.arrival <= t && t < o.finish)
                .count();
            assert!(
                in_system <= clients,
                "{in_system} requests in the system at {t}"
            );
        }
    }

    #[test]
    fn shedding_respects_deadline_budget_and_conserves_requests() {
        let (_ctx, prepared, row) = prepared_tiny(30, 5);
        let hw = HwConfig::default();
        let mean = prepared.iter().map(|p| p.report.cycles).sum::<u64>() / 30;
        // A deadline of ~1.5 mean services at overload: some requests
        // shed, the served ones conserve.
        let cfg = QueueConfig::new(2, SchedPolicy::LeastLoaded, 2.0, 7)
            .with_slo(SloConfig::shedding(mean + mean / 2));
        let out = simulate_queue(&prepared, &cfg, &hw, row);
        assert_eq!(out.records.len() + out.shed.len(), 30, "conservation");
        assert!(!out.shed.is_empty(), "overload with a tight deadline sheds");
        assert!(!out.records.is_empty(), "an idle fleet admits");
        let s = &out.summary;
        assert_eq!(s.requests, 30);
        assert_eq!(s.completed + s.shed as usize, 30);
        assert!(s.shed_rate > 0.0 && s.shed_rate < 1.0);
        // Shed requests never appear in the served records.
        for sr in &out.shed {
            assert!(out.records.iter().all(|r| r.index != sr.index));
        }
        let json = s.to_json("slo");
        assert!(
            !json.contains("inf") && !json.contains("NaN") && !json.contains("nan"),
            "{json}"
        );
    }

    #[test]
    fn violations_are_exactly_the_completions_over_deadline() {
        let (_ctx, prepared, row) = prepared_tiny(24, 4);
        let hw = HwConfig::default();
        let mean = prepared.iter().map(|p| p.report.cycles).sum::<u64>() / 24;
        // Shedding off: every request is served, misses surface as
        // violations only.
        let slo = SloConfig::new(2 * mean, false);
        let cfg = QueueConfig::new(2, SchedPolicy::SloAware, 1.5, 7).with_slo(slo);
        let out = simulate_queue(&prepared, &cfg, &hw, row);
        assert!(out.shed.is_empty(), "shedding is off");
        let recount = out
            .records
            .iter()
            .filter(|r| r.e2e_cycles() > slo.deadline_cycles)
            .count() as u64;
        assert_eq!(out.summary.violations, recount, "violations ⇔ e2e > ddl");
        assert!(recount > 0, "overload at 1.5ρ should violate somewhere");
    }

    #[test]
    fn fully_shed_run_renders_finite_zeroed_latencies() {
        let (_ctx, prepared, row) = prepared_tiny(12, 2);
        let hw = HwConfig::default();
        // Every service estimate exceeds a 1-cycle budget, so admission
        // rejects the entire stream.
        let cfg = qcfg(2, SchedPolicy::LeastLoaded).with_slo(SloConfig::new(1, true));
        let out = simulate_queue(&prepared, &cfg, &hw, row);
        assert!(out.records.is_empty());
        assert_eq!(out.shed.len(), 12);
        let s = &out.summary;
        assert_eq!(s.requests, 12);
        assert_eq!(s.completed, 0);
        assert_eq!(s.shed, 12);
        assert_eq!(s.shed_rate, 1.0);
        assert_eq!(s.violations, 0);
        assert_eq!(s.makespan_cycles, 0);
        assert_eq!(s.throughput_rps, 0.0);
        assert_eq!(s.utilization, 0.0);
        assert_eq!(s.mean_e2e_cycles, 0.0);
        let json = s.to_json("all-shed");
        assert!(
            !json.contains("inf") && !json.contains("NaN") && !json.contains("nan"),
            "{json}"
        );
        assert!(json.contains("\"shed_rate\": 1.000000"), "{json}");
    }

    #[test]
    fn slo_aware_serves_earliest_deadline_first_within_an_engine() {
        let (_ctx, prepared, row) = prepared_tiny(24, 4);
        let hw = HwConfig::default();
        let mean = prepared.iter().map(|p| p.report.cycles).sum::<u64>() / 24;
        let slo = SloConfig::new(3 * mean, false);
        let cfg = QueueConfig::new(1, SchedPolicy::SloAware, 3.0, 7).with_slo(slo);
        let out = simulate_queue(&prepared, &cfg, &hw, row);
        // One overloaded engine: among requests that were both queued at
        // a service-start instant, the started one must carry the
        // earliest (deadline, index) key — i.e. no request started while
        // an earlier-deadline request was already waiting.
        for a in &out.records {
            for b in &out.records {
                if b.arrival <= a.start
                    && b.start > a.start
                    && (b.arrival + slo.deadline_cycles, b.index)
                        < (a.arrival + slo.deadline_cycles, a.index)
                {
                    panic!(
                        "request {} started at {} while earlier-deadline {} waited",
                        a.index, a.start, b.index
                    );
                }
            }
        }
        // EDF under uniform deadlines cannot create violations FIFO
        // would not: the count matches the recount invariant.
        assert_eq!(
            out.summary.violations,
            out.records
                .iter()
                .filter(|r| r.e2e_cycles() > slo.deadline_cycles)
                .count() as u64
        );
    }

    #[test]
    fn mixed_fleet_slows_odd_engines_and_stealing_rebalances() {
        let (_ctx, prepared, row) = prepared_tiny(24, 24);
        let hw = HwConfig::default();
        // Forced round-robin over a 2-engine mixed fleet: engine 1 runs
        // every service 2× slower.
        let cfg = qcfg(2, SchedPolicy::FifoRoundRobin).with_fleet(FleetSpec::mixed(2, 2.0));
        let out = simulate_queue(&prepared, &cfg, &hw, row);
        let fast: Vec<_> = out.records.iter().filter(|r| r.engine == 0).collect();
        let slow: Vec<_> = out.records.iter().filter(|r| r.engine == 1).collect();
        let fast_mean =
            fast.iter().map(|r| r.service_cycles).sum::<u64>() as f64 / fast.len() as f64;
        let slow_mean =
            slow.iter().map(|r| r.service_cycles).sum::<u64>() as f64 / slow.len() as f64;
        assert!(
            slow_mean > fast_mean * 1.5,
            "slow {slow_mean} vs fast {fast_mean}"
        );
        // Work stealing lets the fast engine drain the slow engine's
        // round-robin backlog: makespan improves (or at worst matches).
        let steal_cfg = qcfg(2, SchedPolicy::FifoRoundRobin)
            .with_fleet(FleetSpec::mixed(2, 2.0).with_work_stealing());
        let stolen = simulate_queue(&prepared, &steal_cfg, &hw, row);
        assert_eq!(stolen.records.len(), 24);
        assert!(
            stolen.summary.makespan_cycles <= out.summary.makespan_cycles,
            "steal {} > no-steal {}",
            stolen.summary.makespan_cycles,
            out.summary.makespan_cycles
        );
        // The thief actually stole: engine 0 served more than its
        // round-robin half.
        assert!(
            stolen.engine_served[0] > 12,
            "fast engine served {} of 24",
            stolen.engine_served[0]
        );
    }

    #[test]
    fn crash_kills_in_flight_work_and_redrive_completes_it() {
        let (_ctx, prepared, row) = prepared_tiny(12, 3);
        let hw = HwConfig::default();
        let base = qcfg(2, SchedPolicy::LeastLoaded);
        let dry = simulate_queue(&prepared, &base, &hw, row);
        // Crash engine `victim` in the middle of its first service.
        let first = dry
            .records
            .iter()
            .min_by_key(|r| (r.start, r.index))
            .expect("non-empty run");
        let victim = first.engine;
        let down = (first.start + first.finish) / 2;
        let outage = first.service_cycles; // recover after one service
        let cfg = base
            .clone()
            .with_faults(FailureModel::parse(&format!("script:{victim}@{down}+{outage}")).unwrap())
            .with_retry(RetryPolicy::new(3, 0));
        let out = simulate_queue(&prepared, &cfg, &hw, row);
        let s = &out.summary;
        assert_eq!(s.incidents, 1);
        assert!(s.retries >= 1, "the killed request redrives");
        assert_eq!(out.failed.len(), 0, "budget of 3 attempts is plenty");
        assert_eq!(out.records.len(), 12, "everything still completes");
        assert!(
            s.availability < 1.0 && s.availability > 0.0,
            "availability {}",
            s.availability
        );
        // The killed request finished later than in the clean run.
        let clean = dry.records.iter().find(|r| r.index == first.index).unwrap();
        let redriven = out.records.iter().find(|r| r.index == first.index).unwrap();
        assert!(redriven.finish > clean.finish);
        // No service interval overlaps the outage on the victim engine.
        let up = down + outage;
        for r in &out.records {
            if r.engine == victim {
                assert!(
                    r.finish <= down || r.start >= up,
                    "request {} served on engine {victim} during its outage",
                    r.index
                );
            }
        }
        assert_eq!(out.records.len() + out.shed.len() + out.failed.len(), 12);
    }

    #[test]
    fn exhausted_retry_budget_is_a_failed_terminal_state() {
        // One engine, a flood of arrivals (every request in the system
        // before half a service elapses), a crash mid-first-service and
        // a single-attempt budget: the whole stream fails.
        let (_ctx, prepared, row) = prepared_tiny(8, 1);
        let hw = HwConfig::default();
        let mean = prepared.iter().map(|p| p.report.cycles).sum::<u64>() / 8;
        let cfg = QueueConfig::new(1, SchedPolicy::LeastLoaded, 100.0, 7)
            .with_faults(
                FailureModel::parse(&format!("script:0@{}+{}", mean / 2, 20 * mean)).unwrap(),
            )
            .with_retry(RetryPolicy::new(1, 0));
        let out = simulate_queue(&prepared, &cfg, &hw, row);
        assert!(out.records.is_empty(), "nothing survives a 1-attempt kill");
        assert_eq!(out.failed.len(), 8);
        for f in &out.failed {
            assert_eq!(f.attempts, 1);
            assert_eq!(f.at, mean / 2, "all killed at the crash instant");
        }
        let s = &out.summary;
        assert_eq!(s.requests, 8);
        assert_eq!(s.failed, 8);
        assert_eq!(s.failed_rate, 1.0);
        assert_eq!(s.completed, 0);
        // Satellite: zero-uptime accounting renders finite, all-zero.
        assert_eq!(s.makespan_cycles, 0);
        assert_eq!(s.utilization, 0.0);
        assert_eq!(s.availability, 0.0);
        assert_eq!(s.throughput_rps, 0.0);
        let json = s.to_json("all-failed");
        assert!(
            !json.contains("inf") && !json.contains("NaN") && !json.contains("nan"),
            "{json}"
        );
        assert!(json.contains("\"failed_rate\": 1.000000"), "{json}");
        assert!(json.contains("\"availability\": 0.000000"), "{json}");
    }

    #[test]
    fn recovered_engine_returns_cold_and_pays_the_warm_up_again() {
        // One engine, one hot seed at light load: every post-warm-up
        // request hits. Crash the engine in an idle gap; the next
        // request after recovery must be cold again.
        let (_ctx, prepared, row) = prepared_tiny(10, 1);
        let hw = HwConfig::default();
        let base = QueueConfig::new(1, SchedPolicy::LeastLoaded, 0.3, 7);
        let dry = simulate_queue(&prepared, &base, &hw, row);
        assert!(
            dry.records.iter().skip(1).all(|r| r.warm.hits > 0),
            "identical requests re-hit in the clean run"
        );
        // An idle gap between completions to crash in.
        let gap = dry
            .records
            .windows(2)
            .find(|w| w[1].start > w[0].finish + 2)
            .expect("light load has idle gaps");
        let down = gap[0].finish + 1;
        let outage = (gap[1].start - down).clamp(1, 2);
        let cfg = base
            .clone()
            .with_faults(FailureModel::parse(&format!("script:0@{down}+{outage}")).unwrap());
        let out = simulate_queue(&prepared, &cfg, &hw, row);
        assert_eq!(out.records.len(), 10, "idle crash kills nothing");
        assert_eq!(out.summary.incidents, 1);
        assert_eq!(out.summary.retries, 0);
        let first_after = out
            .records
            .iter()
            .filter(|r| r.start >= down + outage)
            .min_by_key(|r| r.start)
            .expect("requests follow the recovery");
        assert_eq!(
            first_after.warm.hits, 0,
            "request {} found a warm cache on a power-cycled engine",
            first_after.index
        );
        // And the fleet-wide warm-hit rate measurably dips.
        assert!(
            out.summary.warm_hits < dry.summary.warm_hits,
            "drill {} !< clean {}",
            out.summary.warm_hits,
            dry.summary.warm_hits
        );
    }

    #[test]
    fn autoscale_grows_the_fleet_under_pressure_within_bounds() {
        let (_ctx, prepared, row) = prepared_tiny(24, 6);
        let hw = HwConfig::default();
        // Ceiling of 4, floor of 1, sustained overload: the fleet must
        // grow past the floor, and every record stays inside the
        // ceiling.
        let policy = ScalePolicy {
            min_engines: 1,
            provision_services: 2.0,
            up_pressure: 1.5,
            down_pressure: 0.25,
            cooldown_services: 1.0,
        };
        let cfg = QueueConfig::new(4, SchedPolicy::LeastLoaded, 2.0, 7).with_autoscale(policy);
        let out = simulate_queue(&prepared, &cfg, &hw, row);
        assert_eq!(out.records.len(), 24, "no faults, nothing fails");
        let s = &out.summary;
        assert_eq!(s.autoscale, "auto:1@2.0");
        assert!(
            s.peak_engines > 1 && s.peak_engines <= 4,
            "peak {} out of bounds",
            s.peak_engines
        );
        let used: std::collections::BTreeSet<usize> =
            out.records.iter().map(|r| r.engine).collect();
        assert!(used.len() > 1, "overload never left engine 0");
        // Engines join cold: the first request on every scaled-up
        // engine reports zero warm hits.
        for &e in &used {
            let first = out
                .records
                .iter()
                .filter(|r| r.engine == e)
                .min_by_key(|r| r.start)
                .unwrap();
            assert_eq!(first.warm.hits, 0, "engine {e} started warm");
        }
        // Availability reflects the ramp: the fleet was not all-up for
        // the whole makespan.
        assert!(s.availability < 1.0, "availability {}", s.availability);
        assert!(s.utilization <= 1.0 + 1e-9, "utilization {}", s.utilization);
    }

    #[test]
    fn trace_record_replay_is_bit_identical_for_every_traffic_model() {
        let (_ctx, prepared, row) = prepared_tiny(18, 4);
        let hw = HwConfig::default();
        for traffic in [
            TrafficModel::Exponential,
            TrafficModel::bursty_default(),
            TrafficModel::diurnal_default(),
            TrafficModel::ClosedLoop { clients: 5 },
        ] {
            for policy in [SchedPolicy::CacheAffinity, SchedPolicy::SloAware] {
                let cfg = qcfg(3, policy).with_traffic(traffic);
                let original = simulate_queue(&prepared, &cfg, &hw, row);
                let trace = original.arrival_trace();
                // Serialize → parse → replay: the full round trip.
                let parsed = ArrivalTrace::parse(&trace.to_json()).expect("round-trips");
                assert_eq!(parsed, trace);
                let replay_cfg = cfg.clone().with_trace(parsed);
                let replay = simulate_queue(&prepared, &replay_cfg, &hw, row);
                assert_eq!(replay.records, original.records, "{traffic:?} {policy:?}");
                assert_eq!(replay.summary, original.summary, "{traffic:?} {policy:?}");
                assert_eq!(
                    replay.summary.to_json("t"),
                    original.summary.to_json("t"),
                    "{traffic:?} {policy:?}"
                );
            }
        }
    }

    #[test]
    fn drill_replay_reproduces_the_drill_from_its_recorded_trace() {
        let (_ctx, prepared, row) = prepared_tiny(20, 4);
        let hw = HwConfig::default();
        let cfg = qcfg(3, SchedPolicy::CacheAffinity)
            .with_traffic(TrafficModel::bursty_default())
            .with_faults(FailureModel::mtbf_default())
            .with_retry(RetryPolicy::new(3, 100))
            .with_autoscale(ScalePolicy::with_floor(2));
        let original = simulate_queue(&prepared, &cfg, &hw, row);
        let trace = original.arrival_trace();
        assert_eq!(trace.len(), 20, "every offered request is recorded");
        let replay = simulate_queue(&prepared, &cfg.clone().with_trace(trace), &hw, row);
        assert_eq!(replay, original, "drill replay diverged");
    }

    #[test]
    fn json_is_deterministic_escaped_and_carries_new_fields() {
        let ctx = tiny_ctx();
        let stream = ctx.request_stream(5);
        let out = run(
            &ctx,
            &stream,
            &qcfg(2, SchedPolicy::LeastLoaded)
                .with_traffic(TrafficModel::bursty_default())
                .with_slo(SloConfig::shedding(1_000_000)),
        );
        let j = out.summary.to_json("q \"hot\"");
        assert_eq!(j, out.summary.to_json("q \"hot\""));
        assert!(j.contains(r#""workload": "q \"hot\"""#), "{j}");
        assert!(j.contains("\"policy\": \"least-loaded\""), "{j}");
        assert!(j.contains("\"traffic\": \"bursty\""), "{j}");
        assert!(j.contains("\"fleet\": \"uniform\""), "{j}");
        assert!(j.contains("\"deadline_cycles\": 1000000"), "{j}");
        assert!(j.contains("\"completed\": "), "{j}");
        assert!(j.contains("\"shed_rate\": "), "{j}");
        assert!(j.contains("\"violation_rate\": "), "{j}");
        assert!(j.contains("\"format_policy\": \"fixed:native\""), "{j}");
        assert!(j.contains("\"format_dispatch\": {\"native\": "), "{j}");
        assert!(j.contains("\"format_pred_err\": "), "{j}");
        assert!(j.contains("\"classes\": \"none\""), "{j}");
        assert!(j.contains("\"degrade\": \"none\""), "{j}");
        assert!(j.contains("\"mode_cycles\": {\"full\": "), "{j}");
        assert!(!j.contains("inf") && !j.contains("NaN"), "{j}");
    }

    #[test]
    fn availability_stays_finite_when_a_drill_run_sheds_everything() {
        // Regression guard (satellite): a drilled fleet opens an
        // up-interval at t=0 that is still open when the run ends; with
        // every request shed the makespan is 0, so the open intervals
        // must clip to nothing instead of producing inf/NaN ratios.
        let (_ctx, prepared, row) = prepared_tiny(10, 2);
        let hw = HwConfig::default();
        let cfg = qcfg(2, SchedPolicy::LeastLoaded)
            .with_slo(SloConfig::new(1, true))
            .with_faults(FailureModel::mtbf_default());
        let out = simulate_queue(&prepared, &cfg, &hw, row);
        assert!(out.records.is_empty(), "1-cycle budget sheds everything");
        assert_eq!(out.shed.len() + out.failed.len(), 10, "conservation");
        let s = &out.summary;
        assert_eq!(s.makespan_cycles, 0);
        assert_eq!(s.availability, 0.0);
        assert_eq!(s.utilization, 0.0);
        assert!(out.engine_uptime.iter().all(|&u| u == 0));
        let json = s.to_json("all-shed-drill");
        assert!(
            !json.contains("inf") && !json.contains("NaN") && !json.contains("nan"),
            "{json}"
        );
    }

    #[test]
    fn class_partitions_conserve_exactly_and_match_the_seeded_mix() {
        let (_ctx, prepared, row) = prepared_tiny(30, 5);
        let hw = HwConfig::default();
        let pol = ClassPolicy::mix(0.4);
        let cfg = QueueConfig::new(2, SchedPolicy::LeastLoaded, 1.8, 7)
            .with_classes(pol)
            .with_faults(FailureModel::mtbf_default())
            .with_retry(RetryPolicy::new(2, 100));
        let out = simulate_queue(&prepared, &cfg, &hw, row);
        let s = &out.summary;
        // The partitions sum back to the run totals...
        assert_eq!(s.class_completed.iter().sum::<u64>(), s.completed as u64);
        assert_eq!(s.class_shed.iter().sum::<u64>(), s.shed);
        assert_eq!(s.class_failed.iter().sum::<u64>(), s.failed);
        // ...and each class partition is exactly its offered share,
        // recounted from the same seeded hash the loop used.
        let mut offered = [0u64; RequestClass::COUNT];
        for i in 0..30 {
            offered[class_of(cfg.seed, i, pol.interactive_frac).idx()] += 1;
        }
        assert!(offered.iter().all(|&o| o > 0), "mix produced both classes");
        for (c, &off) in offered.iter().enumerate() {
            assert_eq!(
                s.class_completed[c] + s.class_shed[c] + s.class_failed[c],
                off,
                "class {c} conservation"
            );
        }
    }

    #[test]
    fn preemption_fires_under_overload_and_helps_the_interactive_tail() {
        let (_ctx, prepared, row) = prepared_tiny(40, 5);
        let hw = HwConfig::default();
        let base = QueueConfig::new(2, SchedPolicy::LeastLoaded, 1.3, 11)
            .with_traffic(TrafficModel::bursty_default());
        let plain = base.clone().with_classes(ClassPolicy::mix(0.3));
        let pre = base.with_classes(ClassPolicy::mix(0.3).with_preemption());
        let a = simulate_queue(&prepared, &plain, &hw, row);
        let b = simulate_queue(&prepared, &pre, &hw, row);
        assert_eq!(a.summary.preemptions, 0, "preemption off");
        assert!(b.summary.preemptions > 0, "overload triggers preemption");
        // Preempted batch work still terminates: conservation is exact.
        assert_eq!(b.records.len() + b.shed.len() + b.failed.len(), 40);
        let i = RequestClass::Interactive.idx();
        // Preemption protects the interactive class on both axes: fewer
        // interactive sheds (admission predicts the post-preemption
        // wait) and a no-worse served tail.
        assert!(
            b.summary.class_shed[i] <= a.summary.class_shed[i],
            "interactive shed {} with preemption vs {} without",
            b.summary.class_shed[i],
            a.summary.class_shed[i]
        );
        assert!(
            a.summary.class_completed[i] > 0,
            "baseline must serve interactives for the p99 comparison"
        );
        assert!(
            b.summary.class_p99_e2e[i] <= a.summary.class_p99_e2e[i],
            "interactive p99 {} with preemption vs {} without",
            b.summary.class_p99_e2e[i],
            a.summary.class_p99_e2e[i]
        );
    }

    #[test]
    fn indexed_queues_serve_every_reordering_discipline_under_drills() {
        // Debug builds check every pop's indexed pick against the linear
        // discipline scan. These runs reach every queue operation under
        // overload: EDF pops (deadline classes, then `slo-aware`), steals
        // (`mixed-steal`), preemption removals and crash drains (MTBF).
        let ctx = tiny_ctx();
        let stream = ctx.hotspot_stream(96, 8);
        let base = HwConfig::default();
        let prepared = prepare_lineup(
            &ctx,
            &stream,
            &EngineLineup::mixed(4, base),
            FormatPolicy::default(),
        );
        let row = feature_row_bytes(&ctx);
        let mean = prepared.iter().map(|p| p.report.cycles).sum::<u64>() / prepared.len() as u64;
        let drills = FailureModel::Mtbf {
            mtbf_services: 6.0,
            mttr_services: 2.0,
            incidents_per_engine: 3,
        };
        let run = |policy: SchedPolicy, steal: bool, lab: &dyn Fn(QueueConfig) -> QueueConfig| {
            let lineup = EngineLineup::mixed(4, base);
            let lineup = if steal {
                lineup.with_work_stealing()
            } else {
                lineup
            };
            let cfg = QueueConfig::new(4, policy, 1.4, 5)
                .with_traffic(TrafficModel::bursty_default())
                .with_lineup(lineup)
                .with_faults(drills.clone())
                .with_retry(RetryPolicy::default());
            let out = simulate_queue(&prepared, &lab(cfg), &base, row);
            let s = &out.summary;
            assert_eq!(
                out.records.len() + out.shed.len() + out.failed.len(),
                96,
                "conservation"
            );
            assert!(
                s.incidents > 0 && s.retries > 0,
                "crashes drained queued work"
            );
            out
        };
        let classes = |c: QueueConfig| c.with_classes(ClassPolicy::mix(0.3).with_preemption());
        let stolen = run(SchedPolicy::LeastLoaded, true, &classes);
        assert!(
            stolen.summary.preemptions > 0,
            "preemption removed queued work"
        );
        let kept = run(SchedPolicy::LeastLoaded, false, &classes);
        assert_ne!(stolen.records, kept.records, "idle engines stole work");
        let slo = |c: QueueConfig| c.with_slo(SloConfig::new(8 * mean, true));
        let stolen = run(SchedPolicy::SloAware, true, &slo);
        let kept = run(SchedPolicy::SloAware, false, &slo);
        assert_ne!(stolen.records, kept.records, "idle engines stole work");
    }

    #[test]
    fn brownout_descends_under_overload_and_recovery_accounting_closes() {
        let ctx = tiny_ctx();
        let stream = ctx.hotspot_stream(24, 4);
        let base = HwConfig::default();
        let lineup = EngineLineup::mixed(2, base);
        let prepared = prepare_degraded(
            &ctx,
            &stream,
            &AccelModel::sgcn(),
            &lineup,
            &ServeFormat::PALETTE,
        );
        assert!(prepared
            .iter()
            .all(|p| p.lite_reports.len() == lineup.classes.len() && !p.lite_vertices.is_empty()));
        let row = feature_row_bytes(&ctx);
        let cfg = QueueConfig::new(2, SchedPolicy::LeastLoaded, 2.5, 7)
            .with_lineup(lineup)
            .with_format(FormatPolicy::Adaptive)
            .with_traffic(TrafficModel::bursty_default())
            .with_degrade(DegradePolicy::default());
        let out = simulate_queue(&prepared, &cfg, &base, row);
        let s = &out.summary;
        // No faults: every event lands at or before the last completion,
        // so rung residency telescopes to exactly the makespan.
        assert_eq!(
            s.mode_cycles.iter().sum::<u64>(),
            s.makespan_cycles,
            "residency covers the run"
        );
        assert!(
            s.mode_cycles[1] + s.mode_cycles[2] > 0,
            "2.5x overload browns out: {:?}",
            s.mode_cycles
        );
        assert!(s.degraded > 0, "some completions served degraded");
        assert_eq!(
            s.format_dispatch.last().map(|(l, _)| l.as_str()),
            Some("lite"),
            "degrade runs carry the lite dispatch slot"
        );
        let json = s.to_json("brownout");
        assert!(
            !json.contains("inf") && !json.contains("NaN") && !json.contains("nan"),
            "{json}"
        );
    }

    #[test]
    fn sharded_run_accounts_network_under_every_in_order_policy() {
        // Every in-order policy on a 3-shard split completes the stream
        // and bills a finite, nonzero cross-shard network cost.
        let (ctx, prepared, row) = prepared_tiny(24, 5);
        let hw = HwConfig::default();
        let plan = ShardPlan::from_graph(&ctx.dataset.graph, 3, 8);
        for policy in [
            SchedPolicy::FifoRoundRobin,
            SchedPolicy::LeastLoaded,
            SchedPolicy::CacheAffinity,
            SchedPolicy::CostAware,
            SchedPolicy::ShardAffinity,
        ] {
            let cfg = qcfg(3, policy).with_sharding(plan.clone());
            let out = simulate_queue(&prepared, &cfg, &hw, row);
            let s = &out.summary;
            assert_eq!(s.shards, "3x8hub");
            assert_eq!(s.completed, 24);
            assert!(s.net_bytes > 0, "{policy:?}: a 3-shard split pays network");
            assert!(s.net_cycles > 0, "{policy:?}");
            assert!(
                s.remote_rate > 0.0 && s.remote_rate < 1.0,
                "{policy:?}: remote rate {} out of band",
                s.remote_rate
            );
            let json = s.to_json("shard");
            assert!(
                !json.contains("inf") && !json.contains("NaN") && !json.contains("nan"),
                "{json}"
            );
        }
    }

    #[test]
    fn shard_affinity_cuts_cross_shard_bytes_at_equal_completions() {
        // The tentpole's locality-wins property: routing by shard
        // residency completes the same stream with no more cross-shard
        // bytes than shard-oblivious least-loaded routing.
        let (ctx, prepared, row) = prepared_tiny(30, 5);
        let hw = HwConfig::default();
        let plan = ShardPlan::from_graph(&ctx.dataset.graph, 3, 8);
        let oblivious = simulate_queue(
            &prepared,
            &qcfg(3, SchedPolicy::LeastLoaded).with_sharding(plan.clone()),
            &hw,
            row,
        );
        let affine = simulate_queue(
            &prepared,
            &qcfg(3, SchedPolicy::ShardAffinity).with_sharding(plan),
            &hw,
            row,
        );
        assert_eq!(affine.summary.completed, oblivious.summary.completed);
        assert!(
            affine.summary.net_bytes <= oblivious.summary.net_bytes,
            "shard-affinity {} > least-loaded {}",
            affine.summary.net_bytes,
            oblivious.summary.net_bytes
        );
    }

    #[test]
    fn shard_affinity_without_a_plan_is_least_loaded() {
        // The documented shard-oblivious fallback: identical engine
        // choices and timings, only the policy label differs.
        let (_ctx, prepared, row) = prepared_tiny(20, 4);
        let hw = HwConfig::default();
        let shard = simulate_queue(&prepared, &qcfg(3, SchedPolicy::ShardAffinity), &hw, row);
        let least = simulate_queue(&prepared, &qcfg(3, SchedPolicy::LeastLoaded), &hw, row);
        assert_eq!(shard.records, least.records);
        assert_eq!(shard.summary.makespan_cycles, least.summary.makespan_cycles);
        assert_eq!(shard.summary.policy, "shard-affinity");
    }

    #[test]
    fn unsharded_runs_report_zero_network() {
        let (_ctx, prepared, row) = prepared_tiny(12, 3);
        let s = simulate_queue(
            &prepared,
            &qcfg(2, SchedPolicy::LeastLoaded),
            &HwConfig::default(),
            row,
        )
        .summary;
        assert_eq!(s.shards, "none");
        assert_eq!(s.net_bytes, 0);
        assert_eq!(s.net_cycles, 0);
        assert_eq!(s.remote_rate, 0.0);
    }

    #[test]
    fn hub_replication_monotonically_cuts_network_bytes() {
        // More replicated hubs ⇒ more locally-resident rows ⇒ the same
        // stream pays no more cross-shard bytes.
        let (ctx, prepared, row) = prepared_tiny(24, 5);
        let hw = HwConfig::default();
        let mut last = u64::MAX;
        for hubs in [0usize, 8, 64] {
            let plan = ShardPlan::from_graph(&ctx.dataset.graph, 3, hubs);
            let s = simulate_queue(
                &prepared,
                &qcfg(3, SchedPolicy::ShardAffinity).with_sharding(plan),
                &hw,
                row,
            )
            .summary;
            assert!(
                s.net_bytes <= last,
                "{hubs} hubs: {} bytes > previous {}",
                s.net_bytes,
                last
            );
            last = s.net_bytes;
        }
    }
}
