//! Simulation reports and derived metrics.

use std::sync::Arc;

use sgcn_mem::{EnergyBreakdown, MemReport, Traffic};

/// Process-wide wall-clock accounting of time spent *inside* the
/// dataflow simulator (`AccelModel::simulate` bodies), summed across
/// threads. Everything a driver does outside of it — graph synthesis,
/// trace generation, format encoding, sampling, rendering — is
/// "prepare" time by subtraction. The repository benchmark reads this to
/// split a prepare pass into simulate vs everything else; the counter
/// never influences simulation results.
pub mod timing {
    use std::sync::atomic::{AtomicU64, Ordering};

    static SIM_NANOS: AtomicU64 = AtomicU64::new(0);

    /// Nanoseconds spent inside the simulator so far (process lifetime).
    pub fn simulate_nanos() -> u64 {
        SIM_NANOS.load(Ordering::Relaxed)
    }

    /// Books one simulation's elapsed wall time.
    pub(crate) fn add_simulate_nanos(nanos: u64) {
        SIM_NANOS.fetch_add(nanos, Ordering::Relaxed);
    }
}

/// Per-thread tally of how the simulator's layer epochs ran (see the
/// epoch memo of [`sgcn_mem::MemorySystem`]). A simulation runs on its
/// caller's thread, so a test reads exactly its own simulations' tally
/// while other tests simulate beside it. The tally never influences
/// results and stays out of [`SimReport`], whose `Debug` feeds the
/// benchmark digests.
pub(crate) mod memo {
    use std::cell::Cell;

    use sgcn_mem::EpochOutcome;

    /// Epochs per outcome.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub(crate) struct EpochCounts {
        pub(crate) recorded: u64,
        pub(crate) replayed: u64,
        pub(crate) diverged: u64,
        pub(crate) unrecorded: u64,
    }

    thread_local! {
        static COUNTS: Cell<EpochCounts> = const {
            Cell::new(EpochCounts { recorded: 0, replayed: 0, diverged: 0, unrecorded: 0 })
        };
    }

    /// Books one closed epoch.
    pub(crate) fn add(outcome: EpochOutcome) {
        COUNTS.with(|c| {
            let mut n = c.get();
            match outcome {
                EpochOutcome::Recorded => n.recorded += 1,
                EpochOutcome::Replayed => n.replayed += 1,
                EpochOutcome::Diverged => n.diverged += 1,
                EpochOutcome::Unrecorded => n.unrecorded += 1,
            }
            c.set(n);
        });
    }

    /// This thread's tally so far.
    #[cfg(test)]
    pub(crate) fn counts() -> EpochCounts {
        COUNTS.with(Cell::get)
    }
}

/// Per-layer slice of a simulation (layers are the natural unit of the
/// paper's pipeline: Fig. 10 shows one layer's flow end to end).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerReport {
    /// Layer index (0-based).
    pub layer: usize,
    /// Cycles attributed to this layer (max of compute pipeline and DRAM
    /// service time).
    pub cycles: u64,
    /// Pipelined compute cycles.
    pub compute_cycles: u64,
    /// DRAM service cycles.
    pub mem_cycles: u64,
    /// Aggregation engine cycles.
    pub agg_cycles: u64,
    /// Combination engine cycles.
    pub comb_cycles: u64,
    /// MAC operations.
    pub macs: u64,
}

impl LayerReport {
    /// Whether this layer was memory-bound.
    pub fn is_memory_bound(&self) -> bool {
        self.mem_cycles >= self.compute_cycles
    }
}

/// The result of simulating one accelerator on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Accelerator name.
    pub accelerator: &'static str,
    /// Workload label (dataset abbreviation).
    pub workload: &'static str,
    /// Total execution cycles.
    pub cycles: u64,
    /// Aggregation compute cycles (before memory stalls).
    pub agg_cycles: u64,
    /// Combination compute cycles (before memory stalls).
    pub comb_cycles: u64,
    /// DRAM-limited cycles.
    pub mem_cycles: u64,
    /// Total MAC operations.
    pub macs: u64,
    /// Memory-system counters.
    pub mem: MemReport,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Estimated peak (TDP-style) power in watts.
    pub tdp_watts: f64,
    /// Per-layer breakdown, shared: a serving stream clones each
    /// request's reports per request, and a clone copies no layer.
    pub layers: Arc<[LayerReport]>,
}

impl SimReport {
    /// Total DRAM bytes moved.
    pub fn dram_bytes(&self) -> u64 {
        self.mem.dram_total_bytes()
    }

    /// DRAM bytes for one traffic class.
    pub fn dram_bytes_for(&self, kind: Traffic) -> u64 {
        self.mem.traffic(kind).dram_bytes
    }

    /// Speedup of `self` relative to `baseline` (higher = faster).
    pub fn speedup_over(&self, baseline: &SimReport) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        baseline.cycles as f64 / self.cycles as f64
    }

    /// DRAM traffic normalized to `baseline` (lower = less traffic).
    pub fn traffic_vs(&self, baseline: &SimReport) -> f64 {
        if baseline.dram_bytes() == 0 {
            return 0.0;
        }
        self.dram_bytes() as f64 / baseline.dram_bytes() as f64
    }

    /// Energy normalized to `baseline` (lower = more efficient).
    pub fn energy_vs(&self, baseline: &SimReport) -> f64 {
        let b = baseline.energy.total_pj();
        if b == 0.0 {
            return 0.0;
        }
        self.energy.total_pj() / b
    }

    /// Execution time in milliseconds at 1 GHz.
    pub fn time_ms(&self) -> f64 {
        self.cycles as f64 / 1e6
    }
}

/// Running geometric mean (the paper reports geomean speedups).
#[derive(Debug, Clone, Copy, Default)]
pub struct GeoMean {
    log_sum: f64,
    count: usize,
}

impl GeoMean {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        GeoMean::default()
    }

    /// Adds a strictly positive sample.
    ///
    /// # Panics
    ///
    /// Panics if `value <= 0`.
    pub fn push(&mut self, value: f64) {
        assert!(value > 0.0, "geomean samples must be positive, got {value}");
        self.log_sum += value.ln();
        self.count += 1;
    }

    /// The geometric mean so far (1.0 when empty).
    pub fn value(&self) -> f64 {
        if self.count == 0 {
            1.0
        } else {
            (self.log_sum / self.count as f64).exp()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64) -> SimReport {
        SimReport {
            accelerator: "test",
            workload: "WL",
            cycles,
            agg_cycles: 0,
            comb_cycles: 0,
            mem_cycles: 0,
            macs: 0,
            mem: MemReport::default(),
            energy: EnergyBreakdown::default(),
            tdp_watts: 0.0,
            layers: Vec::new().into(),
        }
    }

    #[test]
    fn speedup_ratio() {
        let fast = report(100);
        let slow = report(300);
        assert!((fast.speedup_over(&slow) - 3.0).abs() < 1e-12);
        assert!((slow.speedup_over(&fast) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_known_values() {
        let mut g = GeoMean::new();
        g.push(1.0);
        g.push(4.0);
        assert!((g.value() - 2.0).abs() < 1e-12);
        assert_eq!(g.count, 2);
    }

    #[test]
    fn geomean_empty_is_one() {
        assert_eq!(GeoMean::new().value(), 1.0);
        assert_eq!(GeoMean::new().count, 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        GeoMean::new().push(0.0);
    }

    #[test]
    fn time_ms_at_1ghz() {
        assert!((report(2_000_000).time_ms() - 2.0).abs() < 1e-12);
    }
}
