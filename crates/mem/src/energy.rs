//! Per-event energy model.
//!
//! Substitutes the paper's Synopsys DC + CACTI 6.5 flow (§VI-A) with
//! per-event constants at a ~32 nm-class node, drawn from the accelerator
//! literature (Horowitz ISSCC'14 energy table and CACTI-class SRAM
//! numbers). The paper's Fig. 13 separates energy into compute, cache and
//! DRAM components; this model produces the same three-way breakdown from
//! event counts.

/// Energy cost constants (picojoules per event).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// One 32-bit fixed-point MAC.
    pub pj_per_mac: f64,
    /// One 64 B access to the global SRAM cache.
    pub pj_per_cache_line: f64,
    /// One byte moved to/from DRAM (HBM2-class ≈ 4 pJ/bit).
    pub pj_per_dram_byte: f64,
    /// Static / leakage + clocking power in watts, charged per cycle.
    pub static_watts: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            pj_per_mac: 1.0,
            pj_per_cache_line: 100.0,
            pj_per_dram_byte: 32.0,
            static_watts: 0.8,
        }
    }
}

/// Energy totals in picojoules, split the way the paper's Fig. 13 plots
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Compute (MAC) energy.
    pub compute_pj: f64,
    /// On-chip cache energy.
    pub cache_pj: f64,
    /// Off-chip DRAM energy.
    pub dram_pj: f64,
    /// Static energy over the execution.
    pub static_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total_pj(&self) -> f64 {
        self.compute_pj + self.cache_pj + self.dram_pj + self.static_pj
    }

    /// Total in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.total_pj() / 1e9
    }
}

impl EnergyModel {
    /// Computes the breakdown from event counts.
    ///
    /// `cycles` is the execution time at 1 GHz (1 cycle = 1 ns), used for
    /// the static component.
    pub fn breakdown(
        &self,
        macs: u64,
        cache_line_accesses: u64,
        dram_bytes: u64,
        cycles: u64,
    ) -> EnergyBreakdown {
        EnergyBreakdown {
            compute_pj: macs as f64 * self.pj_per_mac,
            cache_pj: cache_line_accesses as f64 * self.pj_per_cache_line,
            dram_pj: dram_bytes as f64 * self.pj_per_dram_byte,
            // 1 W × 1 ns = 1e-9 J = 1000 pJ per cycle per watt.
            static_pj: self.static_watts * cycles as f64 * 1000.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_is_linear_in_events() {
        let m = EnergyModel::default();
        let b1 = m.breakdown(1000, 100, 4096, 0);
        let b2 = m.breakdown(2000, 200, 8192, 0);
        assert!((b2.compute_pj - 2.0 * b1.compute_pj).abs() < 1e-9);
        assert!((b2.cache_pj - 2.0 * b1.cache_pj).abs() < 1e-9);
        assert!((b2.dram_pj - 2.0 * b1.dram_pj).abs() < 1e-9);
    }

    #[test]
    fn dram_dominates_for_memory_bound_run() {
        // The paper: "much of the energy consumption comes from memory
        // accesses" — sanity-check the constants give that shape for a
        // memory-bound profile (1 MAC per feature element, every element
        // from DRAM).
        let m = EnergyModel::default();
        let elems = 1_000_000u64;
        let b = m.breakdown(elems, elems / 16, elems * 4, 0);
        assert!(b.dram_pj > b.compute_pj * 10.0);
        assert!(b.dram_pj > b.cache_pj);
    }

    #[test]
    fn static_energy_scales_with_time() {
        let m = EnergyModel::default();
        let b = m.breakdown(0, 0, 0, 1_000_000);
        // 0.8 W × 1 ms = 0.8 mJ.
        assert!((b.total_mj() - 0.8).abs() < 1e-9);
    }
}
