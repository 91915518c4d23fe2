//! Hardware configuration (the paper's Table III).

use sgcn_engines::SystolicConfig;
use sgcn_mem::{CacheConfig, DramConfig, HbmGeneration};

/// The evaluated accelerator platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwConfig {
    /// Clock frequency in Hz (Table III: 1 GHz). Cycle counts are reported
    /// in this clock.
    pub frequency_hz: u64,
    /// Number of aggregation engines (Table III: 8).
    pub aggregation_engines: usize,
    /// SIMD lanes per aggregation engine (Table III: 16-way).
    pub simd_lanes: usize,
    /// Number of combination engines (Table III: 8).
    pub combination_engines: usize,
    /// Systolic array geometry per combination engine (Table III: 32×32).
    pub systolic: SystolicConfig,
    /// Global cache geometry (Table III: 512 KB, 16-way, LRU).
    pub cache: CacheConfig,
    /// Off-chip memory (Table III: HBM2, 256 GB/s, 8 channels, 4×4 banks).
    pub dram: DramConfig,
}

impl Default for HwConfig {
    fn default() -> Self {
        HwConfig {
            frequency_hz: 1_000_000_000,
            aggregation_engines: 8,
            simd_lanes: 16,
            combination_engines: 8,
            systolic: SystolicConfig::default(),
            cache: CacheConfig::default(),
            dram: DramConfig::hbm2(),
        }
    }
}

impl HwConfig {
    /// Replaces the cache capacity (Fig. 15b sensitivity).
    pub fn with_cache_kib(mut self, kib: u64) -> Self {
        self.cache = CacheConfig::with_capacity_kib(kib);
        self
    }

    /// Replaces the engine counts, keeping aggregation = combination
    /// (Fig. 18 scalability).
    pub fn with_engines(mut self, engines: usize) -> Self {
        assert!(engines > 0, "engine count must be non-zero");
        self.aggregation_engines = engines;
        self.combination_engines = engines;
        self
    }

    /// Selects the HBM generation (Fig. 18).
    pub fn with_hbm(mut self, gen: HbmGeneration) -> Self {
        self.dram = DramConfig::for_generation(gen);
        self
    }

    /// Replaces the cache replacement policy (policy ablation).
    pub fn with_cache_policy(mut self, policy: sgcn_mem::ReplacementPolicy) -> Self {
        self.cache.policy = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table3() {
        let c = HwConfig::default();
        assert_eq!(c.frequency_hz, 1_000_000_000);
        assert_eq!(c.aggregation_engines, 8);
        assert_eq!(c.simd_lanes, 16);
        assert_eq!(c.systolic.rows, 32);
        assert_eq!(c.cache.capacity_bytes, 512 * 1024);
        assert_eq!(c.dram.channels, 8);
        // Peak MACs per cycle across engines.
        assert_eq!(c.aggregation_engines * c.simd_lanes, 128);
        assert_eq!(
            c.combination_engines * c.systolic.rows * c.systolic.cols,
            8 * 1024
        );
    }

    #[test]
    fn builders_adjust() {
        let c = HwConfig::default()
            .with_cache_kib(1024)
            .with_engines(16)
            .with_hbm(HbmGeneration::Hbm1);
        assert_eq!(c.cache.capacity_bytes, 1024 * 1024);
        assert_eq!(c.aggregation_engines, 16);
        assert!((c.dram.peak_bytes_per_cycle - 128.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "engine count")]
    fn zero_engines_panics() {
        let _ = HwConfig::default().with_engines(0);
    }
}
