//! HBM DRAM model.
//!
//! Replaces the paper's DRAMsim3 + HBM2 setup (Table III: 8 channels, 4×4
//! banks, 256 GB/s peak) with an in-crate model that captures what the
//! BEICSR design actually exercises: burst-granular transfers, channel
//! interleaving, per-bank row-buffer locality, and a per-channel service
//! clock whose maximum gives the elapsed memory time. HBM1 halves the
//! per-channel bandwidth (Fig. 18's scalability study).

/// HBM generation selector (Fig. 18 compares both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HbmGeneration {
    /// First-generation HBM: 128 GB/s peak.
    Hbm1,
    /// HBM2, the paper's default: 256 GB/s peak (Table III).
    #[default]
    Hbm2,
}

/// Physical address mapping — how bursts spread over channels and banks.
///
/// §IV's second design goal says the compression format "should be aware
/// of the memory subsystem and exploit it"; which mapping the subsystem
/// uses changes what "exploiting" means, so the model makes it explicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AddressMapping {
    /// Fine channel interleave: consecutive bursts round-robin over
    /// channels, rows span a contiguous region (default; maximizes
    /// streaming bandwidth).
    #[default]
    ChannelInterleaved,
    /// Bank-first interleave: consecutive rows land on different banks of
    /// the same channel before switching channels (spreads strided
    /// accesses over banks, narrows streaming parallelism).
    BankInterleaved,
}

/// DRAM geometry and timing, in accelerator cycles (1 GHz per Table III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Independent channels (Table III: 8).
    pub channels: usize,
    /// Banks per channel (Table III: 4×4 = 16).
    pub banks_per_channel: usize,
    /// Burst (minimum transfer) size in bytes.
    pub burst_bytes: u64,
    /// Row-buffer (page) size in bytes per bank.
    pub row_bytes: u64,
    /// Aggregate peak bandwidth in bytes per accelerator cycle.
    pub peak_bytes_per_cycle: f64,
    /// Fraction of peak bandwidth actually achievable on the data bus
    /// (refresh, read/write turnaround, rank-to-rank bubbles). DRAMsim3
    /// measures ~70–80% for mixed access streams.
    pub efficiency: f64,
    /// Extra service cycles charged on a row-buffer miss
    /// (precharge + activate).
    pub row_miss_penalty: u64,
    /// Physical address mapping.
    pub mapping: AddressMapping,
}

impl DramConfig {
    /// The paper's HBM2 module at a 1 GHz accelerator clock: 256 GB/s peak
    /// → 256 B/cycle aggregate.
    pub fn hbm2() -> Self {
        DramConfig {
            channels: 8,
            banks_per_channel: 16,
            burst_bytes: 64,
            row_bytes: 2048,
            peak_bytes_per_cycle: 256.0,
            efficiency: 0.75,
            row_miss_penalty: 28,
            mapping: AddressMapping::ChannelInterleaved,
        }
    }

    /// First-generation HBM at half the bandwidth.
    pub fn hbm1() -> Self {
        DramConfig {
            peak_bytes_per_cycle: 128.0,
            ..DramConfig::hbm2()
        }
    }

    /// Selects by generation.
    pub fn for_generation(gen: HbmGeneration) -> Self {
        match gen {
            HbmGeneration::Hbm1 => DramConfig::hbm1(),
            HbmGeneration::Hbm2 => DramConfig::hbm2(),
        }
    }

    /// Per-channel bandwidth in bytes per cycle.
    pub fn channel_bytes_per_cycle(&self) -> f64 {
        self.peak_bytes_per_cycle / self.channels as f64
    }

    /// Service cycles for one burst on its channel (no row penalty),
    /// derated by the achievable-bandwidth efficiency.
    pub fn burst_cycles(&self) -> f64 {
        self.burst_bytes as f64
            / (self.channel_bytes_per_cycle() * self.efficiency.clamp(0.05, 1.0))
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig::hbm2()
    }
}

/// Access counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DramStats {
    /// Read bursts serviced.
    pub read_bursts: u64,
    /// Write bursts serviced.
    pub write_bursts: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses.
    pub row_misses: u64,
}

impl DramStats {
    /// All bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Row-buffer hit rate in `[0, 1]`.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// Channel occupancy charged per row miss. HBM carries commands on a
/// separate command/address bus, so a miss costs the data bus almost
/// nothing; the activate latency itself lands on the bank clock below.
const MISS_CMD_CYCLES: f64 = 1.0;

/// Sentinel for a closed row (row indices derived from addresses stay far
/// below this).
const NO_ROW: u64 = u64::MAX;

/// The HBM device model: open-row tracking per bank, service-time
/// accumulation per channel, activate time accumulated per bank (banks
/// activate in parallel — bank-level parallelism hides most of the row
/// penalty when misses spread across banks).
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    /// Open row per (channel, bank), flattened channel-major;
    /// [`NO_ROW`] = closed. Flat storage keeps the per-burst row check a
    /// single indexed load instead of two pointer chases.
    open_rows: Vec<u64>,
    /// Accumulated data/command busy cycles per channel.
    busy: Vec<f64>,
    /// Accumulated activate/precharge busy cycles per (channel, bank),
    /// flattened channel-major.
    bank_busy: Vec<f64>,
    stats: DramStats,
    /// Precomputed address-arithmetic divisors (shift/mask when the
    /// geometry is a power of two — the hot path of every burst).
    burst_div: crate::fastdiv::FastDiv,
    channel_div: crate::fastdiv::FastDiv,
    row_div: crate::fastdiv::FastDiv,
    bank_div: crate::fastdiv::FastDiv,
    /// [`DramConfig::burst_cycles`], evaluated once.
    burst_cycles: f64,
}

impl Dram {
    /// Creates an idle device.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate.
    pub fn new(config: DramConfig) -> Self {
        assert!(
            config.channels > 0 && config.banks_per_channel > 0 && config.burst_bytes > 0,
            "degenerate DRAM geometry"
        );
        Dram {
            open_rows: vec![NO_ROW; config.channels * config.banks_per_channel],
            busy: vec![0.0; config.channels],
            bank_busy: vec![0.0; config.channels * config.banks_per_channel],
            stats: DramStats::default(),
            burst_div: crate::fastdiv::FastDiv::new(config.burst_bytes),
            channel_div: crate::fastdiv::FastDiv::new(config.channels as u64),
            row_div: crate::fastdiv::FastDiv::new((config.row_bytes / config.burst_bytes).max(1)),
            bank_div: crate::fastdiv::FastDiv::new(config.banks_per_channel as u64),
            burst_cycles: config.burst_cycles(),
            config,
        }
    }

    /// Geometry/timing.
    pub fn config(&self) -> DramConfig {
        self.config
    }

    /// Counters so far.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Services a single burst-aligned access at `addr` (the burst
    /// containing it). Returns the service cycles charged to its channel.
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool) -> f64 {
        let burst = self.burst_div.div(addr);
        let (channel, bank, row) = match self.config.mapping {
            AddressMapping::ChannelInterleaved => {
                let channel = self.channel_div.rem(burst) as usize;
                let within = self.channel_div.div(burst);
                let row_global = self.row_div.div(within);
                let bank = self.bank_div.rem(row_global) as usize;
                (channel, bank, self.bank_div.div(row_global))
            }
            AddressMapping::BankInterleaved => {
                // Rows fill one channel's banks first: row index cycles
                // banks, then channels, then advances the row.
                let row_global = self.row_div.div(burst);
                let bank = self.bank_div.rem(row_global) as usize;
                let after_bank = self.bank_div.div(row_global);
                let channel = self.channel_div.rem(after_bank) as usize;
                (channel, bank, self.channel_div.div(after_bank))
            }
        };

        let slot = channel * self.config.banks_per_channel + bank;
        let open = &mut self.open_rows[slot];
        let mut cycles = self.burst_cycles;
        if *open == row {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
            *open = row;
            // The activate/precharge latency lands on the bank (banks
            // overlap); the channel pays only command-bus occupancy.
            cycles += MISS_CMD_CYCLES;
            self.bank_busy[slot] += self.config.row_miss_penalty as f64 + self.burst_cycles;
        }
        self.busy[channel] += cycles;
        if is_write {
            self.stats.write_bursts += 1;
            self.stats.bytes_written += self.config.burst_bytes;
        } else {
            self.stats.read_bursts += 1;
            self.stats.bytes_read += self.config.burst_bytes;
        }
        cycles
    }

    /// Services `count` accesses at `stride_bytes` intervals from `addr`
    /// — the batched DRAM walk behind the line-run replay (a compacted
    /// read run's miss sub-runs, a streaming write run, an uncached
    /// topology stream). [`crate::MemorySystem`] moves a line larger
    /// than a burst as its consecutive bursts, so every run of lines at
    /// least one burst wide arrives here with the stride equal to the
    /// burst size — including a [`crate::CacheConfig::row_granular`]
    /// cache's row-lines, whose bursts are exactly the ones the
    /// line-granular cache it twins would issue. At that stride the
    /// channel/bank/row decomposition advances incrementally instead of
    /// re-dividing the address per burst; any other stride (lines
    /// smaller than a burst) falls back to [`Dram::access`] per access.
    /// Either way the per-burst sequence — including the order the `f64`
    /// channel/bank clocks accumulate in — is identical to calling
    /// [`Dram::access`] per address, so every counter and clock stays
    /// bit-identical.
    pub fn access_run(&mut self, addr: u64, count: u64, stride_bytes: u64, is_write: bool) {
        if count == 0 {
            return;
        }
        if stride_bytes != self.config.burst_bytes {
            for i in 0..count {
                self.access(addr + i * stride_bytes, is_write);
            }
            return;
        }
        let channels = self.config.channels as u64;
        let banks = self.config.banks_per_channel as u64;
        let bursts_per_row = self.row_div.divisor();
        let burst = self.burst_div.div(addr);
        let burst_cycles = self.burst_cycles;
        let miss_bank_cycles = self.config.row_miss_penalty as f64 + burst_cycles;

        // Walk (channel, bank, row) incrementally from the first burst's
        // decomposition; the wrap chain mirrors how each index is a
        // quotient/remainder of the previous one.
        match self.config.mapping {
            AddressMapping::ChannelInterleaved => {
                let mut channel = self.channel_div.rem(burst);
                let within = self.channel_div.div(burst);
                let mut win_in_row = self.row_div.rem(within);
                let row_global = self.row_div.div(within);
                let mut bank = self.bank_div.rem(row_global);
                let mut row = self.bank_div.div(row_global);
                for _ in 0..count {
                    let slot = (channel * banks + bank) as usize;
                    let mut cycles = burst_cycles;
                    if self.open_rows[slot] == row {
                        self.stats.row_hits += 1;
                    } else {
                        self.stats.row_misses += 1;
                        self.open_rows[slot] = row;
                        cycles += MISS_CMD_CYCLES;
                        self.bank_busy[slot] += miss_bank_cycles;
                    }
                    self.busy[channel as usize] += cycles;
                    channel += 1;
                    if channel == channels {
                        channel = 0;
                        win_in_row += 1;
                        if win_in_row == bursts_per_row {
                            win_in_row = 0;
                            bank += 1;
                            if bank == banks {
                                bank = 0;
                                row += 1;
                            }
                        }
                    }
                }
            }
            AddressMapping::BankInterleaved => {
                let mut win_in_row = self.row_div.rem(burst);
                let row_global = self.row_div.div(burst);
                let mut bank = self.bank_div.rem(row_global);
                let after_bank = self.bank_div.div(row_global);
                let mut channel = self.channel_div.rem(after_bank);
                let mut row = self.channel_div.div(after_bank);
                for _ in 0..count {
                    let slot = (channel * banks + bank) as usize;
                    let mut cycles = burst_cycles;
                    if self.open_rows[slot] == row {
                        self.stats.row_hits += 1;
                    } else {
                        self.stats.row_misses += 1;
                        self.open_rows[slot] = row;
                        cycles += MISS_CMD_CYCLES;
                        self.bank_busy[slot] += miss_bank_cycles;
                    }
                    self.busy[channel as usize] += cycles;
                    win_in_row += 1;
                    if win_in_row == bursts_per_row {
                        win_in_row = 0;
                        bank += 1;
                        if bank == banks {
                            bank = 0;
                            channel += 1;
                            if channel == channels {
                                channel = 0;
                                row += 1;
                            }
                        }
                    }
                }
            }
        }
        // Byte/burst totals are order-free integers: book them in bulk.
        let bytes = count * self.config.burst_bytes;
        if is_write {
            self.stats.write_bursts += count;
            self.stats.bytes_written += bytes;
        } else {
            self.stats.read_bursts += count;
            self.stats.bytes_read += bytes;
        }
    }

    /// The original burst-service routine, kept verbatim as the test
    /// oracle of [`Dram::access`]: every address split re-derives its
    /// divisors and `burst_cycles` re-divides on each call. Produces
    /// bit-identical latencies, state and statistics to [`Dram::access`]
    /// (`tests/proptest_lineruns.rs` checks it on both address mappings).
    pub fn access_reference(&mut self, addr: u64, is_write: bool) -> f64 {
        let burst = addr / self.config.burst_bytes;
        let bursts_per_row = (self.config.row_bytes / self.config.burst_bytes).max(1);
        let (channel, bank, row) = match self.config.mapping {
            AddressMapping::ChannelInterleaved => {
                let channel = (burst % self.config.channels as u64) as usize;
                let within = burst / self.config.channels as u64;
                let row_global = within / bursts_per_row;
                let bank = (row_global % self.config.banks_per_channel as u64) as usize;
                (
                    channel,
                    bank,
                    row_global / self.config.banks_per_channel as u64,
                )
            }
            AddressMapping::BankInterleaved => {
                let row_global = burst / bursts_per_row;
                let bank = (row_global % self.config.banks_per_channel as u64) as usize;
                let after_bank = row_global / self.config.banks_per_channel as u64;
                let channel = (after_bank % self.config.channels as u64) as usize;
                (channel, bank, after_bank / self.config.channels as u64)
            }
        };

        let slot = channel * self.config.banks_per_channel + bank;
        let open = &mut self.open_rows[slot];
        let mut cycles = self.config.burst_cycles();
        if *open == row {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
            *open = row;
            cycles += MISS_CMD_CYCLES;
            self.bank_busy[slot] +=
                self.config.row_miss_penalty as f64 + self.config.burst_cycles();
        }
        self.busy[channel] += cycles;
        if is_write {
            self.stats.write_bursts += 1;
            self.stats.bytes_written += self.config.burst_bytes;
        } else {
            self.stats.read_bursts += 1;
            self.stats.bytes_read += self.config.burst_bytes;
        }
        cycles
    }

    /// Elapsed memory time so far: the busiest channel's data time or the
    /// busiest bank's activate time, whichever binds (channels and banks
    /// operate in parallel).
    pub fn elapsed_cycles(&self) -> u64 {
        let chan = self.busy.iter().copied().fold(0.0f64, f64::max);
        let bank = self.bank_busy.iter().copied().fold(0.0f64, f64::max);
        chan.max(bank).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hbm2_headline_numbers() {
        let c = DramConfig::hbm2();
        assert_eq!(c.channels, 8);
        assert_eq!(c.banks_per_channel, 16);
        assert!((c.channel_bytes_per_cycle() - 32.0).abs() < 1e-12);
        // 64 B over 32 B/cycle at 75% achievable efficiency.
        assert!((c.burst_cycles() - 64.0 / 24.0).abs() < 1e-12);
        assert!((DramConfig::hbm1().peak_bytes_per_cycle - 128.0).abs() < 1e-12);
    }

    #[test]
    fn sequential_stream_mostly_row_hits() {
        let mut d = Dram::new(DramConfig::hbm2());
        for i in 0..1024u64 {
            d.access(i * 64, false);
        }
        let s = d.stats();
        assert!(s.row_hit_rate() > 0.9, "hit rate {}", s.row_hit_rate());
        assert_eq!(s.bytes_read, 1024 * 64);
    }

    #[test]
    fn random_stride_causes_row_misses() {
        let mut d = Dram::new(DramConfig::hbm2());
        // Stride far beyond a row per access, same channel alignment.
        let mut addr = 0u64;
        for _ in 0..256 {
            d.access(addr, false);
            addr += 1 << 20;
        }
        assert!(d.stats().row_hit_rate() < 0.6);
    }

    #[test]
    fn channels_run_in_parallel() {
        let cfg = DramConfig::hbm2();
        let mut d = Dram::new(cfg);
        // 8 bursts hitting 8 different channels: elapsed ≈ one burst's
        // service, not 8×.
        for ch in 0..8u64 {
            d.access(ch * 64, false);
        }
        let elapsed = d.elapsed_cycles();
        let serial = (cfg.burst_cycles() + cfg.row_miss_penalty as f64) * 8.0;
        assert!(
            (elapsed as f64) < serial / 4.0,
            "elapsed {elapsed} vs serial {serial}"
        );
    }

    #[test]
    fn same_channel_serializes() {
        let cfg = DramConfig::hbm2();
        let mut d = Dram::new(cfg);
        for i in 0..8u64 {
            d.access(i * 64 * 8, false); // all map to channel 0
        }
        assert!(d.elapsed_cycles() as f64 >= cfg.burst_cycles() * 8.0);
    }

    #[test]
    fn bank_interleaved_streaming_uses_one_channel_at_a_time() {
        // A sequential stream under bank-first mapping stays on one
        // channel for banks×row_bytes before moving on — lower streaming
        // parallelism than the channel-interleaved default.
        let chan_cfg = DramConfig::hbm2();
        let bank_cfg = DramConfig {
            mapping: AddressMapping::BankInterleaved,
            ..DramConfig::hbm2()
        };
        let run = |cfg: DramConfig| {
            let mut d = Dram::new(cfg);
            for i in 0..512u64 {
                d.access(i * 64, false);
            }
            d.elapsed_cycles()
        };
        assert!(run(bank_cfg) > run(chan_cfg));
    }

    #[test]
    fn bank_interleaved_spreads_row_strides_over_banks() {
        // Strided accesses at the row granularity hit different banks
        // under bank-first mapping → row-miss latency overlaps.
        let cfg = DramConfig {
            mapping: AddressMapping::BankInterleaved,
            ..DramConfig::hbm2()
        };
        let mut d = Dram::new(cfg);
        for i in 0..64u64 {
            d.access(i * cfg.row_bytes, false);
        }
        // All misses, but spread across banks/channels: the elapsed time
        // is far below the serial activate time.
        let serial = 64.0 * (cfg.row_miss_penalty as f64 + cfg.burst_cycles());
        assert!((d.elapsed_cycles() as f64) < serial / 4.0);
    }
}
