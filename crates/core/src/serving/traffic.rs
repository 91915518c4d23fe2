//! Traffic models for the queueing simulator: pluggable arrival
//! processes behind the original exponential one.
//!
//! PR 3 hard-wired the queueing simulator to open-loop Poisson arrivals.
//! Real serving traffic is rarely that polite — datacenter-tail studies
//! show that bursty and time-of-day load is where scheduling policies
//! actually differentiate — so this module opens the scenario space:
//!
//! * [`ArrivalModel`] — the trait every open-loop generator implements.
//!   Gap `i` is a **pure function of `(seed, index, model params)`**,
//!   never of simulation state or thread schedule, so timelines stay
//!   bit-identical at any `SGCN_THREADS` (the PR 3 determinism
//!   contract).
//! * [`ArrivalProcess`] — the original seeded exponential (Poisson)
//!   process, byte-for-byte the PR 3 gaps, now one implementation among
//!   several.
//! * [`BurstyArrivals`] — a Markov-modulated on/off process: fixed-size
//!   index windows flip between an *on* phase (gaps shrunk by
//!   `on_scale`) and an *off* phase (gaps stretched to preserve the
//!   aggregate mean), with the phase of window `w` drawn from
//!   `(seed, w)` alone.
//! * [`DiurnalArrivals`] — a sinusoidal rate envelope over the request
//!   index (a compressed day): the instantaneous rate swings by
//!   `±amplitude` around the base rate with a fixed period.
//! * [`ThinkTimes`] — seeded exponential think-time gaps for the
//!   closed-loop client model. The closed-loop *timeline* necessarily
//!   feeds back from completions (a client cannot issue before its
//!   previous response returns), so it is produced by the serial event
//!   loop in [`super::queueing`]; the think gaps themselves stay pure
//!   per index.
//! * [`TrafficModel`] — the parsed knob (`SGCN_TRAFFIC`) selecting one
//!   of the above.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// An open-loop arrival process: the gap before request `index` is a
/// pure function of `(seed, index, model params)` — never of the event
/// loop's state — so the absolute timeline is reproducible from the
/// stream alone.
pub trait ArrivalModel {
    /// The gap (cycles) between request `index - 1` and `index` (the
    /// gap before request 0 is its absolute arrival time).
    fn gap_cycles(&self, index: usize) -> u64;

    /// Absolute arrival times (cycles) of `n` requests, non-decreasing.
    fn timeline(&self, n: usize) -> Vec<u64> {
        let mut t = 0u64;
        (0..n)
            .map(|i| {
                t = t.saturating_add(self.gap_cycles(i));
                t
            })
            .collect()
    }
}

/// One unit-mean exponential draw from the `(seed, index)` stream: the
/// splitmix64 finalizer decorrelates indices, one uniform goes through
/// the exponential quantile. Identical regardless of evaluation order.
fn unit_exponential(seed: u64, index: usize) -> f64 {
    let mut z = seed.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let mut rng = SmallRng::seed_from_u64(z ^ (z >> 31));
    let u: f64 = rng.gen_range(0.0..1.0);
    // u < 1 strictly, so ln is finite.
    -(1.0 - u).ln()
}

/// Seeded open-loop exponential (Poisson) arrivals — the original
/// PR 3 process, gap-for-gap identical to its pre-trait form.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalProcess {
    seed: u64,
    mean_gap_cycles: f64,
}

impl ArrivalProcess {
    /// Creates the process.
    ///
    /// # Panics
    ///
    /// Panics if `mean_gap_cycles` is negative or non-finite.
    pub fn new(seed: u64, mean_gap_cycles: f64) -> Self {
        assert!(
            mean_gap_cycles.is_finite() && mean_gap_cycles >= 0.0,
            "mean inter-arrival gap must be finite and non-negative, got {mean_gap_cycles}"
        );
        ArrivalProcess {
            seed,
            mean_gap_cycles,
        }
    }
}

impl ArrivalModel for ArrivalProcess {
    fn gap_cycles(&self, index: usize) -> u64 {
        (self.mean_gap_cycles * unit_exponential(self.seed, index)).round() as u64
    }
}

/// Markov-modulated on/off (bursty) arrivals. The index axis is cut
/// into windows of `window` requests; window `w`'s phase is drawn from
/// `(seed, w)` alone (probability `duty` of being *on*). On-phase gaps
/// use `on_scale × mean`, off-phase gaps are stretched so the duty-
/// weighted mean stays the configured mean — bursts sharpen, the
/// long-run offered load does not drift.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstyArrivals {
    seed: u64,
    mean_gap_cycles: f64,
    window: usize,
    duty: f64,
    on_scale: f64,
}

impl BurstyArrivals {
    /// Creates the process.
    ///
    /// # Panics
    ///
    /// Panics unless `mean_gap_cycles` is finite and non-negative,
    /// `window > 0`, `duty` is strictly inside `(0, 1)`, and
    /// `on_scale` is in `(0, 1]`.
    pub fn new(seed: u64, mean_gap_cycles: f64, window: usize, duty: f64, on_scale: f64) -> Self {
        assert!(
            mean_gap_cycles.is_finite() && mean_gap_cycles >= 0.0,
            "mean inter-arrival gap must be finite and non-negative, got {mean_gap_cycles}"
        );
        assert!(window > 0, "burst window must be non-empty");
        assert!(
            duty > 0.0 && duty < 1.0,
            "burst duty must be strictly inside (0, 1), got {duty}"
        );
        assert!(
            on_scale > 0.0 && on_scale <= 1.0,
            "on-phase gap scale must be in (0, 1], got {on_scale}"
        );
        BurstyArrivals {
            seed,
            mean_gap_cycles,
            window,
            duty,
            on_scale,
        }
    }

    /// Whether request `index` falls in an *on* (burst) window — a pure
    /// function of `(seed, index / window)`.
    pub fn is_on(&self, index: usize) -> bool {
        let w = (index / self.window) as u64;
        // Independent phase stream: a different salt than the gap draws
        // so the phase coin never correlates with the gap magnitudes.
        let mut z =
            (self.seed ^ 0xB0B5_7E55_0000_0001).wrapping_add(w.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z as f64 / u64::MAX as f64) < self.duty
    }

    /// The phase-local mean gap at `index`.
    fn local_mean(&self, index: usize) -> f64 {
        let on_mean = self.mean_gap_cycles * self.on_scale;
        if self.is_on(index) {
            on_mean
        } else {
            // Duty-weighted complement: duty·on + (1−duty)·off = mean.
            (self.mean_gap_cycles - self.duty * on_mean) / (1.0 - self.duty)
        }
    }
}

impl ArrivalModel for BurstyArrivals {
    fn gap_cycles(&self, index: usize) -> u64 {
        (self.local_mean(index) * unit_exponential(self.seed, index)).round() as u64
    }
}

/// Sinusoidal (diurnal) rate envelope: the instantaneous arrival rate at
/// request `index` is `base × (1 + amplitude · sin(2π · index / period))`
/// — a compressed day over the index axis — so gaps shrink at the peak
/// and stretch in the trough while each stays pure per index. Because a
/// gap is the *reciprocal* of the rate, the raw envelope would inflate
/// the mean gap by `E[1/(1+a·sin)] = 1/√(1−a²)` over a full period; the
/// base is pre-multiplied by `√(1−a²)` so the aggregate arrival rate
/// stays the configured one and diurnal rows stay load-comparable with
/// the other models.
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalArrivals {
    seed: u64,
    /// The rate-preserving base gap: `mean_gap_cycles × √(1−amplitude²)`.
    base_gap_cycles: f64,
    period: usize,
    amplitude: f64,
}

impl DiurnalArrivals {
    /// Creates the process.
    ///
    /// # Panics
    ///
    /// Panics unless `mean_gap_cycles` is finite and non-negative,
    /// `period > 0`, and `amplitude` is in `[0, 1)` (an amplitude of 1
    /// would zero the trough rate and blow the gap up to infinity).
    pub fn new(seed: u64, mean_gap_cycles: f64, period: usize, amplitude: f64) -> Self {
        assert!(
            mean_gap_cycles.is_finite() && mean_gap_cycles >= 0.0,
            "mean inter-arrival gap must be finite and non-negative, got {mean_gap_cycles}"
        );
        assert!(period > 0, "diurnal period must be positive");
        assert!(
            (0.0..1.0).contains(&amplitude),
            "diurnal amplitude must be in [0, 1), got {amplitude}"
        );
        DiurnalArrivals {
            seed,
            base_gap_cycles: mean_gap_cycles * (1.0 - amplitude * amplitude).sqrt(),
            period,
            amplitude,
        }
    }

    /// The envelope-local mean gap at `index`.
    fn local_mean(&self, index: usize) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * (index % self.period) as f64 / self.period as f64;
        self.base_gap_cycles / (1.0 + self.amplitude * phase.sin())
    }
}

impl ArrivalModel for DiurnalArrivals {
    fn gap_cycles(&self, index: usize) -> u64 {
        (self.local_mean(index) * unit_exponential(self.seed, index)).round() as u64
    }
}

/// Seeded exponential think times for the closed-loop client model: the
/// gap a client waits between receiving request `index`'s response (or
/// its shed notice) and issuing its next request. Pure per index; drawn
/// from a salted stream so think gaps never correlate with any open-loop
/// model's gaps under the same seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ThinkTimes {
    seed: u64,
    mean_cycles: f64,
}

impl ThinkTimes {
    /// Creates the process.
    ///
    /// # Panics
    ///
    /// Panics if `mean_cycles` is negative or non-finite.
    pub fn new(seed: u64, mean_cycles: f64) -> Self {
        assert!(
            mean_cycles.is_finite() && mean_cycles >= 0.0,
            "mean think time must be finite and non-negative, got {mean_cycles}"
        );
        ThinkTimes {
            seed: seed ^ 0x7111_4C71_AE5E_ED00,
            mean_cycles,
        }
    }

    /// The think gap after request `index` completes (or is shed).
    pub fn gap_cycles(&self, index: usize) -> u64 {
        (self.mean_cycles * unit_exponential(self.seed, index)).round() as u64
    }
}

/// The traffic-model knob of one queueing run (`SGCN_TRAFFIC`): which
/// arrival generator drives the event loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficModel {
    /// Open-loop exponential (Poisson) — the PR 3 default.
    Exponential,
    /// Open-loop Markov-modulated on/off bursts.
    Bursty {
        /// Requests per phase window.
        window: usize,
        /// Probability a window is *on* (bursting).
        duty: f64,
        /// On-phase gap shrink factor in `(0, 1]`.
        on_scale: f64,
    },
    /// Open-loop sinusoidal rate envelope (compressed day).
    Diurnal {
        /// Requests per full sine period.
        period: usize,
        /// Rate swing around the base rate, in `[0, 1)`.
        amplitude: f64,
    },
    /// Closed loop: `clients` concurrent clients, each issuing its next
    /// request one seeded think time after its previous response (so at
    /// most `clients` requests are ever in flight).
    ClosedLoop {
        /// Concurrent clients (the in-flight bound K).
        clients: usize,
    },
}

impl TrafficModel {
    /// The default bursty shape: 16-request windows, half the windows
    /// on, on-phase gaps at one fifth of the mean.
    pub fn bursty_default() -> TrafficModel {
        TrafficModel::Bursty {
            window: 16,
            duty: 0.5,
            on_scale: 0.2,
        }
    }

    /// The default diurnal shape: a 48-request day swinging the rate by
    /// ±80 %.
    pub fn diurnal_default() -> TrafficModel {
        TrafficModel::Diurnal {
            period: 48,
            amplitude: 0.8,
        }
    }

    /// Display label (stable — appears in golden snapshots and
    /// `BENCH_queue.json`).
    pub fn label(&self) -> String {
        match self {
            TrafficModel::Exponential => "exponential".into(),
            TrafficModel::Bursty { .. } => "bursty".into(),
            TrafficModel::Diurnal { .. } => "diurnal".into(),
            TrafficModel::ClosedLoop { clients } => format!("closed:{clients}"),
        }
    }

    /// Parses an `SGCN_TRAFFIC`-style name (`exp`, `bursty`, `diurnal`,
    /// `closed` or `closed:K`); `None` for unknown names. Parameterized
    /// shapes use the defaults; `closed` without a client count gets
    /// eight clients.
    pub fn parse(name: &str) -> Option<TrafficModel> {
        let name = name.trim().to_ascii_lowercase();
        match name.as_str() {
            "exp" | "exponential" | "poisson" | "open" => Some(TrafficModel::Exponential),
            "bursty" | "burst" | "onoff" | "mmpp" => Some(TrafficModel::bursty_default()),
            "diurnal" | "sin" | "sinusoidal" => Some(TrafficModel::diurnal_default()),
            "closed" | "closed-loop" => Some(TrafficModel::ClosedLoop { clients: 8 }),
            _ => {
                let clients = name
                    .strip_prefix("closed:")
                    .or_else(|| name.strip_prefix("closed-loop:"))?
                    .parse()
                    .ok()
                    .filter(|&k: &usize| k > 0)?;
                Some(TrafficModel::ClosedLoop { clients })
            }
        }
    }

    /// The open-loop generator for this model at `(seed, mean gap)`, or
    /// `None` for the closed-loop model (whose timeline is produced by
    /// the event loop itself).
    pub fn open_loop(&self, seed: u64, mean_gap_cycles: f64) -> Option<Box<dyn ArrivalModel>> {
        match *self {
            TrafficModel::Exponential => Some(Box::new(ArrivalProcess::new(seed, mean_gap_cycles))),
            TrafficModel::Bursty {
                window,
                duty,
                on_scale,
            } => Some(Box::new(BurstyArrivals::new(
                seed,
                mean_gap_cycles,
                window,
                duty,
                on_scale,
            ))),
            TrafficModel::Diurnal { period, amplitude } => Some(Box::new(DiurnalArrivals::new(
                seed,
                mean_gap_cycles,
                period,
                amplitude,
            ))),
            TrafficModel::ClosedLoop { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn models(seed: u64, mean: f64) -> Vec<Box<dyn ArrivalModel>> {
        vec![
            Box::new(ArrivalProcess::new(seed, mean)),
            Box::new(BurstyArrivals::new(seed, mean, 8, 0.5, 0.2)),
            Box::new(DiurnalArrivals::new(seed, mean, 24, 0.8)),
        ]
    }

    #[test]
    fn every_model_is_index_pure_and_monotone() {
        for model in models(42, 1500.0) {
            let direct: Vec<u64> = (0..48).map(|i| model.gap_cycles(i)).collect();
            let mut reversed: Vec<u64> = (0..48).rev().map(|i| model.gap_cycles(i)).collect();
            reversed.reverse();
            assert_eq!(direct, reversed, "gap must be pure in (seed, index)");
            let t = model.timeline(48);
            assert!(t.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");
            assert_eq!(model.timeline(48), t, "replay identical");
        }
    }

    #[test]
    fn seeds_decorrelate_timelines() {
        for (a, b) in models(1, 1000.0).into_iter().zip(models(2, 1000.0)) {
            assert_ne!(a.timeline(32), b.timeline(32));
        }
    }

    #[test]
    fn zero_mean_collapses_to_batch_arrivals() {
        for model in models(7, 0.0) {
            assert_eq!(model.timeline(8), vec![0; 8]);
        }
    }

    #[test]
    fn bursty_on_windows_run_hotter_than_off_windows() {
        let b = BurstyArrivals::new(9, 1000.0, 16, 0.5, 0.2);
        // Mean gap per phase over many windows: on-phase gaps must be
        // sharply shorter than off-phase gaps.
        let (mut on_sum, mut on_n, mut off_sum, mut off_n) = (0u64, 0u64, 0u64, 0u64);
        for i in 0..4096 {
            if b.is_on(i) {
                on_sum += b.gap_cycles(i);
                on_n += 1;
            } else {
                off_sum += b.gap_cycles(i);
                off_n += 1;
            }
        }
        assert!(
            on_n > 500 && off_n > 500,
            "both phases occur ({on_n}/{off_n})"
        );
        let on_mean = on_sum as f64 / on_n as f64;
        let off_mean = off_sum as f64 / off_n as f64;
        assert!(
            on_mean * 3.0 < off_mean,
            "on {on_mean} not sharply below off {off_mean}"
        );
        // The duty-weighted aggregate stays near the configured mean.
        let total_mean = (on_sum + off_sum) as f64 / 4096.0;
        assert!(
            (600.0..1400.0).contains(&total_mean),
            "aggregate mean {total_mean}"
        );
    }

    #[test]
    fn diurnal_peak_gaps_shrink_and_trough_gaps_stretch() {
        let d = DiurnalArrivals::new(11, 1000.0, 64, 0.8);
        // Compare local means directly (the draws are noisy). The base
        // is 1000·√(1−0.8²) = 600 so the aggregate rate holds.
        let peak = d.local_mean(16); // sin = 1 quarter-way through
        let trough = d.local_mean(48); // sin = −1 three quarters through
        assert!((peak - 600.0 / 1.8).abs() < 1e-9, "peak mean {peak}");
        assert!((trough - 600.0 / 0.2).abs() < 1e-9, "trough mean {trough}");
        let flat = d.local_mean(0);
        assert!((flat - 600.0).abs() < 1e-9, "zero-phase mean {flat}");
        // Rate preservation: the empirical mean gap over whole periods
        // stays near the configured 1000 (reciprocal bias compensated).
        let n = 64 * 64;
        let mean = d.timeline(n).last().copied().unwrap() as f64 / n as f64;
        assert!((700.0..1300.0).contains(&mean), "aggregate mean {mean}");
    }

    #[test]
    fn think_times_are_pure_and_salted() {
        let t = ThinkTimes::new(5, 2000.0);
        let a: Vec<u64> = (0..16).map(|i| t.gap_cycles(i)).collect();
        let b: Vec<u64> = (0..16).map(|i| t.gap_cycles(i)).collect();
        assert_eq!(a, b);
        // The salt decorrelates think gaps from arrival gaps at the same
        // seed and mean.
        let arrivals = ArrivalProcess::new(5, 2000.0);
        let c: Vec<u64> = (0..16).map(|i| arrivals.gap_cycles(i)).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn traffic_model_labels_and_parse_round_trip() {
        for (name, model) in [
            ("exp", TrafficModel::Exponential),
            ("bursty", TrafficModel::bursty_default()),
            ("diurnal", TrafficModel::diurnal_default()),
            ("closed:8", TrafficModel::ClosedLoop { clients: 8 }),
            ("closed:3", TrafficModel::ClosedLoop { clients: 3 }),
        ] {
            assert_eq!(TrafficModel::parse(name), Some(model), "{name}");
        }
        assert_eq!(
            TrafficModel::parse("closed"),
            Some(TrafficModel::ClosedLoop { clients: 8 })
        );
        assert_eq!(TrafficModel::parse("bogus"), None);
        assert_eq!(TrafficModel::parse("closed:0"), None);
        assert_eq!(TrafficModel::Exponential.label(), "exponential");
        assert_eq!(TrafficModel::ClosedLoop { clients: 4 }.label(), "closed:4");
    }

    #[test]
    fn open_loop_constructor_matches_model_kind() {
        assert!(TrafficModel::Exponential.open_loop(1, 10.0).is_some());
        assert!(TrafficModel::bursty_default().open_loop(1, 10.0).is_some());
        assert!(TrafficModel::diurnal_default().open_loop(1, 10.0).is_some());
        assert!(TrafficModel::ClosedLoop { clients: 2 }
            .open_loop(1, 10.0)
            .is_none());
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn full_amplitude_panics() {
        let _ = DiurnalArrivals::new(0, 100.0, 8, 1.0);
    }

    #[test]
    #[should_panic(expected = "duty")]
    fn degenerate_duty_panics() {
        let _ = BurstyArrivals::new(0, 100.0, 8, 1.0, 0.5);
    }
}
