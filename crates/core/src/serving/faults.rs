//! Failure drills for the queueing simulator: deterministic engine
//! crash/recovery schedules, bounded retry/redrive, and elastic
//! autoscaling.
//!
//! The scenario lab (PRs 3–5) models live traffic, SLOs and
//! heterogeneous fleets, but every engine was immortal and every fleet
//! static. This module supplies the missing resilience knobs, all under
//! the same purity discipline as [`super::traffic`] — every schedule is
//! a pure function of `(seed, engine, incident, params)`, never of
//! simulation state or thread schedule:
//!
//! * [`FailureModel`] — how engines fail: never, a fixed script of
//!   incidents (absolute cycles), or MTBF/MTTR-style exponential draws
//!   coined from `(seed, engine, incident)` with the means expressed in
//!   multiples of the stream's mean cold service time (so one knob
//!   setting stresses quick- and paper-scale runs alike).
//! * [`FaultPlan`] — the materialized schedule: a time-sorted list of
//!   [`Incident`]s the event loop injects as first-class events. A
//!   crashed engine drops its in-flight request and its queue; a
//!   recovered engine returns **cold** (its `RowCache` flushed), so
//!   warm-hit rates honestly pay the recovery penalty.
//! * [`RetryPolicy`] — bounded redrive of fault-killed requests:
//!   a configurable attempt budget plus a fixed backoff (cycles)
//!   between the kill and re-dispatch. Requests that exhaust the budget
//!   (or can never be re-dispatched) become the `failed` terminal state
//!   alongside completed/shed.
//! * [`ScalePolicy`] — elastic fleets: engines spin up when backlog
//!   pressure exceeds a threshold (paying a provisioning delay and a
//!   cold-cache warm-up) and park when the fleet idles, bounded by
//!   min/max fleet size.

use std::fmt::Write as _;

/// One engine outage: the engine is unavailable over
/// `[down_at, up_at)` and returns **cold** at `up_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Incident {
    /// The engine that fails.
    pub engine: usize,
    /// Crash instant (cycles).
    pub down_at: u64,
    /// Recovery instant (cycles, strictly after `down_at`).
    pub up_at: u64,
}

/// One unit-mean exponential draw from the `(seed, engine, incident,
/// lane)` stream — the same splitmix64-finalizer discipline as the
/// traffic models, salted so fault draws never correlate with arrival
/// gaps under the same seed.
fn unit_exponential(seed: u64, engine: usize, incident: usize, lane: u64) -> f64 {
    let mut z = (seed ^ 0xFA17_0000_DEAD_0001)
        .wrapping_add((engine as u64).wrapping_mul(0xA24B_AED4_963E_E407))
        .wrapping_add((incident as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(lane.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // Map to (0, 1]: the +1 keeps the uniform strictly positive so the
    // log is finite, and the draw is pure in its inputs.
    let u = (z >> 11) as f64 / (1u64 << 53) as f64;
    -(1.0 - u).max(f64::MIN_POSITIVE).ln()
}

/// How the fleet fails — the `SGCN_FAULTS` knob.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureModel {
    /// No faults (the immortal PR 3–5 fleet).
    None,
    /// A fixed incident script (absolute cycles) — the regression seam:
    /// a drill pinned in a test replays the exact same outages forever.
    Scripted(Vec<Incident>),
    /// MTBF/MTTR-style exponential incidents per engine, means expressed
    /// in multiples of the stream's mean cold service time.
    Mtbf {
        /// Mean time between failures, in mean cold services.
        mtbf_services: f64,
        /// Mean time to recovery, in mean cold services.
        mttr_services: f64,
        /// Incidents materialized per engine (the schedule is finite and
        /// fixed up front; incidents beyond the run simply never fire).
        incidents_per_engine: usize,
    },
}

impl FailureModel {
    /// The default MTBF shape: fail every ~24 mean services, recover in
    /// ~6, three incidents per engine.
    pub fn mtbf_default() -> FailureModel {
        FailureModel::Mtbf {
            mtbf_services: 24.0,
            mttr_services: 6.0,
            incidents_per_engine: 3,
        }
    }

    /// Whether this is the no-fault model.
    pub fn is_none(&self) -> bool {
        matches!(self, FailureModel::None)
    }

    /// Display label (stable — appears in golden snapshots and
    /// `BENCH_queue.json`). Mean multiples are formatted with one
    /// decimal so labels stay byte-deterministic.
    pub fn label(&self) -> String {
        match self {
            FailureModel::None => "none".into(),
            FailureModel::Scripted(incidents) => format!("script:{}", incidents.len()),
            FailureModel::Mtbf {
                mtbf_services,
                mttr_services,
                incidents_per_engine,
            } => format!("mtbf:{mtbf_services:.1}x{mttr_services:.1}x{incidents_per_engine}"),
        }
    }

    /// Parses an `SGCN_FAULTS`-style spec: `none`, `mtbf` (defaults),
    /// `mtbf:M,R[,K]` (MTBF/MTTR in mean services, K incidents per
    /// engine), or `script:E@DOWN+DUR[;E@DOWN+DUR...]` (absolute
    /// cycles). `None` for unknown or degenerate specs.
    pub fn parse(spec: &str) -> Option<FailureModel> {
        let spec = spec.trim().to_ascii_lowercase();
        match spec.as_str() {
            "" | "none" | "off" => return Some(FailureModel::None),
            "mtbf" => return Some(FailureModel::mtbf_default()),
            _ => {}
        }
        if let Some(rest) = spec.strip_prefix("mtbf:") {
            let parts: Vec<&str> = rest.split(',').collect();
            if parts.len() < 2 || parts.len() > 3 {
                return None;
            }
            let mtbf: f64 = parts[0].trim().parse().ok()?;
            let mttr: f64 = parts[1].trim().parse().ok()?;
            let k: usize = match parts.get(2) {
                Some(p) => p.trim().parse().ok()?,
                None => 3,
            };
            if !(mtbf.is_finite() && mtbf > 0.0 && mttr.is_finite() && mttr > 0.0 && k > 0) {
                return None;
            }
            return Some(FailureModel::Mtbf {
                mtbf_services: mtbf,
                mttr_services: mttr,
                incidents_per_engine: k,
            });
        }
        if let Some(rest) = spec.strip_prefix("script:") {
            let mut incidents = Vec::new();
            for item in rest.split(';') {
                let (engine, times) = item.split_once('@')?;
                let (down, dur) = times.split_once('+')?;
                let engine: usize = engine.trim().parse().ok()?;
                let down_at: u64 = down.trim().parse().ok()?;
                let dur: u64 = dur.trim().parse().ok()?;
                if dur == 0 {
                    return None;
                }
                incidents.push(Incident {
                    engine,
                    down_at,
                    up_at: down_at.checked_add(dur)?,
                });
            }
            if incidents.is_empty() {
                return None;
            }
            return Some(FailureModel::Scripted(incidents));
        }
        None
    }

    /// Materializes the concrete incident schedule for an
    /// `engines`-wide fleet: a time-sorted [`FaultPlan`], pure in
    /// `(model, seed, engines, mean_service_cycles)`. Scripted incidents
    /// referencing engines beyond the fleet are dropped (a script is
    /// fleet-width agnostic); MTBF incidents are drawn per engine from
    /// `(seed, engine, incident)` alone.
    pub fn materialize(&self, seed: u64, engines: usize, mean_service_cycles: f64) -> FaultPlan {
        let mut incidents: Vec<Incident> = match self {
            FailureModel::None => Vec::new(),
            FailureModel::Scripted(script) => script
                .iter()
                .copied()
                .filter(|i| i.engine < engines)
                .collect(),
            FailureModel::Mtbf {
                mtbf_services,
                mttr_services,
                incidents_per_engine,
            } => {
                let mtbf = mtbf_services * mean_service_cycles;
                let mttr = mttr_services * mean_service_cycles;
                let mut out = Vec::with_capacity(engines * incidents_per_engine);
                for engine in 0..engines {
                    let mut t = 0.0f64;
                    for k in 0..*incidents_per_engine {
                        let down = t + mtbf * unit_exponential(seed, engine, k, 0);
                        let up = down + mttr * unit_exponential(seed, engine, k, 1);
                        let down_at = down.round() as u64;
                        // Outages last at least one cycle so down/up
                        // events never degenerate into a no-op pair.
                        let up_at = (up.round() as u64).max(down_at + 1);
                        out.push(Incident {
                            engine,
                            down_at,
                            up_at,
                        });
                        t = up_at as f64;
                    }
                }
                out
            }
        };
        incidents.sort_by_key(|i| (i.down_at, i.engine, i.up_at));
        FaultPlan { incidents }
    }
}

/// The materialized crash/recovery schedule of one run: incidents sorted
/// by `(down_at, engine)`. Per engine, incidents never overlap (MTBF
/// draws chain; scripts are trusted as given but replayed
/// deterministically either way).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    incidents: Vec<Incident>,
}

impl FaultPlan {
    /// The sorted incidents.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }
}

/// Bounded retry/redrive of fault-killed requests — the `SGCN_RETRIES`
/// knob. A request killed by an engine crash (whether in flight or
/// queued on the dead engine) re-enters dispatch `backoff_cycles` later
/// unless it has already been dispatched `max_attempts` times, in which
/// case it terminates as `failed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Dispatch budget per request (first attempt included; ≥ 1).
    pub max_attempts: u32,
    /// Cycles between a kill and the re-dispatch.
    pub backoff_cycles: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_cycles: 0,
        }
    }
}

impl RetryPolicy {
    /// Creates the policy.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts == 0` (a request must be dispatchable at
    /// least once; "no retries" is `max_attempts == 1`).
    pub fn new(max_attempts: u32, backoff_cycles: u64) -> Self {
        assert!(
            max_attempts > 0,
            "retry budget must allow at least the first attempt"
        );
        RetryPolicy {
            max_attempts,
            backoff_cycles,
        }
    }

    /// Display label (stable — appears in golden snapshots).
    pub fn label(&self) -> String {
        if self.backoff_cycles == 0 {
            format!("r{}", self.max_attempts)
        } else {
            format!("r{}+{}", self.max_attempts, self.backoff_cycles)
        }
    }

    /// Parses an `SGCN_RETRIES`-style spec: `A` or `A:BACKOFF` (attempts
    /// and backoff cycles). `None` for unknown or zero-attempt specs.
    pub fn parse(spec: &str) -> Option<RetryPolicy> {
        let spec = spec.trim();
        let (attempts, backoff) = match spec.split_once(':') {
            Some((a, b)) => (a.trim().parse().ok()?, b.trim().parse().ok()?),
            None => (spec.parse().ok()?, 0),
        };
        if attempts == 0 {
            return None;
        }
        Some(RetryPolicy {
            max_attempts: attempts,
            backoff_cycles: backoff,
        })
    }
}

/// Elastic autoscaling — the `SGCN_AUTOSCALE` knob. The fleet starts
/// with `min_engines` active; every event re-evaluates backlog pressure
/// (outstanding work in mean services per available engine) and spins
/// engines up (after a provisioning delay, returning **cold**) or parks
/// idle ones, bounded by `[min_engines, cfg.engines]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePolicy {
    /// Fleet floor (the run starts here; ≥ 1).
    pub min_engines: usize,
    /// Provisioning delay before a scaled-up engine serves, in mean
    /// cold services.
    pub provision_services: f64,
    /// Scale up when backlog pressure exceeds this (mean services of
    /// outstanding work per available engine).
    pub up_pressure: f64,
    /// Scale down when pressure falls below this.
    pub down_pressure: f64,
    /// Minimum gap between scaling decisions, in mean cold services
    /// (hysteresis against flapping).
    pub cooldown_services: f64,
}

impl ScalePolicy {
    /// The default elastic shape: floor of `min_engines`, an
    /// 8-mean-service provisioning delay, scale up beyond 2 mean
    /// services of backlog per engine, park below 0.25, 4-mean-service
    /// cooldown.
    pub fn with_floor(min_engines: usize) -> Self {
        assert!(min_engines > 0, "autoscaling needs a fleet floor of >= 1");
        ScalePolicy {
            min_engines,
            provision_services: 8.0,
            up_pressure: 2.0,
            down_pressure: 0.25,
            cooldown_services: 4.0,
        }
    }

    /// Display label (stable — appears in golden snapshots).
    pub fn label(&self) -> String {
        let mut s = format!("auto:{}", self.min_engines);
        if self.provision_services != 8.0 {
            let _ = write!(s, "@{:.1}", self.provision_services);
        }
        s
    }

    /// Parses an `SGCN_AUTOSCALE`-style spec: `none`, `auto` (floor 1),
    /// `auto:MIN`, or `auto:MIN:PROVISION` (provision delay in mean
    /// services). Returns `Some(None)` for an explicit `none`/empty spec
    /// and `None` for unparseable ones.
    #[allow(clippy::option_option)]
    pub fn parse(spec: &str) -> Option<Option<ScalePolicy>> {
        let spec = spec.trim().to_ascii_lowercase();
        match spec.as_str() {
            "" | "none" | "off" => return Some(None),
            "auto" => return Some(Some(ScalePolicy::with_floor(1))),
            _ => {}
        }
        let rest = spec.strip_prefix("auto:")?;
        let parts: Vec<&str> = rest.split(':').collect();
        if parts.len() > 2 {
            return None;
        }
        let min: usize = parts[0].trim().parse().ok()?;
        if min == 0 {
            return None;
        }
        let mut policy = ScalePolicy::with_floor(min);
        if let Some(p) = parts.get(1) {
            let prov: f64 = p.trim().parse().ok()?;
            if !(prov.is_finite() && prov >= 0.0) {
                return None;
            }
            policy.provision_services = prov;
        }
        Some(Some(policy))
    }
}

/// The brownout ladder — how far the fleet has degraded. Rungs are
/// strictly ordered and every step moves exactly one rung, so a run's
/// mode trajectory is monotone between reversals (the regression
/// property the class proptests pin).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeMode {
    /// Full service: the configured format policy (adaptive dispatch by
    /// default) over full-fidelity cold reports.
    Full = 0,
    /// First rung: pin every request to the cheapest fixed palette
    /// format (no per-request adaptive search, cheaper service).
    CheapFixed = 1,
    /// Second rung: serve reduced-fanout "lite" reports — a degraded
    /// answer (fewer sampled neighbors) that costs a fraction of the
    /// full service.
    Lite = 2,
}

impl DegradeMode {
    /// Number of rungs (the length of the mode-residency array).
    pub const COUNT: usize = 3;

    /// The rung index.
    pub fn idx(&self) -> usize {
        *self as usize
    }

    /// One rung further degraded (saturates at [`DegradeMode::Lite`]).
    pub fn down(&self) -> DegradeMode {
        match self {
            DegradeMode::Full => DegradeMode::CheapFixed,
            _ => DegradeMode::Lite,
        }
    }

    /// One rung recovered (saturates at [`DegradeMode::Full`]).
    pub fn up(&self) -> DegradeMode {
        match self {
            DegradeMode::Lite => DegradeMode::CheapFixed,
            _ => DegradeMode::Full,
        }
    }
}

/// Brownout / graceful degradation — the `SGCN_DEGRADE` knob. Like
/// [`ScalePolicy`], the policy is evaluated once per instant boundary
/// of the event loop (never mid-instant), so same-instant event
/// interleaving cannot perturb decisions and drill replay stays
/// bit-exact. Under backlog or incident pressure the fleet steps down
/// the [`DegradeMode`] ladder one rung at a time — adaptive format →
/// cheapest fixed format → reduced-fanout lite reports — and steps back
/// up one rung at a time on recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradePolicy {
    /// Step down a rung when backlog pressure (mean services of
    /// outstanding work per available engine) exceeds this.
    pub down_pressure: f64,
    /// Step up a rung when pressure falls below this.
    pub up_pressure: f64,
    /// Minimum gap between mode changes, in mean cold services
    /// (hysteresis against flapping).
    pub cooldown_services: f64,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy {
            down_pressure: 1.5,
            up_pressure: 0.5,
            cooldown_services: 2.0,
        }
    }
}

impl DegradePolicy {
    /// Display label (stable — appears in golden snapshots and
    /// `BENCH_queue.json`).
    pub fn label(&self) -> String {
        let d = DegradePolicy::default();
        if *self == d {
            "brownout".into()
        } else {
            format!("brownout:{:.1},{:.1}", self.down_pressure, self.up_pressure)
        }
    }

    /// Parses an `SGCN_DEGRADE`-style spec: `none`, `brownout`
    /// (defaults), or `brownout:DOWN,UP[,COOLDOWN]` (pressures and
    /// cooldown in mean services). Returns `Some(None)` for an explicit
    /// `none`/empty spec and `None` for unparseable ones.
    #[allow(clippy::option_option)]
    pub fn parse(spec: &str) -> Option<Option<DegradePolicy>> {
        let spec = spec.trim().to_ascii_lowercase();
        match spec.as_str() {
            "" | "none" | "off" => return Some(None),
            "brownout" => return Some(Some(DegradePolicy::default())),
            _ => {}
        }
        let rest = spec.strip_prefix("brownout:")?;
        let parts: Vec<&str> = rest.split(',').collect();
        if parts.len() < 2 || parts.len() > 3 {
            return None;
        }
        let down: f64 = parts[0].trim().parse().ok()?;
        let up: f64 = parts[1].trim().parse().ok()?;
        let cooldown: f64 = match parts.get(2) {
            Some(p) => p.trim().parse().ok()?,
            None => DegradePolicy::default().cooldown_services,
        };
        if !(down.is_finite() && up.is_finite() && cooldown.is_finite())
            || down <= up
            || up < 0.0
            || cooldown < 0.0
        {
            return None;
        }
        Some(Some(DegradePolicy {
            down_pressure: down,
            up_pressure: up,
            cooldown_services: cooldown,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_model_parse_and_label_round_trip() {
        assert_eq!(FailureModel::parse("none"), Some(FailureModel::None));
        assert_eq!(FailureModel::parse(""), Some(FailureModel::None));
        assert_eq!(
            FailureModel::parse("mtbf"),
            Some(FailureModel::mtbf_default())
        );
        assert_eq!(
            FailureModel::parse("mtbf:12,4"),
            Some(FailureModel::Mtbf {
                mtbf_services: 12.0,
                mttr_services: 4.0,
                incidents_per_engine: 3,
            })
        );
        assert_eq!(
            FailureModel::parse("mtbf:8,2,5"),
            Some(FailureModel::Mtbf {
                mtbf_services: 8.0,
                mttr_services: 2.0,
                incidents_per_engine: 5,
            })
        );
        let script = FailureModel::parse("script:0@1000+500;2@4000+250").expect("parses");
        assert_eq!(
            script,
            FailureModel::Scripted(vec![
                Incident {
                    engine: 0,
                    down_at: 1000,
                    up_at: 1500
                },
                Incident {
                    engine: 2,
                    down_at: 4000,
                    up_at: 4250
                },
            ])
        );
        assert_eq!(script.label(), "script:2");
        assert_eq!(FailureModel::mtbf_default().label(), "mtbf:24.0x6.0x3");
        assert_eq!(FailureModel::None.label(), "none");
        for bad in [
            "bogus",
            "mtbf:0,4",
            "mtbf:4,-1",
            "mtbf:4",
            "script:",
            "script:0@5+0",
            "script:x@1+2",
        ] {
            assert_eq!(FailureModel::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn mtbf_plan_is_pure_sorted_and_per_engine_disjoint() {
        let model = FailureModel::Mtbf {
            mtbf_services: 10.0,
            mttr_services: 3.0,
            incidents_per_engine: 4,
        };
        let a = model.materialize(7, 3, 5000.0);
        let b = model.materialize(7, 3, 5000.0);
        assert_eq!(a, b, "pure in (seed, engines, mean)");
        assert_eq!(a.incidents().len(), 12);
        assert!(a
            .incidents()
            .windows(2)
            .all(|w| w[0].down_at <= w[1].down_at));
        for e in 0..3 {
            let mine: Vec<&Incident> = a.incidents().iter().filter(|i| i.engine == e).collect();
            assert_eq!(mine.len(), 4);
            let mut sorted = mine.clone();
            sorted.sort_by_key(|i| i.down_at);
            for w in sorted.windows(2) {
                assert!(w[0].up_at <= w[1].down_at, "engine {e} outages overlap");
            }
            for i in &mine {
                assert!(i.up_at > i.down_at);
            }
        }
        // A different seed re-rolls the schedule.
        assert_ne!(model.materialize(8, 3, 5000.0), a);
        // The no-fault model materializes empty.
        assert!(FailureModel::None
            .materialize(7, 3, 5000.0)
            .incidents()
            .is_empty());
    }

    #[test]
    fn scripted_plan_drops_out_of_fleet_engines() {
        let model = FailureModel::Scripted(vec![
            Incident {
                engine: 5,
                down_at: 10,
                up_at: 20,
            },
            Incident {
                engine: 1,
                down_at: 5,
                up_at: 9,
            },
        ]);
        let plan = model.materialize(0, 2, 1000.0);
        assert_eq!(plan.incidents().len(), 1);
        assert_eq!(plan.incidents()[0].engine, 1);
    }

    #[test]
    fn retry_policy_parse_and_label() {
        assert_eq!(RetryPolicy::parse("3"), Some(RetryPolicy::new(3, 0)));
        assert_eq!(
            RetryPolicy::parse("2:5000"),
            Some(RetryPolicy::new(2, 5000))
        );
        assert_eq!(RetryPolicy::parse("0"), None);
        assert_eq!(RetryPolicy::parse("x"), None);
        assert_eq!(RetryPolicy::new(3, 0).label(), "r3");
        assert_eq!(RetryPolicy::new(2, 500).label(), "r2+500");
        assert_eq!(RetryPolicy::default(), RetryPolicy::new(3, 0));
    }

    #[test]
    #[should_panic(expected = "at least the first attempt")]
    fn zero_attempt_retry_panics() {
        let _ = RetryPolicy::new(0, 100);
    }

    #[test]
    fn scale_policy_parse_and_label() {
        assert_eq!(ScalePolicy::parse("none"), Some(None));
        assert_eq!(ScalePolicy::parse(""), Some(None));
        assert_eq!(
            ScalePolicy::parse("auto"),
            Some(Some(ScalePolicy::with_floor(1)))
        );
        assert_eq!(
            ScalePolicy::parse("auto:2"),
            Some(Some(ScalePolicy::with_floor(2)))
        );
        let custom = ScalePolicy::parse("auto:2:4").expect("parses").expect("on");
        assert_eq!(custom.min_engines, 2);
        assert_eq!(custom.provision_services, 4.0);
        assert_eq!(ScalePolicy::parse("auto:0"), None);
        assert_eq!(ScalePolicy::parse("bogus"), None);
        assert_eq!(ScalePolicy::with_floor(2).label(), "auto:2");
        assert_eq!(custom.label(), "auto:2@4.0");
    }

    #[test]
    #[should_panic(expected = "fleet floor")]
    fn zero_floor_panics() {
        let _ = ScalePolicy::with_floor(0);
    }

    #[test]
    fn degrade_policy_parse_and_label() {
        assert_eq!(DegradePolicy::parse("none"), Some(None));
        assert_eq!(DegradePolicy::parse(""), Some(None));
        assert_eq!(DegradePolicy::parse("off"), Some(None));
        assert_eq!(
            DegradePolicy::parse("brownout"),
            Some(Some(DegradePolicy::default()))
        );
        let custom = DegradePolicy::parse("brownout:2.0,0.25,3.0")
            .expect("parses")
            .expect("on");
        assert_eq!(custom.down_pressure, 2.0);
        assert_eq!(custom.up_pressure, 0.25);
        assert_eq!(custom.cooldown_services, 3.0);
        assert_eq!(DegradePolicy::default().label(), "brownout");
        assert_eq!(custom.label(), "brownout:2.0,0.2");
        for bad in [
            "bogus",
            "brownout:",
            "brownout:1.0",
            // Down must be strictly above up, pressures non-negative.
            "brownout:0.5,1.5",
            "brownout:1.5,-0.5",
            "brownout:1.5,0.5,-1",
            "brownout:nan,0.5",
        ] {
            assert_eq!(DegradePolicy::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn degrade_ladder_steps_one_rung_and_saturates() {
        assert_eq!(DegradeMode::Full.down(), DegradeMode::CheapFixed);
        assert_eq!(DegradeMode::CheapFixed.down(), DegradeMode::Lite);
        assert_eq!(DegradeMode::Lite.down(), DegradeMode::Lite);
        assert_eq!(DegradeMode::Lite.up(), DegradeMode::CheapFixed);
        assert_eq!(DegradeMode::CheapFixed.up(), DegradeMode::Full);
        assert_eq!(DegradeMode::Full.up(), DegradeMode::Full);
        assert_eq!(DegradeMode::Full.idx(), 0);
        assert_eq!(DegradeMode::Lite.idx(), DegradeMode::COUNT - 1);
    }

    #[test]
    fn fault_draws_are_decorrelated_from_lanes_and_engines() {
        let a: Vec<u64> = (0..8)
            .map(|k| (1000.0 * unit_exponential(9, 0, k, 0)) as u64)
            .collect();
        let b: Vec<u64> = (0..8)
            .map(|k| (1000.0 * unit_exponential(9, 0, k, 1)) as u64)
            .collect();
        let c: Vec<u64> = (0..8)
            .map(|k| (1000.0 * unit_exponential(9, 1, k, 0)) as u64)
            .collect();
        assert_ne!(a, b, "TBF and TTR lanes are independent");
        assert_ne!(a, c, "engines draw independent streams");
        for &v in a.iter().chain(&b).chain(&c) {
            assert!(v < 1_000_000, "draw {v} implausibly large");
        }
    }
}
