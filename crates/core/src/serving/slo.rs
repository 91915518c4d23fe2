//! Service-level objectives for the queueing simulator: per-request
//! deadlines, admission control (load shedding), and violation
//! accounting.
//!
//! A deployed fleet does not let its queues grow without bound: each
//! request carries a latency budget (its SLO), the dispatcher *sheds*
//! requests it predicts cannot meet that budget, and completed requests
//! that still blew the deadline are reported as *violations*. This
//! module holds the knobs ([`SloConfig`]) and the bookkeeping
//! ([`SloStats`]); the enforcement lives in the event loop
//! ([`super::queueing::simulate_queue`]):
//!
//! * **Admission** — at arrival the dispatcher predicts the request's
//!   end-to-end latency on the engine the policy picked (its backlog
//!   plus the request's estimated service time). If the prediction
//!   exceeds the deadline and shedding is enabled, the request is
//!   rejected on the spot — it never touches an engine, never warms a
//!   cache, and is counted in [`SloStats::shed`].
//! * **Violations** — a completed request whose end-to-end latency
//!   exceeds the deadline counts as a violation (shed requests do not:
//!   the two outcomes partition the non-met SLOs by whether the system
//!   spent service capacity on them).
//! * **The `slo-aware` policy** ([`super::queueing::SchedPolicy`])
//!   complements admission by serving queued requests earliest-deadline
//!   first, spending slack where it buys the most.

/// The SLO knobs of one queueing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloConfig {
    /// End-to-end latency budget per request (cycles, from arrival).
    pub deadline_cycles: u64,
    /// Whether admission control sheds requests predicted to miss the
    /// deadline. With shedding off every request is served and misses
    /// surface as violations only.
    pub shed: bool,
}

impl SloConfig {
    /// A deadline with load shedding enabled — the production posture.
    ///
    /// # Panics
    ///
    /// Panics if `deadline_cycles == 0` (a zero budget sheds everything
    /// by definition; demand it explicitly via [`SloConfig::new`] so a
    /// forgotten knob cannot silently blackhole a run).
    pub fn shedding(deadline_cycles: u64) -> Self {
        assert!(
            deadline_cycles > 0,
            "a zero-cycle deadline sheds every request; construct it explicitly via SloConfig::new"
        );
        SloConfig {
            deadline_cycles,
            shed: true,
        }
    }

    /// Fully explicit constructor (any deadline, shedding on or off).
    pub fn new(deadline_cycles: u64, shed: bool) -> Self {
        SloConfig {
            deadline_cycles,
            shed,
        }
    }

    /// The admission decision: would a request with `predicted_wait`
    /// cycles of queueing ahead of an `estimated_service`-cycle job
    /// still meet the deadline? (Pure — the event loop calls this with
    /// the policy-chosen engine's backlog.)
    pub fn admits(&self, predicted_wait: u64, estimated_service: u64) -> bool {
        // Predicted end-to-end vs budget, with saturation so an
        // estimate beyond the deadline rejects instead of wrapping.
        estimated_service <= self.deadline_cycles
            && predicted_wait <= self.deadline_cycles - estimated_service
    }

    /// Whether a completed request's end-to-end latency violates the
    /// deadline.
    pub fn violated(&self, e2e_cycles: u64) -> bool {
        e2e_cycles > self.deadline_cycles
    }
}

/// Aggregate SLO bookkeeping of one run. Offered = completed + shed —
/// the conservation law the proptests pin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SloStats {
    /// Requests that entered the system (completed + shed).
    pub offered: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests rejected at admission.
    pub shed: u64,
    /// Completed requests whose end-to-end latency exceeded the
    /// deadline (0 when no SLO is configured).
    pub violations: u64,
}

impl SloStats {
    /// `shed / offered` (0 when nothing was offered).
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }

    /// `violations / completed` (0 when nothing completed).
    pub fn violation_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.violations as f64 / self.completed as f64
        }
    }
}

/// The deadline class of one request. A production stream mixes
/// latency-sensitive *interactive* traffic (tight deadline, shed on
/// overload, generous retries — a user is waiting) with *batch*
/// traffic (loose deadline, never shed, few retries — a pipeline will
/// re-run). The class is assigned per request from the seeded mix in
/// [`ClassPolicy`], so it is pure in `(seed, request index)` and
/// thread-schedule independent like every other arrival property.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RequestClass {
    /// Latency-sensitive foreground traffic.
    Interactive = 0,
    /// Throughput-oriented background traffic.
    Batch = 1,
}

impl RequestClass {
    /// Number of classes (the length of every per-class summary array).
    pub const COUNT: usize = 2;

    /// Index into per-class arrays.
    pub fn idx(&self) -> usize {
        *self as usize
    }
}

/// The per-class service contract: a deadline expressed in mean cold
/// services (materialized to cycles once the prepared stream's mean
/// service time is known), the shed switch, and the class's own retry
/// budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassSlo {
    /// Deadline in multiples of the stream's mean cold service time.
    pub deadline_services: f64,
    /// Whether admission control sheds this class on predicted misses.
    pub shed: bool,
    /// Dispatch-attempt ceiling for this class under failure drills.
    pub max_attempts: u32,
}

/// Deadline-class mix of one queueing run: the seeded interactive
/// fraction, both class contracts, and the preemption switch (an
/// arriving interactive request may preempt an in-service batch
/// request; the preempted work re-queues and its residual re-prices
/// against the warm cache). Mutually exclusive with the single-class
/// [`SloConfig`] knob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassPolicy {
    /// Probability that a request is interactive, drawn pure from
    /// `(seed, request index)`.
    pub interactive_frac: f64,
    /// Contract of the interactive class.
    pub interactive: ClassSlo,
    /// Contract of the batch class.
    pub batch: ClassSlo,
    /// Whether interactive arrivals preempt in-service batch work.
    pub preempt: bool,
    /// Per-request preemption ceiling — a batch request preempted this
    /// many times can no longer be chosen as a victim, so conservation
    /// cannot livelock (every preempted request still terminates).
    pub max_preemptions: u32,
}

impl ClassPolicy {
    /// The default two-class contract: interactive sheds at 3 mean
    /// services with 3 attempts; batch never sheds, runs to a 12-mean-
    /// service deadline with 2 attempts.
    pub fn mix(interactive_frac: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&interactive_frac),
            "interactive fraction must be in [0, 1], got {interactive_frac}"
        );
        ClassPolicy {
            interactive_frac,
            interactive: ClassSlo {
                deadline_services: 3.0,
                shed: true,
                max_attempts: 3,
            },
            batch: ClassSlo {
                deadline_services: 12.0,
                shed: false,
                max_attempts: 2,
            },
            preempt: false,
            max_preemptions: 2,
        }
    }

    /// Enables batch preemption by interactive arrivals.
    pub fn with_preemption(mut self) -> Self {
        self.preempt = true;
        self
    }

    /// The contract of `class`.
    pub fn slo(&self, class: RequestClass) -> &ClassSlo {
        match class {
            RequestClass::Interactive => &self.interactive,
            RequestClass::Batch => &self.batch,
        }
    }

    /// Stable report label, e.g. `classes:0.30+preempt`.
    pub fn label(&self) -> String {
        let p = if self.preempt { "+preempt" } else { "" };
        format!("classes:{:.2}{p}", self.interactive_frac)
    }

    /// Parses the `SGCN_CLASSES` knob. `Some(None)` for the explicit
    /// single-class spellings (`none` / `off` / empty), `Some(Some(_))`
    /// for `mix:<frac>` and `mix:<frac>+preempt`, `None` for anything
    /// else (callers hard-error listing the valid spellings).
    pub fn parse(text: &str) -> Option<Option<ClassPolicy>> {
        let t = text.trim();
        if t.is_empty() || t == "none" || t == "off" {
            return Some(None);
        }
        let rest = t.strip_prefix("mix:")?;
        let (frac, preempt) = match rest.strip_suffix("+preempt") {
            Some(head) => (head, true),
            None => (rest, false),
        };
        let frac: f64 = frac.parse().ok()?;
        if !(0.0..=1.0).contains(&frac) || !frac.is_finite() {
            return None;
        }
        let policy = ClassPolicy::mix(frac);
        Some(Some(if preempt {
            policy.with_preemption()
        } else {
            policy
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_is_predicted_e2e_vs_budget() {
        let slo = SloConfig::shedding(1000);
        assert!(slo.admits(0, 1000), "exact fit admits");
        assert!(slo.admits(400, 600));
        assert!(!slo.admits(401, 600), "one cycle over rejects");
        // Service alone beyond the budget rejects even with no wait.
        assert!(!slo.admits(0, 1001));
        // Saturation: enormous estimates reject instead of wrapping.
        assert!(!slo.admits(u64::MAX, u64::MAX));
    }

    #[test]
    fn violation_is_strictly_over_deadline() {
        let slo = SloConfig::new(500, false);
        assert!(!slo.violated(500));
        assert!(slo.violated(501));
    }

    #[test]
    #[should_panic(expected = "zero-cycle deadline")]
    fn zero_deadline_shedding_panics() {
        let _ = SloConfig::shedding(0);
    }

    #[test]
    fn stats_rates_guard_zero_denominators() {
        let zero = SloStats::default();
        assert_eq!(zero.shed_rate(), 0.0);
        assert_eq!(zero.violation_rate(), 0.0);
        let s = SloStats {
            offered: 10,
            completed: 6,
            shed: 4,
            violations: 3,
        };
        assert!((s.shed_rate() - 0.4).abs() < 1e-12);
        assert!((s.violation_rate() - 0.5).abs() < 1e-12);
        // The all-shed run keeps every rate finite.
        let all_shed = SloStats {
            offered: 5,
            completed: 0,
            shed: 5,
            violations: 0,
        };
        assert_eq!(all_shed.shed_rate(), 1.0);
        assert_eq!(all_shed.violation_rate(), 0.0);
    }

    #[test]
    fn class_policy_parse_and_label_round_trip() {
        assert_eq!(ClassPolicy::parse(""), Some(None));
        assert_eq!(ClassPolicy::parse("none"), Some(None));
        assert_eq!(ClassPolicy::parse("off"), Some(None));
        let plain = ClassPolicy::parse("mix:0.3").unwrap().unwrap();
        assert!(!plain.preempt);
        assert_eq!(plain.label(), "classes:0.30");
        let preempting = ClassPolicy::parse("mix:0.3+preempt").unwrap().unwrap();
        assert!(preempting.preempt);
        assert_eq!(preempting.label(), "classes:0.30+preempt");
        assert!((preempting.interactive_frac - 0.3).abs() < 1e-12);
        // Interactive is the tight contract, batch the loose one.
        assert!(preempting.interactive.deadline_services < preempting.batch.deadline_services);
        assert!(preempting.interactive.shed && !preempting.batch.shed);
        for bad in [
            "mix:", "mix:x", "mix:1.5", "mix:-0.1", "mix:nan", "classes", "0.3",
        ] {
            assert_eq!(ClassPolicy::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "interactive fraction")]
    fn out_of_range_mix_panics() {
        let _ = ClassPolicy::mix(1.2);
    }

    #[test]
    fn class_slo_lookup_matches_fields() {
        let p = ClassPolicy::mix(0.5);
        assert_eq!(
            p.slo(RequestClass::Interactive).max_attempts,
            p.interactive.max_attempts
        );
        assert_eq!(
            p.slo(RequestClass::Batch).max_attempts,
            p.batch.max_attempts
        );
        assert_eq!(RequestClass::Interactive.idx(), 0);
        assert_eq!(RequestClass::Batch.idx(), 1);
        assert_eq!(RequestClass::COUNT, 2);
    }
}
