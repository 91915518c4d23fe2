//! Failure-drill proptests: request conservation across the three
//! terminal states (completed + shed + failed = offered, exactly), the
//! retry budget as a hard ceiling on dispatch attempts, the outage
//! invariant (no request is ever served inside an engine's effective
//! down window), cold recovery (the first request an engine serves
//! after coming back up finds an empty cache), the SLO invariant under
//! drills, bit-exact determinism of drilled runs, and the arrival-trace
//! record→replay round trip.
//!
//! Like `proptest_traffic.rs`, the property bodies drive the event loop
//! with fabricated service profiles — no accelerator simulation inside
//! the loops.

use proptest::prelude::*;
use sgcn::serving::queueing::{
    simulate_queue, ArrivalTrace, FailureModel, Incident, PreparedRequest, QueueConfig,
    RetryPolicy, ScalePolicy, SchedPolicy, SloConfig, TrafficModel,
};
use sgcn::serving::Request;
use sgcn::{HwConfig, SimReport};

/// Fabricates a prepared request with a given cold service time, sampled
/// working set and feature-read DRAM footprint — the event loop consumes
/// nothing else of the report.
fn fab(index: usize, cycles: u64, feature_read_bytes: u64, vertices: Vec<u32>) -> PreparedRequest {
    let mut mem = sgcn_mem::MemReport::default();
    mem.per_class[1].dram_bytes = feature_read_bytes;
    PreparedRequest {
        request: Request {
            index,
            seed_vertex: vertices.first().copied().unwrap_or(0),
        },
        vertices,
        report: SimReport {
            accelerator: "fab",
            workload: "FAB",
            cycles,
            agg_cycles: 0,
            comb_cycles: 0,
            mem_cycles: 0,
            macs: 0,
            mem,
            energy: Default::default(),
            tdp_watts: 0.0,
            layers: Vec::new().into(),
        },
        stats: Default::default(),
        class_reports: Vec::new(),
        formats: Vec::new(),
        lite_reports: Vec::new(),
        lite_vertices: Vec::new(),
    }
}

fn fab_stream(profile: &[(u64, u32)]) -> Vec<PreparedRequest> {
    profile
        .iter()
        .enumerate()
        .map(|(i, &(cycles, pool))| {
            let vertices: Vec<u32> = (pool..pool + 6).collect();
            fab(i, cycles, 4096, vertices)
        })
        .collect()
}

/// Strategy: a failure model. Scripted incidents are built per-engine
/// disjoint (gap-then-duration accumulation), matching the guarantee
/// [`FailureModel::Mtbf`] materialization gives.
fn faults_strategy(engines: usize) -> impl Strategy<Value = FailureModel> {
    let scripted =
        proptest::collection::vec((0..engines, 1_000u64..3_000_000, 1_000u64..2_000_000), 0..5)
            .prop_map(|draws| {
                let mut cursor = [0u64; 16];
                let mut incidents = Vec::new();
                for (engine, gap, dur) in draws {
                    let down_at = cursor[engine] + gap;
                    let up_at = down_at + dur;
                    cursor[engine] = up_at;
                    incidents.push(Incident {
                        engine,
                        down_at,
                        up_at,
                    });
                }
                FailureModel::Scripted(incidents)
            });
    prop_oneof![
        Just(FailureModel::None),
        scripted,
        (2u32..30, 1u32..12, 1usize..4).prop_map(|(mtbf, mttr, k)| FailureModel::Mtbf {
            mtbf_services: mtbf as f64,
            mttr_services: mttr as f64,
            incidents_per_engine: k,
        }),
    ]
}

/// Strategy: a full drill scenario — fabricated stream, engines, seed,
/// load, policy, traffic, faults, retry budget, optional autoscale and
/// SLO.
#[allow(clippy::type_complexity)]
fn drill_strategy() -> impl Strategy<Value = (Vec<PreparedRequest>, QueueConfig)> {
    (
        proptest::collection::vec((1_000u64..2_000_000, 0u32..40), 1..40),
        1usize..5,
        0u64..1_000,
        1u32..30,
        0usize..SchedPolicy::ALL.len(),
        prop_oneof![
            Just(TrafficModel::Exponential),
            Just(TrafficModel::bursty_default()),
            Just(TrafficModel::diurnal_default()),
            (1usize..8).prop_map(|clients| TrafficModel::ClosedLoop { clients }),
        ],
        proptest::option::of((10_000u64..5_000_000, proptest::bool::ANY)),
    )
        .prop_flat_map(
            |(profile, engines, seed, load_x10, policy_at, traffic, slo)| {
                (
                    Just((profile, engines, seed, load_x10, policy_at, traffic, slo)),
                    faults_strategy(engines),
                    (1u32..5, 0u64..10_000),
                    proptest::option::of(1usize..engines + 1),
                )
            },
        )
        .prop_map(
            |(
                (profile, engines, seed, load_x10, policy_at, traffic, slo),
                faults,
                retry,
                floor,
            )| {
                let prepared = fab_stream(&profile);
                let mut cfg = QueueConfig::new(
                    engines,
                    SchedPolicy::ALL[policy_at],
                    load_x10 as f64 / 10.0,
                    seed,
                )
                .with_traffic(traffic)
                .with_faults(faults)
                .with_retry(RetryPolicy::new(retry.0, retry.1));
                if let Some((deadline, shed)) = slo {
                    cfg = cfg.with_slo(SloConfig::new(deadline, shed));
                }
                if let Some(min) = floor {
                    cfg = cfg.with_autoscale(ScalePolicy::with_floor(min));
                }
                (prepared, cfg)
            },
        )
}

/// The effective per-engine down windows of a run: the scripted/MTBF
/// incident list replayed through the event-loop guards (a down event
/// on an already-down engine is absorbed; the earliest up event
/// recovers it). Returns `(engine, down, up)` triples.
fn effective_outages(cfg: &QueueConfig, mean_service: f64) -> Vec<(usize, u64, u64)> {
    let plan = cfg.faults.materialize(cfg.seed, cfg.engines, mean_service);
    let mut events: Vec<(u64, u8, usize)> = Vec::new();
    for inc in plan.incidents() {
        events.push((inc.down_at, 1, inc.engine));
        events.push((inc.up_at, 0, inc.engine));
    }
    events.sort_unstable();
    let mut down_since: Vec<Option<u64>> = vec![None; cfg.engines];
    let mut outages = Vec::new();
    for (t, kind, e) in events {
        match kind {
            0 => {
                if let Some(since) = down_since[e].take() {
                    outages.push((e, since, t));
                }
            }
            _ => {
                if down_since[e].is_none() {
                    down_since[e] = Some(t);
                }
            }
        }
    }
    for (e, since) in down_since.into_iter().enumerate() {
        if let Some(since) = since {
            outages.push((e, since, u64::MAX));
        }
    }
    outages
}

fn mean_service(prepared: &[PreparedRequest]) -> f64 {
    prepared.iter().map(|p| p.report.cycles as f64).sum::<f64>() / prepared.len() as f64
}

proptest! {
    #[test]
    fn drills_conserve_requests_across_three_terminal_states(
        scenario in drill_strategy(),
    ) {
        let (prepared, cfg) = scenario;
        let hw = HwConfig::default();
        let out = simulate_queue(&prepared, &cfg, &hw, 256);

        // Conservation: completed + shed + failed = offered, exactly,
        // with the indices partitioning the stream.
        prop_assert_eq!(
            out.records.len() + out.shed.len() + out.failed.len(),
            prepared.len()
        );
        let s = &out.summary;
        prop_assert_eq!(
            s.completed + s.shed as usize + s.failed as usize,
            s.requests
        );
        let mut seen: Vec<usize> = out
            .records
            .iter()
            .map(|r| r.index)
            .chain(out.shed.iter().map(|s| s.index))
            .chain(out.failed.iter().map(|f| f.index))
            .collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..prepared.len()).collect::<Vec<_>>());

        // Nothing fails without faults; nothing sheds without shedding.
        if cfg.faults.is_none() {
            prop_assert!(out.failed.is_empty());
        }
        if !cfg.slo.map(|s| s.shed).unwrap_or(false) {
            prop_assert!(out.shed.is_empty());
        }

        // The retry budget is a hard ceiling on dispatch attempts.
        for f in &out.failed {
            prop_assert!(
                f.attempts <= cfg.retry.max_attempts,
                "request {} consumed {} attempts with a budget of {}",
                f.index, f.attempts, cfg.retry.max_attempts
            );
        }
        prop_assert!(
            s.retries <= (cfg.retry.max_attempts as u64 - 1) * prepared.len() as u64,
            "{} retries exceed the fleet-wide budget", s.retries
        );

        // Drill accounting renders finite and in range.
        prop_assert!(s.availability >= 0.0 && s.availability <= 1.0 + 1e-9);
        prop_assert!(s.failed_rate >= 0.0 && s.failed_rate <= 1.0);
        prop_assert!(s.utilization >= 0.0 && s.utilization <= 1.0 + 1e-9);
        prop_assert!(s.peak_engines <= cfg.engines);
        let json = s.to_json("drill-prop");
        prop_assert!(
            !json.contains("inf") && !json.contains("NaN") && !json.contains("nan"),
            "non-finite field in {}", json
        );

        // Bit-exact determinism survives the drills.
        let again = simulate_queue(&prepared, &cfg, &hw, 256);
        prop_assert_eq!(&again, &out);
        prop_assert_eq!(&again.summary.to_json("drill-prop"), &json);
    }

    #[test]
    fn no_request_is_served_inside_an_effective_outage(
        scenario in drill_strategy(),
    ) {
        let (prepared, cfg) = scenario;
        let out = simulate_queue(&prepared, &cfg, &HwConfig::default(), 256);
        let outages = effective_outages(&cfg, mean_service(&prepared));
        for r in &out.records {
            for &(e, down, up) in &outages {
                if r.engine == e {
                    prop_assert!(
                        r.finish <= down || r.start >= up,
                        "request {} served on engine {} during [{}, {})",
                        r.index, e, down, up
                    );
                }
            }
        }
        // Failed requests died at a kill or abandonment instant no
        // earlier than their arrival.
        for f in &out.failed {
            prop_assert!(f.at >= f.arrival);
        }
    }

    #[test]
    fn recovered_engines_serve_their_first_request_cold(
        scenario in drill_strategy(),
    ) {
        let (prepared, cfg) = scenario;
        let out = simulate_queue(&prepared, &cfg, &HwConfig::default(), 256);
        let outages = effective_outages(&cfg, mean_service(&prepared));
        // For every recovery, the first request the engine serves after
        // coming back up finds a power-cycled (empty) cache.
        for &(e, _, up) in &outages {
            if up == u64::MAX {
                continue;
            }
            if let Some(first) = out
                .records
                .iter()
                .filter(|r| r.engine == e && r.start >= up)
                .min_by_key(|r| (r.start, r.index))
            {
                prop_assert_eq!(
                    first.warm.hits, 0,
                    "request {} on engine {} found a warm cache right after recovery at {}",
                    first.index, e, up
                );
            }
        }
    }

    #[test]
    fn violations_match_deadline_exceedance_under_drills(
        scenario in drill_strategy(),
    ) {
        let (prepared, cfg) = scenario;
        let out = simulate_queue(&prepared, &cfg, &HwConfig::default(), 256);
        let expected = match &cfg.slo {
            Some(slo) => out
                .records
                .iter()
                .filter(|r| r.e2e_cycles() > slo.deadline_cycles)
                .count() as u64,
            None => 0,
        };
        prop_assert_eq!(out.summary.violations, expected);
        prop_assert!(out.summary.violations <= out.summary.completed as u64);
    }

    #[test]
    fn recorded_traces_replay_bit_exactly(
        scenario in drill_strategy(),
    ) {
        let (prepared, cfg) = scenario;
        let hw = HwConfig::default();
        let original = simulate_queue(&prepared, &cfg, &hw, 256);
        let trace = original.arrival_trace();
        prop_assert_eq!(trace.len(), prepared.len());
        let parsed = ArrivalTrace::parse(&trace.to_json()).expect("round-trips");
        prop_assert_eq!(&parsed, &trace);
        let replay = simulate_queue(&prepared, &cfg.clone().with_trace(parsed), &hw, 256);
        prop_assert_eq!(&replay, &original);
        prop_assert_eq!(
            replay.summary.to_json("drill-prop"),
            original.summary.to_json("drill-prop")
        );
    }
}
