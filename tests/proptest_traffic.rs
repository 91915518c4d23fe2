//! Traffic-model and SLO proptests: index purity and monotonicity of
//! every open-loop arrival generator, request conservation
//! (completed + shed = offered) across traffic models × policies ×
//! fleets, the closed-loop in-flight cap, and the SLO invariant
//! (violations reported ⇔ end-to-end > deadline).
//!
//! The property bodies drive the event loop with fabricated service
//! profiles (no accelerator simulation inside the loops — fast), the
//! same technique as `queueing.rs`. Nothing here mutates the process
//! environment.

use proptest::prelude::*;
use sgcn::serving::queueing::{
    simulate_queue, ArrivalModel, ArrivalProcess, BurstyArrivals, DiurnalArrivals, FleetSpec,
    PreparedRequest, QueueConfig, SchedPolicy, SloConfig, TrafficModel,
};
use sgcn::serving::Request;
use sgcn::{HwConfig, SimReport};

/// Fabricates a prepared request with a given cold service time, sampled
/// working set and feature-read DRAM footprint — the event loop consumes
/// nothing else of the report.
fn fab(index: usize, cycles: u64, feature_read_bytes: u64, vertices: Vec<u32>) -> PreparedRequest {
    let mut mem = sgcn_mem::MemReport::default();
    // Traffic::ALL order: [Topology, FeatureRead, FeatureWrite, Weight,
    // PartialSum] — slot 1 is the feature-read class.
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

/// Strategy: the traffic model under test (closed-loop client counts
/// kept small so the cap bites).
fn traffic_strategy() -> impl Strategy<Value = TrafficModel> {
    prop_oneof![
        Just(TrafficModel::Exponential),
        Just(TrafficModel::bursty_default()),
        Just(TrafficModel::diurnal_default()),
        (1usize..8).prop_map(|clients| TrafficModel::ClosedLoop { clients }),
    ]
}

/// Strategy: fleet shapes over a given engine count.
fn fleet_strategy(engines: usize) -> impl Strategy<Value = FleetSpec> {
    prop_oneof![
        Just(FleetSpec::uniform(engines)),
        Just(FleetSpec::uniform(engines).with_work_stealing()),
        Just(FleetSpec::mixed(engines, 1.5)),
        Just(FleetSpec::mixed(engines, 2.0).with_work_stealing()),
    ]
}

/// Strategy: a full scenario — fabricated stream, engines, seed, load,
/// traffic, fleet, optional SLO.
#[allow(clippy::type_complexity)]
fn scenario_strategy() -> impl Strategy<Value = (Vec<PreparedRequest>, QueueConfig)> {
    (
        proptest::collection::vec((1_000u64..2_000_000, 0u32..40), 1..40),
        1usize..5,
        0u64..1_000,
        1u32..30,
        0usize..SchedPolicy::ALL.len(),
        traffic_strategy(),
        proptest::option::of((10_000u64..5_000_000, proptest::bool::ANY)),
    )
        .prop_flat_map(
            |(profile, engines, seed, load_x10, policy_at, traffic, slo)| {
                (
                    Just(profile),
                    Just(engines),
                    Just(seed),
                    Just(load_x10),
                    Just(policy_at),
                    Just(traffic),
                    Just(slo),
                    fleet_strategy(engines),
                )
            },
        )
        .prop_map(
            |(profile, engines, seed, load_x10, policy_at, traffic, slo, fleet)| {
                let prepared = fab_stream(&profile);
                let mut cfg = QueueConfig::new(
                    engines,
                    SchedPolicy::ALL[policy_at],
                    load_x10 as f64 / 10.0,
                    seed,
                )
                .with_traffic(traffic)
                .with_fleet(fleet);
                if let Some((deadline, shed)) = slo {
                    cfg = cfg.with_slo(SloConfig::new(deadline, shed));
                }
                (prepared, cfg)
            },
        )
}

proptest! {
    #[test]
    fn open_loop_models_are_index_pure_and_monotone(
        seed in 0u64..1_000_000,
        mean in 0.0f64..100_000.0,
        n in 0usize..200,
    ) {
        let models: Vec<Box<dyn ArrivalModel>> = vec![
            Box::new(ArrivalProcess::new(seed, mean)),
            Box::new(BurstyArrivals::new(seed, mean, 16, 0.5, 0.2)),
            Box::new(DiurnalArrivals::new(seed, mean, 48, 0.8)),
        ];
        for model in models {
            let t = model.timeline(n);
            prop_assert_eq!(t.len(), n);
            prop_assert!(t.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");
            prop_assert_eq!(model.timeline(n), t.clone(), "replay identical");
            // Index purity: any prefix of the timeline equals the
            // timeline of the prefix.
            let half = model.timeline(n / 2);
            prop_assert_eq!(&t[..n / 2], &half[..]);
            // And the gaps rebuild the timeline regardless of the order
            // they are drawn in.
            let mut acc = 0u64;
            for (i, &at) in t.iter().enumerate() {
                acc = acc.saturating_add(model.gap_cycles(i));
                prop_assert_eq!(acc, at);
            }
        }
    }

    #[test]
    fn every_scenario_conserves_requests_and_renders_finite_json(
        scenario in scenario_strategy(),
    ) {
        let (prepared, cfg) = scenario;
        let hw = HwConfig::default();
        let out = simulate_queue(&prepared, &cfg, &hw, 256);

        // Conservation: completed + shed = offered, with no overlap.
        prop_assert_eq!(out.records.len() + out.shed.len(), prepared.len());
        prop_assert_eq!(
            out.summary.completed + out.summary.shed as usize,
            out.summary.requests
        );
        let mut seen: Vec<usize> = out
            .records
            .iter()
            .map(|r| r.index)
            .chain(out.shed.iter().map(|s| s.index))
            .collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..prepared.len()).collect::<Vec<_>>());

        // Without shedding enabled nothing is ever shed.
        if !cfg.slo.map(|s| s.shed).unwrap_or(false) {
            prop_assert!(out.shed.is_empty());
        }

        // Basic timing sanity + service never exceeds the engine-scaled
        // cold estimate.
        for r in &out.records {
            prop_assert!(r.engine < cfg.engines);
            prop_assert!(r.start >= r.arrival);
            prop_assert_eq!(r.finish, r.start + r.service_cycles);
            let cold = prepared[r.index].report.cycles;
            let est = (cold as f64 * cfg.fleet.scales[r.engine]).round().max(1.0) as u64;
            prop_assert!(
                r.service_cycles <= est.max(1),
                "service {} > scaled cold {}", r.service_cycles, est
            );
        }
        prop_assert_eq!(
            out.engine_busy.iter().sum::<u64>(),
            out.records.iter().map(|r| r.service_cycles).sum::<u64>()
        );

        // Percentiles are over completed requests and ordered.
        let s = &out.summary;
        prop_assert!(s.p50_wait_cycles <= s.p95_wait_cycles);
        prop_assert!(s.p95_wait_cycles <= s.p99_wait_cycles);
        prop_assert!(s.p99_wait_cycles <= s.max_wait_cycles);
        prop_assert!(s.p50_e2e_cycles <= s.p95_e2e_cycles);
        prop_assert!(s.p95_e2e_cycles <= s.p99_e2e_cycles);
        prop_assert!(s.p99_e2e_cycles <= s.max_e2e_cycles);
        prop_assert!(s.utilization >= 0.0 && s.utilization <= 1.0);
        prop_assert!(s.shed_rate >= 0.0 && s.shed_rate <= 1.0);
        prop_assert!(s.violation_rate >= 0.0 && s.violation_rate <= 1.0);
        prop_assert!(s.warm_hits <= s.warm_lines);

        // Deterministic replay, down to the rendered bytes; no
        // non-finite field ever reaches the JSON.
        let again = simulate_queue(&prepared, &cfg, &hw, 256);
        prop_assert_eq!(&again, &out);
        let json = s.to_json("traffic-prop");
        prop_assert_eq!(&again.summary.to_json("traffic-prop"), &json);
        prop_assert!(
            !json.contains("inf") && !json.contains("NaN") && !json.contains("nan"),
            "non-finite field in {}", json
        );
    }

    #[test]
    fn violations_are_reported_iff_e2e_exceeds_deadline(
        scenario in scenario_strategy(),
    ) {
        let (prepared, cfg) = scenario;
        let hw = HwConfig::default();
        let out = simulate_queue(&prepared, &cfg, &hw, 256);
        let expected = match &cfg.slo {
            Some(slo) => out
                .records
                .iter()
                .filter(|r| r.e2e_cycles() > slo.deadline_cycles)
                .count() as u64,
            None => 0,
        };
        prop_assert_eq!(out.summary.violations, expected);
        // Shed requests are never double-counted as violations: the two
        // outcomes partition the offered stream.
        prop_assert!(out.summary.violations <= out.summary.completed as u64);
    }

    #[test]
    fn closed_loop_never_exceeds_k_requests_in_flight(
        profile in proptest::collection::vec((1_000u64..500_000, 0u32..20), 1..30),
        clients in 1usize..6,
        engines in 1usize..4,
        seed in 0u64..1_000,
        policy_at in 0usize..SchedPolicy::ALL.len(),
    ) {
        let prepared = fab_stream(&profile);
        let cfg = QueueConfig::new(engines, SchedPolicy::ALL[policy_at], 0.8, seed)
            .with_traffic(TrafficModel::ClosedLoop { clients });
        let out = simulate_queue(&prepared, &cfg, &HwConfig::default(), 256);
        prop_assert_eq!(out.records.len(), prepared.len());
        // In-flight = requests with arrival <= t < finish; probing at
        // every arrival instant covers all maxima (in-flight only grows
        // at arrivals).
        for r in &out.records {
            let t = r.arrival;
            let in_flight = out
                .records
                .iter()
                .filter(|o| o.arrival <= t && t < o.finish)
                .count();
            prop_assert!(
                in_flight <= clients,
                "{} in flight at {} with K={}", in_flight, t, clients
            );
        }
    }
}

#[test]
fn fully_shed_stream_keeps_summary_finite_and_zeroed() {
    // Every fabricated service needs >= 1000 cycles; a 1-cycle budget
    // rejects the entire stream at admission (the PR 3 empty-batch fix,
    // now on the shedding path).
    let prepared = fab_stream(&[(5_000, 0), (9_000, 3), (7_000, 6)]);
    for policy in SchedPolicy::ALL {
        let cfg = QueueConfig::new(2, policy, 0.8, 7).with_slo(SloConfig::new(1, true));
        let out = simulate_queue(&prepared, &cfg, &HwConfig::default(), 256);
        assert!(out.records.is_empty(), "{policy:?}");
        assert_eq!(out.shed.len(), 3, "{policy:?}");
        let s = &out.summary;
        assert_eq!(s.requests, 3);
        assert_eq!(s.completed, 0);
        assert_eq!(s.shed_rate, 1.0);
        assert_eq!(s.violations, 0);
        assert_eq!(s.makespan_cycles, 0);
        assert_eq!(s.throughput_rps, 0.0);
        assert_eq!(s.utilization, 0.0);
        assert_eq!(s.warm_hit_rate, 0.0);
        let json = s.to_json("all-shed");
        assert!(
            !json.contains("inf") && !json.contains("NaN") && !json.contains("nan"),
            "{policy:?}: {json}"
        );
    }
}

#[test]
fn bursty_arrivals_cluster_tighter_than_poisson() {
    // The squared coefficient of variation of bursty gaps must exceed
    // the Poisson baseline's — the burstiness the model exists for.
    let cv2 = |gaps: &[u64]| {
        let n = gaps.len() as f64;
        let mean = gaps.iter().sum::<u64>() as f64 / n;
        let var = gaps
            .iter()
            .map(|&g| (g as f64 - mean) * (g as f64 - mean))
            .sum::<f64>()
            / n;
        var / (mean * mean)
    };
    let exp_gaps: Vec<u64> = {
        let m = ArrivalProcess::new(11, 1000.0);
        (0..2048).map(|i| m.gap_cycles(i)).collect()
    };
    let bursty_gaps: Vec<u64> = {
        let m = BurstyArrivals::new(11, 1000.0, 16, 0.5, 0.2);
        (0..2048).map(|i| m.gap_cycles(i)).collect()
    };
    let (e, b) = (cv2(&exp_gaps), cv2(&bursty_gaps));
    assert!(b > e * 1.3, "bursty CV² {b} not above exponential CV² {e}");
}
