//! Heterogeneous-lineup and cost-model proptests: the cost model prices
//! every request of the stream it was fitted on, purely in (request
//! stats, engine class), and refits of the same stream are
//! bit-identical; the `cost-aware` policy conserves
//! requests (completed + shed + failed = offered, exactly) across
//! traffic × fleet/lineup × failure drills; and mixed-lineup routing
//! never serves a request inside an engine's effective down window.
//!
//! Like `proptest_drills.rs`, the property bodies drive the event loop
//! with fabricated service profiles — no accelerator simulation inside
//! the loops. Lineup runs need per-class cold reports, so the fab
//! helper synthesizes a slower second class alongside the reference
//! report.

use proptest::prelude::*;
use sgcn::serving::queueing::{
    simulate_queue, CostModel, EngineLineup, FailureModel, FleetSpec, Incident, PreparedRequest,
    QueueConfig, RequestStats, RetryPolicy, SchedPolicy, SloConfig, TrafficModel,
};
use sgcn::serving::Request;
use sgcn::{HwConfig, SimReport};

/// Fabricates a prepared request carrying per-class cold reports: class
/// 0 is the reference profile, class 1 is `eco_x10/10` × slower — the
/// shape [`sgcn::serving::queueing::prepare_for`] produces for a
/// two-class lineup over the native column. Stats are a deterministic
/// function of the profile.
fn fab(index: usize, cycles: u64, eco_x10: u64, vertices: Vec<u32>) -> PreparedRequest {
    let mut mem = sgcn_mem::MemReport::default();
    mem.per_class[1].dram_bytes = 4096;
    let report = SimReport {
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
    };
    let mut eco = report.clone();
    eco.cycles = (cycles * eco_x10) / 10;
    PreparedRequest {
        request: Request {
            index,
            seed_vertex: vertices.first().copied().unwrap_or(0),
        },
        stats: RequestStats {
            vertices: vertices.len() as u64,
            edges: cycles / 100,
            sparsity: 0.5,
            feature_bytes: vertices.len() as u64 * 256,
        },
        vertices,
        class_reports: vec![report.clone(), eco],
        report,
        formats: Vec::new(),
        lite_reports: Vec::new(),
        lite_vertices: Vec::new(),
    }
}

fn fab_stream(profile: &[(u64, u32)], eco_x10: u64) -> Vec<PreparedRequest> {
    profile
        .iter()
        .enumerate()
        .map(|(i, &(cycles, pool))| {
            let vertices: Vec<u32> = (pool..pool + 6).collect();
            fab(i, cycles, eco_x10, vertices)
        })
        .collect()
}

/// A two-class lineup matching the fab reports: the classes only need
/// the right *count* for the event loop (service times come from the
/// fabricated `class_reports`), so both use the base platform.
fn fab_lineup(engines: usize, stealing: bool) -> EngineLineup {
    let mut lineup = EngineLineup::mixed(engines, HwConfig::default());
    if stealing {
        lineup = lineup.with_work_stealing();
    }
    lineup
}

/// Strategy: a failure model (same construction as
/// `proptest_drills.rs` — scripted incidents are per-engine disjoint).
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

/// Strategy: a cost-aware scenario — fabricated two-class stream,
/// engines, seed, load, traffic, a fleet flavor (legacy uniform, legacy
/// mixed scales, or a two-class lineup ± stealing), faults, retries,
/// optional SLO.
#[allow(clippy::type_complexity)]
fn cost_aware_strategy() -> impl Strategy<Value = (Vec<PreparedRequest>, QueueConfig)> {
    (
        proptest::collection::vec((1_000u64..2_000_000, 0u32..40), 1..40),
        11u64..40,
        1usize..5,
        0u64..1_000,
        1u32..30,
        prop_oneof![
            Just(TrafficModel::Exponential),
            Just(TrafficModel::bursty_default()),
            Just(TrafficModel::diurnal_default()),
            (1usize..8).prop_map(|clients| TrafficModel::ClosedLoop { clients }),
        ],
        0usize..4,
        proptest::option::of((10_000u64..5_000_000, proptest::bool::ANY)),
    )
        .prop_flat_map(
            |(profile, eco_x10, engines, seed, load_x10, traffic, flavor, slo)| {
                (
                    Just((
                        profile, eco_x10, engines, seed, load_x10, traffic, flavor, slo,
                    )),
                    faults_strategy(engines),
                    (1u32..5, 0u64..10_000),
                )
            },
        )
        .prop_map(
            |((profile, eco_x10, engines, seed, load_x10, traffic, flavor, slo), faults, retry)| {
                let prepared = fab_stream(&profile, eco_x10);
                let mut cfg = QueueConfig::new(
                    engines,
                    SchedPolicy::CostAware,
                    load_x10 as f64 / 10.0,
                    seed,
                )
                .with_traffic(traffic)
                .with_faults(faults)
                .with_retry(RetryPolicy::new(retry.0, retry.1));
                cfg = match flavor {
                    0 => cfg.with_fleet(FleetSpec::uniform(engines)),
                    1 => cfg.with_fleet(FleetSpec::mixed(engines, 1.5)),
                    2 => cfg.with_lineup(fab_lineup(engines, false)),
                    _ => cfg.with_lineup(fab_lineup(engines, true)),
                };
                if let Some((deadline, shed)) = slo {
                    cfg = cfg.with_slo(SloConfig::new(deadline, shed));
                }
                (prepared, cfg)
            },
        )
}

/// The effective per-engine down windows of a run (same replay as
/// `proptest_drills.rs`): a down event on an already-down engine is
/// absorbed; the earliest up event recovers it.
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
    fn cost_model_predictions_are_pure_and_fits_deterministic(
        profile in proptest::collection::vec((1_000u64..2_000_000, 0u32..40), 1..40),
        eco_x10 in 11u64..40,
    ) {
        let prepared = fab_stream(&profile, eco_x10);
        let model = CostModel::fit(&prepared, 2);
        // Refitting the same stream is bit-identical.
        prop_assert_eq!(&model, &CostModel::fit(&prepared, 2));
        // Every request of the fitted stream is priced on every class,
        // with a positive cycle count, the same on every query.
        for p in &prepared {
            for class in 0..2 {
                let cycles = model.predict_cycles(class, &p.stats);
                prop_assert!(cycles.is_some_and(|c| c >= 1), "{:?}", cycles);
                prop_assert_eq!(cycles, model.predict_cycles(class, &p.stats));
            }
        }
        // Stats outside the fitted stream (every fab request samples six
        // vertices) are not priced.
        let outside = RequestStats {
            vertices: 7,
            ..prepared[0].stats
        };
        prop_assert_eq!(model.predict_cycles(0, &outside), None);
    }

    #[test]
    fn cost_aware_conserves_requests_across_fleets_and_drills(
        scenario in cost_aware_strategy(),
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

        // Accounting renders finite and the run is bit-deterministic.
        let json = s.to_json("lineup-prop");
        prop_assert!(
            !json.contains("inf") && !json.contains("NaN") && !json.contains("nan"),
            "non-finite field in {}", json
        );
        prop_assert!(s.cost_units > 0.0);
        let again = simulate_queue(&prepared, &cfg, &hw, 256);
        prop_assert_eq!(&again, &out);
    }

    #[test]
    fn recovered_eco_engine_rewarms_against_its_own_cold_report(
        profile in proptest::collection::vec((1_000u64..2_000_000, 0u32..6), 8..40),
        eco_x10 in 11u64..40,
        seed in 0u64..1_000,
        down_at in 10_000u64..500_000,
        dur in 100_000u64..2_000_000,
    ) {
        // `RowCache::flush` under lineups: after a crash +
        // recovery, an eco-class engine restarts with an empty cache and
        // must re-warm against its *own* class cold report — its first
        // post-recovery service is exactly the eco cell's cold cycles
        // (scale is 1.0 under a lineup), never the reference cell's.
        let prepared = fab_stream(&profile, eco_x10);
        let cfg = QueueConfig::new(2, SchedPolicy::CostAware, 0.9, seed)
            .with_lineup(fab_lineup(2, false))
            .with_faults(FailureModel::Scripted(vec![Incident {
                engine: 1,
                down_at,
                up_at: down_at + dur,
            }]))
            .with_retry(RetryPolicy::new(3, 0));
        let out = simulate_queue(&prepared, &cfg, &HwConfig::default(), 256);
        // On the two-engine mixed lineup, engine 1 is the eco class.
        let first_after = out
            .records
            .iter()
            .filter(|r| r.engine == 1 && r.start >= down_at + dur)
            .min_by_key(|r| r.start);
        if let Some(r) = first_after {
            let p = &prepared[r.index];
            let eco_cold = p.class_reports[1].cycles;
            prop_assert_eq!(
                r.warm.hits, 0,
                "recovered engine served request {} warm", r.index
            );
            prop_assert_eq!(
                r.service_cycles, eco_cold,
                "request {} re-warmed against the wrong cold report \
                 (eco {}, reference {})",
                r.index, eco_cold, p.report.cycles
            );
            // The property has teeth: the eco profile is strictly
            // slower, so pricing off the reference cell would differ.
            prop_assert!(r.service_cycles != p.report.cycles);
        }
    }

    #[test]
    fn mixed_lineup_routing_sends_nothing_to_a_down_engine(
        scenario in cost_aware_strategy(),
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
        for f in &out.failed {
            prop_assert!(f.at >= f.arrival);
        }
    }
}
