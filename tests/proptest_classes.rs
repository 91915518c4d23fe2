//! Deadline-class / brownout proptests: exact per-class request
//! conservation, preemption never stranding (or worsening the
//! interactive experience of) a run, the one-rung degrade ladder, and
//! brownout residency accounting that closes exactly — plus bit-exact
//! rerun determinism on every scenario the strategies draw. One
//! property turns every queueing feature on at once and checks that a
//! recorded run replays byte for byte.
//!
//! The class properties drive the event loop with fabricated service
//! profiles (like `proptest_drills.rs`); the brownout property replays
//! a real degraded preparation built once per process, since the lite
//! and per-class reports the ladder serves from come out of the
//! serving path.

use std::sync::OnceLock;

use proptest::prelude::*;
use sgcn::accel::AccelModel;
use sgcn::experiments::ExperimentConfig;
use sgcn::serving::queueing::{
    feature_row_bytes, prepare_degraded, simulate_queue, ClassPolicy, DegradeMode, DegradePolicy,
    EngineLineup, FailureModel, FormatPolicy, PreparedRequest, QueueConfig, RequestClass,
    RetryPolicy, ScalePolicy, SchedPolicy, ServeFormat, ShardPlan, TrafficModel,
};
use sgcn::serving::{Request, ServingConfig, ServingContext};
use sgcn::{HwConfig, SimReport};

/// Fabricates a prepared request with a given cold service time (the
/// scalar-path subset the class/preemption loops consume).
fn fab(index: usize, cycles: u64, vertices: Vec<u32>) -> PreparedRequest {
    let mut mem = sgcn_mem::MemReport::default();
    mem.per_class[1].dram_bytes = 4096;
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
            fab(i, cycles, vertices)
        })
        .collect()
}

/// Strategy: a deadline-class scenario — fabricated stream, fleet,
/// seed, overload-ish offered load, traffic, class mix, optional
/// preemption, optional MTBF faults with a retry budget.
#[allow(clippy::type_complexity)]
fn class_strategy() -> impl Strategy<Value = (Vec<PreparedRequest>, QueueConfig)> {
    (
        proptest::collection::vec((10_000u64..200_000, 0u32..40), 4..48),
        2usize..5,
        0u64..1_000,
        8u32..20,
        1u32..10,
        proptest::bool::ANY,
        proptest::bool::ANY,
        prop_oneof![
            Just(TrafficModel::Exponential),
            Just(TrafficModel::bursty_default()),
        ],
    )
        .prop_map(
            |(profile, engines, seed, load_x10, mix_x10, preempt, faults, traffic)| {
                let prepared = fab_stream(&profile);
                let mut classes = ClassPolicy::mix(mix_x10 as f64 / 10.0);
                if preempt {
                    classes = classes.with_preemption();
                }
                let mut cfg = QueueConfig::new(
                    engines,
                    SchedPolicy::CacheAffinity,
                    load_x10 as f64 / 10.0,
                    seed,
                )
                .with_traffic(traffic)
                .with_classes(classes);
                if faults {
                    cfg = cfg
                        .with_faults(FailureModel::mtbf_default())
                        .with_retry(RetryPolicy::new(2, 0));
                }
                (prepared, cfg)
            },
        )
}

/// The (degraded preparation, platform, feature-row bytes, graph)
/// quadruple behind the brownout properties — built once per process;
/// every proptest case replays the same prepared stream through
/// different knobs, which is exactly how the harness uses it. The graph
/// is the one shard plans are cut from.
type BrownoutSetup = (Vec<PreparedRequest>, HwConfig, u64, sgcn_graph::CsrGraph);

fn brownout_setup() -> &'static BrownoutSetup {
    static SETUP: OnceLock<BrownoutSetup> = OnceLock::new();
    SETUP.get_or_init(|| {
        let cfg = ExperimentConfig::quick();
        let ctx = ServingContext::new(ServingConfig {
            dataset: sgcn_graph::datasets::DatasetId::Cora,
            scale: cfg.scale,
            fanouts: sgcn_graph::sampling::Fanouts::new(vec![8, 4]),
            width: cfg.width,
            seed: cfg.seed,
        });
        let stream = ctx.hotspot_stream(24, 4);
        let hw = HwConfig::default();
        let prepared = prepare_degraded(
            &ctx,
            &stream,
            &AccelModel::sgcn(),
            &EngineLineup::mixed(3, hw),
            &ServeFormat::PALETTE,
        );
        let row = feature_row_bytes(&ctx);
        (prepared, hw, row, ctx.dataset.graph.clone())
    })
}

/// Per-engine ledgers survive the crash and preemption rollbacks: after
/// drills + `mix:0.3+preempt` + brownout runs on a lineup, every
/// engine's served count and warm counters equal exactly what its
/// surviving records carry, and its busy time covers their service (an
/// aborted partial service stays busy but renders no record).
#[test]
fn engine_ledgers_match_their_records_after_rollbacks() {
    let (prepared, hw, row, _) = brownout_setup();
    let engines = 3;
    let (mut incidents, mut preemptions) = (0u64, 0u64);
    for seed in 0..8u64 {
        for load_x10 in [10u32, 14, 18] {
            let cfg = QueueConfig::new(
                engines,
                SchedPolicy::CostAware,
                load_x10 as f64 / 10.0,
                seed,
            )
            .with_traffic(TrafficModel::bursty_default())
            .with_lineup(EngineLineup::mixed(engines, *hw))
            .with_format(FormatPolicy::Adaptive)
            .with_faults(FailureModel::mtbf_default())
            .with_retry(RetryPolicy::new(3, 0))
            .with_classes(ClassPolicy::mix(0.3).with_preemption())
            .with_degrade(DegradePolicy::default());
            let out = simulate_queue(prepared, &cfg, hw, *row);
            incidents += out.summary.incidents;
            preemptions += out.summary.preemptions;
            for e in 0..engines {
                let mut served = 0u64;
                let mut warm = sgcn_mem::SpanCounts::default();
                let mut service = 0u64;
                for r in out.records.iter().filter(|r| r.engine == e) {
                    served += 1;
                    warm.add(r.warm);
                    service += r.service_cycles;
                }
                let at = format!("seed {seed} load {load_x10} engine {e}");
                assert_eq!(out.engine_served[e], served, "served count off at {at}");
                assert_eq!(out.engine_warm[e], warm, "warm counters off at {at}");
                assert!(
                    out.engine_busy[e] >= service,
                    "busy {} below recorded service {service} at {at}",
                    out.engine_busy[e]
                );
            }
        }
    }
    assert!(
        incidents > 0 && preemptions > 0,
        "the sweep never exercised both rollbacks ({incidents} incidents, {preemptions} preemptions)"
    );
}

proptest! {
    // Per-class conservation is exact: the interactive/batch partitions
    // of completed, shed and failed sum to the run totals, and the run
    // is bit-identical on a rerun.
    #[test]
    fn class_partitions_conserve_requests_exactly(
        scenario in class_strategy(),
    ) {
        let (prepared, cfg) = scenario;
        let hw = HwConfig::default();
        let out = simulate_queue(&prepared, &cfg, &hw, 256);
        let s = &out.summary;

        prop_assert_eq!(
            s.completed + s.shed as usize + s.failed as usize,
            s.requests
        );
        prop_assert_eq!(
            s.class_completed.iter().sum::<u64>(),
            s.completed as u64
        );
        prop_assert_eq!(s.class_shed.iter().sum::<u64>(), s.shed);
        prop_assert_eq!(s.class_failed.iter().sum::<u64>(), s.failed);
        for c in 0..RequestClass::COUNT {
            prop_assert!(s.class_violations[c] <= s.class_completed[c]);
        }

        let json = s.to_json("class-prop");
        prop_assert!(
            !json.contains("inf") && !json.contains("NaN") && !json.contains("nan"),
            "non-finite field in {}", json
        );
        let again = simulate_queue(&prepared, &cfg, &hw, 256);
        prop_assert_eq!(&again, &out);
    }

    // Preemption never strands a request: every offered request reaches
    // exactly one terminal state (completed, shed or failed), with the
    // indices partitioning the stream — under overload, faults and
    // retries alike.
    #[test]
    fn preemption_never_strands_a_request(
        scenario in class_strategy(),
    ) {
        let (prepared, mut cfg) = scenario;
        if let Some(pol) = cfg.classes.take() {
            cfg = cfg.with_classes(pol.with_preemption());
        }
        let out = simulate_queue(&prepared, &cfg, &HwConfig::default(), 256);
        prop_assert_eq!(
            out.records.len() + out.shed.len() + out.failed.len(),
            prepared.len()
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
        // Every completion finished no earlier than it started, even
        // preempt-restarted batch work (the residual re-prices, it is
        // never lost).
        for r in &out.records {
            prop_assert!(r.finish >= r.start && r.start >= r.arrival);
        }
    }

    // Enabling preemption improves the interactive class in aggregate:
    // over a batch of seeds on the same stream and knobs, it never ends
    // worse on both interactive axes (total sheds, summed p99) at once.
    // Strict per-seed monotonicity is NOT a theorem — a cold-requeued
    // victim inflates later wait predictions, so one seed can trade a
    // shed for a better tail or vice versa.
    #[test]
    fn preemption_improves_the_interactive_class_in_aggregate(
        profile in proptest::collection::vec((20_000u64..120_000, 0u32..30), 16..40),
        engines in 2usize..5,
        seed0 in 0u64..500,
        load_x10 in 12u32..17,
        mix_x10 in 2u32..6,
    ) {
        let prepared = fab_stream(&profile);
        let hw = HwConfig::default();
        let mix = mix_x10 as f64 / 10.0;
        let iv = RequestClass::Interactive.idx();
        let (mut shed_plain, mut shed_pre) = (0u64, 0u64);
        let (mut p99_plain, mut p99_pre) = (0u64, 0u64);
        for k in 0..12u64 {
            let base = QueueConfig::new(
                engines,
                SchedPolicy::CacheAffinity,
                load_x10 as f64 / 10.0,
                seed0 + k,
            )
            .with_traffic(TrafficModel::bursty_default());
            let plain = simulate_queue(
                &prepared,
                &base.clone().with_classes(ClassPolicy::mix(mix)),
                &hw,
                256,
            )
            .summary;
            let pre = simulate_queue(
                &prepared,
                &base.with_classes(ClassPolicy::mix(mix).with_preemption()),
                &hw,
                256,
            )
            .summary;
            shed_plain += plain.class_shed[iv];
            shed_pre += pre.class_shed[iv];
            // Sum the tails only where both runs completed interactives;
            // an empty side has p99 = 0 and would bias the aggregate.
            if plain.class_completed[iv] > 0 && pre.class_completed[iv] > 0 {
                p99_plain += plain.class_p99_e2e[iv];
                p99_pre += pre.class_p99_e2e[iv];
            }
        }
        // The Pareto claim: across the seed batch, preemption never
        // loses on both axes at once — sheds can tick up by a seed's
        // noise only when the tail improved, and vice versa. (The
        // committed capacity verdict pins the strict both-axes win at
        // fixed seeds; see BENCH_capacity.json.)
        prop_assert!(
            shed_pre <= shed_plain || p99_pre < p99_plain,
            "preemption worsened aggregate sheds ({} vs {}) without improving \
             the aggregate p99 ({} vs {})",
            shed_pre, shed_plain, p99_pre, p99_plain
        );
        prop_assert!(
            p99_pre <= p99_plain || shed_pre < shed_plain,
            "preemption worsened aggregate p99 ({} vs {}) without improving \
             the aggregate sheds ({} vs {})",
            p99_pre, p99_plain, shed_pre, shed_plain
        );
    }

    // The degrade ladder moves exactly one rung per step and saturates
    // at its ends — a descent can never skip a rung, and a recovery
    // from any rung below full passes back through every intermediate
    // rung (monotone trajectories between reversals).
    #[test]
    fn degrade_ladder_steps_exactly_one_rung(rung in 0usize..DegradeMode::COUNT) {
        let mode = [DegradeMode::Full, DegradeMode::CheapFixed, DegradeMode::Lite][rung];
        let down = mode.down();
        let up = mode.up();
        prop_assert!(down.idx() == (mode.idx() + 1).min(DegradeMode::COUNT - 1));
        prop_assert!(up.idx() == mode.idx().saturating_sub(1));
        // Round trips from the interior rungs are identities.
        if mode != DegradeMode::Lite {
            prop_assert_eq!(down.up(), mode);
        }
        if mode != DegradeMode::Full {
            prop_assert_eq!(up.down(), mode);
        }
    }

    // Brownout accounting on the real degraded preparation: the
    // mode-residency cycles partition the makespan exactly, degraded
    // completions only exist once the ladder left full service, and the
    // run reproduces bit-identically.
    #[test]
    fn brownout_residency_closes_and_degraded_implies_descent(
        engines in 2usize..5,
        seed in 0u64..500,
        load_x10 in 6u32..22,
        down_x10 in 12u32..30,
        up_frac_x10 in 2u32..8,
        cooldown_x10 in 0u32..40,
    ) {
        let (prepared, hw, row, _) = brownout_setup();
        let degrade = DegradePolicy {
            down_pressure: down_x10 as f64 / 10.0,
            up_pressure: (down_x10 * up_frac_x10) as f64 / 100.0,
            cooldown_services: cooldown_x10 as f64 / 10.0,
        };
        let cfg = QueueConfig::new(
            engines,
            SchedPolicy::CostAware,
            load_x10 as f64 / 10.0,
            seed,
        )
        .with_traffic(TrafficModel::bursty_default())
        .with_lineup(EngineLineup::mixed(engines, *hw))
        .with_format(FormatPolicy::Adaptive)
        .with_classes(ClassPolicy::mix(0.3).with_preemption())
        .with_degrade(degrade);
        let out = simulate_queue(prepared, &cfg, hw, *row);
        let s = &out.summary;
        prop_assert_eq!(
            s.mode_cycles.iter().sum::<u64>(),
            s.makespan_cycles,
            "mode residency does not partition the makespan"
        );
        if s.mode_cycles[DegradeMode::CheapFixed.idx()] == 0
            && s.mode_cycles[DegradeMode::Lite.idx()] == 0
        {
            prop_assert_eq!(s.degraded, 0);
        }
        prop_assert!(s.degraded <= s.completed as u64);
        let json = s.to_json("brownout-prop");
        prop_assert!(
            !json.contains("inf") && !json.contains("NaN") && !json.contains("nan"),
            "non-finite field in {}", json
        );
        let again = simulate_queue(prepared, &cfg, hw, *row);
        prop_assert_eq!(&again, &out);
    }

    // Every feature at once on the real degraded preparation: a mixed
    // lineup with adaptive formats and brownout, `mix(0.3)+preempt`
    // classes, MTBF faults with retries, autoscale, closed-loop
    // traffic and a shard plan. Requests and every class partition are
    // conserved exactly, the JSON stays finite, and replaying the run's
    // recorded arrivals reproduces it byte for byte.
    #[test]
    fn all_features_conserve_and_replay_byte_for_byte(
        engines in 2usize..5,
        seed in 0u64..500,
        load_x10 in 8u32..20,
        clients in 2usize..12,
        floor_pick in 0usize..4,
        shards in 2usize..5,
        hubs in 0usize..16,
        policy in prop_oneof![
            Just(SchedPolicy::CostAware),
            Just(SchedPolicy::ShardAffinity),
            Just(SchedPolicy::CacheAffinity),
        ],
    ) {
        let (prepared, hw, row, graph) = brownout_setup();
        let cfg = QueueConfig::new(engines, policy, load_x10 as f64 / 10.0, seed)
            .with_traffic(TrafficModel::ClosedLoop { clients })
            .with_lineup(EngineLineup::mixed(engines, *hw))
            .with_format(FormatPolicy::Adaptive)
            .with_degrade(DegradePolicy::default())
            .with_classes(ClassPolicy::mix(0.3).with_preemption())
            .with_faults(FailureModel::mtbf_default())
            .with_retry(RetryPolicy::new(2, 0))
            .with_autoscale(ScalePolicy::with_floor(1 + floor_pick % engines))
            .with_sharding(ShardPlan::from_graph(graph, shards, hubs));
        let out = simulate_queue(prepared, &cfg, hw, *row);
        let s = &out.summary;

        prop_assert_eq!(s.requests, prepared.len());
        prop_assert_eq!(
            s.completed + s.shed as usize + s.failed as usize,
            s.requests
        );
        let mut seen: Vec<usize> = out
            .records
            .iter()
            .map(|r| r.index)
            .chain(out.shed.iter().map(|r| r.index))
            .chain(out.failed.iter().map(|r| r.index))
            .collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..prepared.len()).collect::<Vec<_>>());
        prop_assert_eq!(s.class_completed.iter().sum::<u64>(), s.completed as u64);
        prop_assert_eq!(s.class_shed.iter().sum::<u64>(), s.shed);
        prop_assert_eq!(s.class_failed.iter().sum::<u64>(), s.failed);
        for c in 0..RequestClass::COUNT {
            prop_assert!(s.class_violations[c] <= s.class_completed[c]);
        }
        prop_assert_eq!(s.mode_cycles.iter().sum::<u64>(), s.makespan_cycles);
        prop_assert!(s.degraded <= s.completed as u64);

        let json = s.to_json("all-features");
        prop_assert!(
            !json.contains("inf") && !json.contains("NaN") && !json.contains("nan"),
            "non-finite field in {}", json
        );
        let replay = simulate_queue(
            prepared,
            &cfg.clone().with_trace(out.arrival_trace()),
            hw,
            *row,
        );
        prop_assert_eq!(replay.summary.to_json("all-features"), json);
    }
}
