//! Queueing thread-count equivalence on the real serving path. This is
//! the **only** test in this binary: `SGCN_THREADS` is process state,
//! and any sibling test reaching `par_map` (or anything else that reads
//! the environment) would race the `set_var` calls — the same
//! one-env-test discipline as `thread_equivalence.rs` and
//! `golden_suite.rs`. Integration-test binaries are separate processes,
//! so the env-free queueing properties live in `queueing.rs` instead.

use sgcn::accel::AccelModel;
use sgcn::experiments::ExperimentConfig;
use sgcn::serving::queueing::{
    feature_row_bytes, prepare, prepare_degraded, simulate_queue, ClassPolicy, DegradePolicy,
    EngineLineup, FailureModel, FleetSpec, FormatPolicy, QueueConfig, RetryPolicy, ScalePolicy,
    SchedPolicy, ServeFormat, SloConfig, TrafficModel,
};
use sgcn::serving::{ServingConfig, ServingContext};
use sgcn::HwConfig;
use sgcn_graph::datasets::DatasetId;
use sgcn_graph::sampling::Fanouts;

/// One full queueing sweep on the real serving path (hotspot stream,
/// every traffic model × policy, plus SLO-shedding,
/// heterogeneous-fleet/work-stealing and sharded-store cells),
/// returning every byte that lands in `BENCH_queue.json`.
fn queue_probe() -> Vec<String> {
    let cfg = ExperimentConfig::quick();
    let ctx = ServingContext::new(ServingConfig {
        dataset: DatasetId::Cora,
        scale: cfg.scale,
        fanouts: Fanouts::new(vec![8, 4]),
        width: cfg.width,
        seed: cfg.seed,
    });
    let stream = ctx.hotspot_stream(30, 5);
    let hw = HwConfig::default();
    let prepared = prepare(&ctx, &stream, &AccelModel::sgcn(), &hw);
    let row = feature_row_bytes(&ctx);
    let mean = prepared.iter().map(|p| p.report.cycles).sum::<u64>() / 30;
    let traffics = [
        TrafficModel::Exponential,
        TrafficModel::bursty_default(),
        TrafficModel::diurnal_default(),
        TrafficModel::ClosedLoop { clients: 6 },
    ];
    let mut out = Vec::new();
    for traffic in traffics {
        for policy in SchedPolicy::ALL {
            let qcfg = QueueConfig::new(3, policy, 0.8, 7).with_traffic(traffic);
            let run = simulate_queue(&prepared, &qcfg, &hw, row);
            out.push(
                run.summary
                    .to_json(&format!("{} {}", traffic.label(), policy.label())),
            );
        }
    }
    // SLO shedding under pressure, and the event loop's fleet features.
    for (name, qcfg) in [
        (
            "slo-shed",
            QueueConfig::new(2, SchedPolicy::SloAware, 1.5, 7)
                .with_traffic(TrafficModel::bursty_default())
                .with_slo(SloConfig::shedding(2 * mean)),
        ),
        (
            "mixed-steal",
            QueueConfig::new(3, SchedPolicy::CacheAffinity, 0.9, 7)
                .with_fleet(FleetSpec::mixed(3, 1.5).with_work_stealing()),
        ),
    ] {
        out.push(
            simulate_queue(&prepared, &qcfg, &hw, row)
                .summary
                .to_json(name),
        );
    }
    // Failure drill: MTBF crashes, bounded retries and elastic
    // autoscaling on bursty traffic — plus the recorded arrival trace
    // replayed through the same fleet, which must reproduce the drill
    // byte for byte.
    let drill_cfg = QueueConfig::new(3, SchedPolicy::CacheAffinity, 0.9, 7)
        .with_traffic(TrafficModel::bursty_default())
        .with_faults(FailureModel::mtbf_default())
        .with_retry(RetryPolicy::new(3, mean / 4))
        .with_autoscale(ScalePolicy::with_floor(2));
    let drill = simulate_queue(&prepared, &drill_cfg, &hw, row);
    let trace = drill.arrival_trace();
    out.push(trace.to_json());
    out.push(drill.summary.to_json("drill"));
    let replay = simulate_queue(&prepared, &drill_cfg.with_trace(trace), &hw, row);
    assert_eq!(replay.summary, drill.summary, "drill replay diverged");
    out.push(replay.summary.to_json("drill-replay"));
    // Scenario-lab cells: deadline classes with preemption under
    // overload and drills, then the brownout ladder on the degraded
    // preparation (lineup + adaptive dispatch), with and without the
    // degrade policy — the preparation itself is the parallel stage the
    // worker count exercises.
    let class_cfg = QueueConfig::new(3, SchedPolicy::CacheAffinity, 1.3, 7)
        .with_traffic(TrafficModel::bursty_default())
        .with_faults(FailureModel::mtbf_default())
        .with_retry(RetryPolicy::new(2, mean / 4))
        .with_classes(ClassPolicy::mix(0.3).with_preemption());
    out.push(
        simulate_queue(&prepared, &class_cfg, &hw, row)
            .summary
            .to_json("classes-preempt"),
    );
    let lineup = EngineLineup::mixed(3, hw);
    let degraded = prepare_degraded(
        &ctx,
        &stream,
        &AccelModel::sgcn(),
        &lineup,
        &ServeFormat::PALETTE,
    );
    // Sharded-store cells: a real shard plan over the context graph,
    // shard-oblivious vs shard-affinity routing — the per-request
    // residency bitmaps and the network bill must be thread-invariant.
    let plan = sgcn::serving::sharding::ShardPlan::from_graph(&ctx.dataset.graph, 3, 8);
    for policy in [SchedPolicy::LeastLoaded, SchedPolicy::ShardAffinity] {
        let qcfg = QueueConfig::new(3, policy, 0.9, 7)
            .with_traffic(TrafficModel::bursty_default())
            .with_sharding(plan.clone());
        out.push(
            simulate_queue(&prepared, &qcfg, &hw, row)
                .summary
                .to_json(&format!("sharded {}", policy.label())),
        );
    }
    for (name, brownout) in [("classes-lab-off", false), ("classes-lab-on", true)] {
        let mut lab_cfg = QueueConfig::new(3, SchedPolicy::CostAware, 1.5, 7)
            .with_traffic(TrafficModel::bursty_default())
            .with_lineup(lineup.clone())
            .with_format(FormatPolicy::Adaptive)
            .with_faults(FailureModel::mtbf_default())
            .with_retry(RetryPolicy::new(2, mean / 4))
            .with_classes(ClassPolicy::mix(0.3).with_preemption());
        if brownout {
            lab_cfg = lab_cfg.with_degrade(DegradePolicy::default());
        }
        out.push(
            simulate_queue(&degraded, &lab_cfg, &hw, row)
                .summary
                .to_json(name),
        );
    }
    out
}

#[test]
fn forced_worker_counts_produce_identical_queue_json() {
    std::env::set_var("SGCN_THREADS", "1");
    assert_eq!(sgcn_par::threads(), 1);
    let serial = queue_probe();

    for workers in ["2", "4"] {
        std::env::set_var("SGCN_THREADS", workers);
        assert_eq!(sgcn_par::threads(), workers.parse::<usize>().unwrap());
        assert_eq!(
            queue_probe(),
            serial,
            "SGCN_THREADS={workers} changed the queue summaries"
        );
    }
    std::env::remove_var("SGCN_THREADS");
}
