//! Golden-trace regression tests: the rendered quick-suite figures and
//! the serving summary are committed under `tests/golden/` and any drift
//! fails with a readable line diff.
//!
//! The suite output is deterministic by contract — bit-identical across
//! thread counts and driver memoization — so these snapshots pin the
//! *results* of every experiment driver at once. (That the simulator's
//! reports and the serving engines' `RowCache` are equal on both cache
//! models is checked by `tests/fast_path_equivalence.rs` and
//! `tests/proptest_row_cache.rs`.) After
//! an intentional modelling change, regenerate with:
//!
//! ```text
//! SGCN_UPDATE_GOLDEN=1 cargo test --test golden_suite
//! ```
//!
//! and review the golden diff like any other code change.

use std::fmt::Write as _;
use std::path::PathBuf;

use sgcn::experiments::ExperimentConfig;
use sgcn_graph::datasets::DatasetId;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn update_mode() -> bool {
    std::env::var("SGCN_UPDATE_GOLDEN")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// A readable unified-style diff: every differing line with its number,
/// truncated after a handful of hunks.
fn line_diff(expected: &str, actual: &str) -> Option<String> {
    if expected == actual {
        return None;
    }
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let mut out = String::new();
    let mut shown = 0usize;
    let mut differing = 0usize;
    for i in 0..exp.len().max(act.len()) {
        let e = exp.get(i).copied();
        let a = act.get(i).copied();
        if e == a {
            continue;
        }
        differing += 1;
        if shown < 20 {
            if let Some(e) = e {
                let _ = writeln!(out, "  line {:>4} - {e}", i + 1);
            }
            if let Some(a) = a {
                let _ = writeln!(out, "  line {:>4} + {a}", i + 1);
            }
            shown += 1;
        }
    }
    if differing > shown {
        let _ = writeln!(out, "  … and {} more differing lines", differing - shown);
    }
    let _ = writeln!(
        out,
        "  ({} expected lines, {} actual lines)",
        exp.len(),
        act.len()
    );
    Some(out)
}

/// Drops a machine-collectable copy of a golden diff under
/// `target/golden_diffs/` so CI can upload it as a failure artifact
/// (the panic message truncates long diffs; the file carries all of it).
fn write_diff_artifact(name: &str, expected: &str, actual: &str, diff: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/golden_diffs");
    if std::fs::create_dir_all(&dir).is_err() {
        return; // best-effort: never mask the assertion itself
    }
    let _ = std::fs::write(
        dir.join(format!("{name}.diff")),
        format!("--- golden {name}\n+++ actual\n{diff}"),
    );
    let _ = std::fs::write(dir.join(format!("{name}.actual")), actual);
    let _ = std::fs::write(dir.join(format!("{name}.expected")), expected);
}

/// Compares `actual` against the committed snapshot (or rewrites it in
/// update mode). On drift, the full diff is also written under
/// `target/golden_diffs/` for CI artifact upload.
fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if update_mode() {
        std::fs::write(&path, actual).expect("write golden");
        eprintln!("updated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run SGCN_UPDATE_GOLDEN=1 cargo test --test golden_suite",
            path.display()
        )
    });
    if let Some(diff) = line_diff(&expected, actual) {
        write_diff_artifact(name, &expected, actual, &diff);
        panic!(
            "{name} drifted from the committed golden:\n{diff}\
             If the change is intentional, regenerate with \
             SGCN_UPDATE_GOLDEN=1 cargo test --test golden_suite and review the diff \
             (full copy under target/golden_diffs/)."
        );
    }
}

fn quick_datasets() -> Vec<DatasetId> {
    vec![DatasetId::Cora, DatasetId::PubMed, DatasetId::Github]
}

/// The serving summary JSON (a small request stream at quick scale)
/// must match its snapshot — pinning the sampler, the workload
/// construction, and the percentile aggregation in one trace. Called
/// from [`quick_suite_and_serving_match_goldens`].
fn check_serve_summary_golden() {
    use sgcn::accel::AccelModel;
    use sgcn::serving::queueing::prepare;
    use sgcn::serving::{ServeSummary, ServingConfig, ServingContext};

    let cfg = ExperimentConfig::quick();
    let ctx = ServingContext::new(ServingConfig {
        dataset: DatasetId::PubMed,
        scale: cfg.scale,
        fanouts: sgcn_graph::sampling::Fanouts::new(vec![10, 5]),
        width: cfg.width,
        seed: cfg.seed,
    });
    let stream = ctx.request_stream(100);
    let batch = prepare(&ctx, &stream, &AccelModel::sgcn(), &cfg.hw());
    let json = ServeSummary::from_reports(&batch).to_json("PM fanout 10x5 SGCN");
    assert_matches_golden("serve_quick.json", &json);
}

/// The queueing summary JSON (a hotspot stream through the three-policy
/// scheduler at quick scale) must match its snapshot — pinning the
/// arrival process, the warm-cache event loop, and the affinity policy
/// in one trace. Called from [`quick_suite_and_serving_match_goldens`].
fn check_queue_summary_golden() {
    use sgcn::accel::AccelModel;
    use sgcn::serving::queueing::{
        feature_row_bytes, prepare_for, simulate_queue, QueueConfig, SchedPolicy,
    };
    use sgcn::serving::{ServingConfig, ServingContext};

    let cfg = ExperimentConfig::quick();
    let ctx = ServingContext::new(ServingConfig {
        dataset: DatasetId::PubMed,
        scale: cfg.scale,
        fanouts: sgcn_graph::sampling::Fanouts::new(vec![10, 5]),
        width: cfg.width,
        seed: cfg.seed,
    });
    let stream = ctx.hotspot_stream(60, 10);
    let qcfg = QueueConfig::new(4, SchedPolicy::CacheAffinity, 0.8, cfg.seed);
    let prepared = prepare_for(&ctx, &stream, &AccelModel::sgcn(), &cfg.hw(), &qcfg);
    let out = simulate_queue(&prepared, &qcfg, &cfg.hw(), feature_row_bytes(&ctx));
    let json = out.summary.to_json("PM fanout 10x5 SGCN x4 cache-affinity");
    assert_matches_golden("queue_quick.json", &json);
}

/// The SLO-shedding queueing summary under bursty traffic (a deliberately
/// tight deadline at high offered load, so both the shed and the
/// violation paths fire) must match its snapshot — pinning the bursty
/// arrival generator, the admission-control decision, and the EDF
/// `slo-aware` discipline in one trace. Called from
/// [`quick_suite_and_serving_match_goldens`].
fn check_queue_slo_summary_golden() {
    use sgcn::accel::AccelModel;
    use sgcn::serving::queueing::{
        feature_row_bytes, prepare, simulate_queue, QueueConfig, SchedPolicy, SloConfig,
        TrafficModel,
    };
    use sgcn::serving::{ServingConfig, ServingContext};

    let cfg = ExperimentConfig::quick();
    let ctx = ServingContext::new(ServingConfig {
        dataset: DatasetId::PubMed,
        scale: cfg.scale,
        fanouts: sgcn_graph::sampling::Fanouts::new(vec![10, 5]),
        width: cfg.width,
        seed: cfg.seed,
    });
    let stream = ctx.hotspot_stream(60, 10);
    let prepared = prepare(&ctx, &stream, &AccelModel::sgcn(), &cfg.hw());
    let mean = prepared.iter().map(|p| p.report.cycles).sum::<u64>() / 60;
    let qcfg = QueueConfig::new(2, SchedPolicy::SloAware, 1.5, cfg.seed)
        .with_traffic(TrafficModel::bursty_default())
        .with_slo(SloConfig::shedding(2 * mean));
    let out = simulate_queue(&prepared, &qcfg, &cfg.hw(), feature_row_bytes(&ctx));
    assert!(
        out.summary.shed > 0,
        "the pinned SLO scenario must exercise shedding (got {})",
        out.summary.shed
    );
    let json = out
        .summary
        .to_json("PM fanout 10x5 SGCN x2 slo-aware bursty");
    assert_matches_golden("queue_slo_quick.json", &json);
}

/// The failure-drill queueing summary (MTBF crashes, bounded retries,
/// elastic autoscaling on bursty traffic) must match its snapshot —
/// pinning the seed-pure fault schedule, the crash/redrive path, cold
/// recovery and the scaling policy in one trace. The recorded arrival
/// trace must also replay to the identical summary, pinning the
/// record/replay seam alongside. Called from
/// [`quick_suite_and_serving_match_goldens`].
fn check_queue_drill_summary_golden() {
    use sgcn::accel::AccelModel;
    use sgcn::serving::queueing::{
        feature_row_bytes, prepare, simulate_queue, FailureModel, QueueConfig, RetryPolicy,
        ScalePolicy, SchedPolicy, TrafficModel,
    };
    use sgcn::serving::{ServingConfig, ServingContext};

    let cfg = ExperimentConfig::quick();
    let ctx = ServingContext::new(ServingConfig {
        dataset: DatasetId::PubMed,
        scale: cfg.scale,
        fanouts: sgcn_graph::sampling::Fanouts::new(vec![10, 5]),
        width: cfg.width,
        seed: cfg.seed,
    });
    let stream = ctx.hotspot_stream(60, 10);
    let prepared = prepare(&ctx, &stream, &AccelModel::sgcn(), &cfg.hw());
    let qcfg = QueueConfig::new(4, SchedPolicy::CacheAffinity, 0.9, cfg.seed)
        .with_traffic(TrafficModel::bursty_default())
        .with_faults(FailureModel::mtbf_default())
        .with_retry(RetryPolicy::new(3, 0))
        .with_autoscale(ScalePolicy::with_floor(2));
    let out = simulate_queue(&prepared, &qcfg, &cfg.hw(), feature_row_bytes(&ctx));
    assert!(
        out.summary.incidents > 0,
        "the pinned drill must crash at least one engine"
    );
    assert!(
        out.summary.availability < 1.0,
        "the pinned drill must dent availability (got {})",
        out.summary.availability
    );
    let trace = out.arrival_trace();
    let replay = simulate_queue(
        &prepared,
        &qcfg.clone().with_trace(trace),
        &cfg.hw(),
        feature_row_bytes(&ctx),
    );
    assert_eq!(replay.summary, out.summary, "drill trace replay diverged");
    let json = out
        .summary
        .to_json("PM fanout 10x5 SGCN x4 cache-affinity bursty drill");
    assert_matches_golden("queue_drill_quick.json", &json);
}

/// The heterogeneous-lineup queueing summary (a mixed ref/eco lineup
/// under bursty traffic routed by the cost-model-driven `cost-aware`
/// policy) must match its snapshot — pinning per-class cold
/// preparation, per-class warm-savings pricing, the deterministic
/// cost-model fit, and predicted-completion routing in one trace. The
/// same cell must also beat (or match) class-blind least-loaded routing
/// on p99 end-to-end latency: the acceptance gate of the lineup work.
/// Called from [`quick_suite_and_serving_match_goldens`].
fn check_queue_lineup_summary_golden() {
    use sgcn::accel::AccelModel;
    use sgcn::serving::queueing::{
        feature_row_bytes, prepare_for, simulate_queue, EngineLineup, QueueConfig, SchedPolicy,
        TrafficModel,
    };
    use sgcn::serving::{ServingConfig, ServingContext};

    let cfg = ExperimentConfig::quick();
    let ctx = ServingContext::new(ServingConfig {
        dataset: DatasetId::PubMed,
        scale: cfg.scale,
        fanouts: sgcn_graph::sampling::Fanouts::new(vec![10, 5]),
        width: cfg.width,
        seed: cfg.seed,
    });
    let stream = ctx.hotspot_stream(60, 10);
    let lineup = EngineLineup::mixed(4, cfg.hw());
    let config = |policy| {
        QueueConfig::new(4, policy, 0.8, cfg.seed)
            .with_traffic(TrafficModel::bursty_default())
            .with_lineup(lineup.clone())
    };
    let prepared = prepare_for(
        &ctx,
        &stream,
        &AccelModel::sgcn(),
        &cfg.hw(),
        &config(SchedPolicy::CostAware),
    );
    let row = feature_row_bytes(&ctx);
    let run = |policy| simulate_queue(&prepared, &config(policy), &cfg.hw(), row);
    let least = run(SchedPolicy::LeastLoaded);
    let cost = run(SchedPolicy::CostAware);
    assert!(
        cost.summary.p99_e2e_cycles <= least.summary.p99_e2e_cycles,
        "cost-aware p99 {} must not lose to least-loaded p99 {} on the mixed lineup",
        cost.summary.p99_e2e_cycles,
        least.summary.p99_e2e_cycles
    );
    let json = cost
        .summary
        .to_json("PM fanout 10x5 SGCN x4 cost-aware bursty lineup-mixed");
    assert_matches_golden("queue_lineup_quick.json", &json);
}

/// The adaptive format-dispatch queueing summary (the full
/// `(class, format)` matrix preparation on the mixed lineup, routed
/// `cost-aware` with the `adaptive` format policy under bursty traffic)
/// must match its snapshot — pinning the palette-wide cold preparation,
/// the per-cell cost-model fit, and the joint engine × format dispatch
/// decision in one trace. The adaptive cell must also beat (or match)
/// every fixed palette format on p99 end-to-end latency: the acceptance
/// gate of the format work. Called from
/// [`quick_suite_and_serving_match_goldens`].
fn check_queue_format_summary_golden() {
    use sgcn::accel::AccelModel;
    use sgcn::serving::queueing::{
        feature_row_bytes, prepare_for, simulate_queue, EngineLineup, FormatPolicy, QueueConfig,
        SchedPolicy, ServeFormat, TrafficModel,
    };
    use sgcn::serving::{ServingConfig, ServingContext};

    let cfg = ExperimentConfig::quick();
    let ctx = ServingContext::new(ServingConfig {
        dataset: DatasetId::PubMed,
        scale: cfg.scale,
        fanouts: sgcn_graph::sampling::Fanouts::new(vec![10, 5]),
        width: cfg.width,
        seed: cfg.seed,
    });
    let stream = ctx.hotspot_stream(60, 10);
    let lineup = EngineLineup::mixed(4, cfg.hw());
    let config = |format| {
        QueueConfig::new(4, SchedPolicy::CostAware, 0.8, cfg.seed)
            .with_traffic(TrafficModel::bursty_default())
            .with_lineup(lineup.clone())
            .with_format(format)
    };
    let prepared = prepare_for(
        &ctx,
        &stream,
        &AccelModel::sgcn(),
        &cfg.hw(),
        &config(FormatPolicy::Adaptive),
    );
    let row = feature_row_bytes(&ctx);
    let run = |format| simulate_queue(&prepared, &config(format), &cfg.hw(), row);
    let adaptive = run(FormatPolicy::Adaptive);
    for f in ServeFormat::PALETTE {
        let fixed = run(FormatPolicy::Fixed(f));
        assert!(
            adaptive.summary.p99_e2e_cycles <= fixed.summary.p99_e2e_cycles,
            "adaptive p99 {} must not lose to fixed:{} p99 {} on the mixed lineup",
            adaptive.summary.p99_e2e_cycles,
            f.label(),
            fixed.summary.p99_e2e_cycles
        );
    }
    let json = adaptive
        .summary
        .to_json("PM fanout 10x5 SGCN x4 cost-aware bursty lineup-mixed adaptive");
    assert_matches_golden("queue_format_quick.json", &json);
}

/// The deadline-class / brownout queueing summary (a class mix with
/// preemption and the degrade ladder on the degraded mixed-lineup
/// preparation, under bursty overload with MTBF drills) must match its
/// snapshot — pinning the seeded class draw, per-class EDF and
/// admission, the preemption path, the one-rung brownout ladder and its
/// residency accounting in one trace. The cell must actually exercise
/// the lab: preemptions fired, completions degraded, and the ladder
/// left full service. Called from
/// [`quick_suite_and_serving_match_goldens`].
fn check_queue_class_summary_golden() {
    use sgcn::accel::AccelModel;
    use sgcn::serving::queueing::{
        feature_row_bytes, prepare_degraded, simulate_queue, ClassPolicy, DegradePolicy,
        EngineLineup, FailureModel, FormatPolicy, QueueConfig, RetryPolicy, SchedPolicy,
        ServeFormat, TrafficModel,
    };
    use sgcn::serving::{ServingConfig, ServingContext};

    let cfg = ExperimentConfig::quick();
    let ctx = ServingContext::new(ServingConfig {
        dataset: DatasetId::PubMed,
        scale: cfg.scale,
        fanouts: sgcn_graph::sampling::Fanouts::new(vec![10, 5]),
        width: cfg.width,
        seed: cfg.seed,
    });
    let stream = ctx.hotspot_stream(60, 10);
    let lineup = EngineLineup::mixed(4, cfg.hw());
    let prepared = prepare_degraded(
        &ctx,
        &stream,
        &AccelModel::sgcn(),
        &lineup,
        &ServeFormat::PALETTE,
    );
    let qcfg = QueueConfig::new(4, SchedPolicy::CostAware, 1.4, cfg.seed)
        .with_traffic(TrafficModel::bursty_default())
        .with_lineup(lineup)
        .with_format(FormatPolicy::Adaptive)
        .with_faults(FailureModel::mtbf_default())
        .with_retry(RetryPolicy::new(2, 0))
        .with_classes(ClassPolicy::mix(0.3).with_preemption())
        .with_degrade(DegradePolicy::default());
    let out = simulate_queue(&prepared, &qcfg, &cfg.hw(), feature_row_bytes(&ctx));
    let s = &out.summary;
    assert!(s.preemptions > 0, "the pinned lab cell must preempt");
    assert!(s.degraded > 0, "the pinned lab cell must degrade");
    assert!(
        s.mode_cycles[1] + s.mode_cycles[2] > 0,
        "the pinned lab cell must leave full service"
    );
    assert_eq!(
        s.mode_cycles.iter().sum::<u64>(),
        s.makespan_cycles,
        "mode residency must partition the makespan"
    );
    let json = s.to_json("PM fanout 10x5 SGCN x4 cost-aware bursty lab classes+brownout");
    assert_matches_golden("queue_class_quick.json", &json);
}

/// The sharded-store queueing summary (a shard plan with replicated
/// hubs over the context graph, routed `shard-affinity` under bursty
/// traffic) must match its snapshot — pinning the contiguous-range
/// partition, hub selection, per-request residency bitmaps, the
/// locality-maximizing routing decision and the cross-shard network
/// bill in one trace. The same cell must also beat (or match)
/// shard-oblivious least-loaded routing on cross-shard bytes at equal
/// completed requests: the acceptance gate of the sharding work.
/// Called from [`quick_suite_and_serving_match_goldens`].
fn check_queue_shard_summary_golden() {
    use sgcn::accel::AccelModel;
    use sgcn::serving::queueing::{
        feature_row_bytes, prepare, simulate_queue, QueueConfig, SchedPolicy, ShardPlan,
        TrafficModel,
    };
    use sgcn::serving::{ServingConfig, ServingContext};

    let cfg = ExperimentConfig::quick();
    let ctx = ServingContext::new(ServingConfig {
        dataset: DatasetId::PubMed,
        scale: cfg.scale,
        fanouts: sgcn_graph::sampling::Fanouts::new(vec![10, 5]),
        width: cfg.width,
        seed: cfg.seed,
    });
    let stream = ctx.hotspot_stream(60, 10);
    let prepared = prepare(&ctx, &stream, &AccelModel::sgcn(), &cfg.hw());
    let plan = ShardPlan::from_graph(&ctx.dataset.graph, 4, 64);
    let run = |policy| {
        let qcfg = QueueConfig::new(4, policy, 0.8, cfg.seed)
            .with_traffic(TrafficModel::bursty_default())
            .with_sharding(plan.clone());
        simulate_queue(&prepared, &qcfg, &cfg.hw(), feature_row_bytes(&ctx))
    };
    let least = run(SchedPolicy::LeastLoaded);
    let affine = run(SchedPolicy::ShardAffinity);
    assert_eq!(
        affine.summary.completed, least.summary.completed,
        "shard-affinity must complete exactly as many requests as least-loaded"
    );
    assert!(
        affine.summary.net_bytes <= least.summary.net_bytes,
        "shard-affinity cross-shard bytes {} must not lose to least-loaded's {}",
        affine.summary.net_bytes,
        least.summary.net_bytes
    );
    assert!(
        affine.summary.net_bytes > 0,
        "the pinned shard cell must pay some network bill"
    );
    let json = affine
        .summary
        .to_json("PM fanout 10x5 SGCN x4 shard-affinity bursty shards 4x64hub");
    assert_matches_golden("queue_shard_quick.json", &json);
}

/// The full rendered quick suite and the serving and queueing summaries
/// must match their snapshots.
#[test]
fn quick_suite_and_serving_match_goldens() {
    let cfg = ExperimentConfig::quick();
    let datasets = quick_datasets();

    let suite = sgcn_bench::run_suite(&cfg, &datasets, true);
    assert_matches_golden("quick_suite.txt", &suite);
    check_serve_summary_golden();
    check_queue_summary_golden();
    check_queue_slo_summary_golden();
    check_queue_drill_summary_golden();
    check_queue_lineup_summary_golden();
    check_queue_format_summary_golden();
    check_queue_class_summary_golden();
    check_queue_shard_summary_golden();
}

#[test]
fn line_diff_reports_changed_lines() {
    let d = line_diff("a\nb\nc\n", "a\nX\nc\n").expect("differs");
    assert!(d.contains("line    2 - b"), "{d}");
    assert!(d.contains("line    2 + X"), "{d}");
    assert!(line_diff("same\n", "same\n").is_none());
}
