//! The online queueing harness behind `BENCH_queue.json`.
//!
//! Puts the sampled-subgraph serving path behind live traffic: a seeded
//! arrival process (open-loop exponential/bursty/diurnal or a closed
//! loop of K clients) feeds an N-engine event-driven scheduler whose
//! engines keep their feature caches **warm across requests**
//! (`sgcn::serving::queueing`). The fleet may be heterogeneous (mixed
//! fast/slow engine classes, optional cross-engine work stealing), and
//! an SLO deadline turns on admission control. The summary reports
//! queueing delay and end-to-end latency percentiles over completed
//! requests, shed/violation counts, fleet utilization, makespan and
//! warm-cache reuse.
//!
//! Every field of the JSON is a pure function of `(stream, knobs)` — the
//! only parallel stage returns results in stream order and the event
//! loop is serial — so the file is **byte-identical at any
//! `SGCN_THREADS`** (wall-clock timings go to stdout only). Knobs:
//!
//! * `SGCN_REQUESTS` — stream length (default 1000; 0 renders the
//!   all-zero summary instead of aborting),
//! * `SGCN_LOAD` — offered load ρ (default 0.8),
//! * `SGCN_ENGINES` — engine count (default 4),
//! * `SGCN_POLICY` — `fifo` / `least` / `affinity` / `slo` / `cost` /
//!   `shard` (default `affinity`),
//! * `SGCN_TRAFFIC` — `exp` / `bursty` / `diurnal` / `closed[:K]`
//!   (default `exp`),
//! * `SGCN_SLO_CYCLES` — end-to-end deadline in cycles with load
//!   shedding on; 0 = no SLO (default 0),
//! * `SGCN_FLEET` — `uniform` / `steal` / `mixed` / `mixed-steal` / a
//!   comma-separated scale list, optionally `+steal` (default
//!   `uniform`),
//! * `SGCN_LINEUP` — heterogeneous hardware lineup: `uniform` / `eco` /
//!   `mixed`, optionally `+steal`-suffixed, giving every engine a real
//!   per-class accelerator platform (overrides `SGCN_FLEET`); or
//!   `sweep` to run the lineup × routing-policy capacity planner and
//!   write `BENCH_lineup.json` (`SGCN_LINEUP_OUT`) instead of a single
//!   run (default: unset — legacy scalar fleet),
//! * `SGCN_FORMATS` — per-request serving-format dispatch (needs
//!   `SGCN_LINEUP`): `fixed:<format>` pins every request to one palette
//!   format, `adaptive` lets the cost model pick `(engine, format)` per
//!   request, `sweep` runs every fixed format plus adaptive and writes
//!   `BENCH_format.json` (`SGCN_FORMAT_OUT`) with an "adaptive vs best
//!   fixed p99" verdict (default: unset — native format),
//! * `SGCN_HOTSPOT` — hot-seed pool size, 0 = uniform traffic
//!   (default `requests / 6`),
//! * `SGCN_FAULTS` — failure drill: `none` / `mtbf[:M,R[,K]]` /
//!   `script:E@DOWN+DUR;…` (default `none`),
//! * `SGCN_RETRIES` — retry budget `A[:BACKOFF]` — max dispatch
//!   attempts per request, optional redrive backoff in cycles (default
//!   `3`),
//! * `SGCN_AUTOSCALE` — elastic fleet: `none` / `auto[:MIN[:PROV]]`
//!   (default `none`),
//! * `SGCN_CLASSES` — deadline classes: `none` / `mix:FRAC` /
//!   `mix:FRAC+preempt` — a seeded interactive/batch mix with per-class
//!   deadlines, shed switches and retry budgets; `+preempt` lets
//!   arriving interactive requests preempt in-service batch work
//!   (default `none`),
//! * `SGCN_DEGRADE` — brownout ladder: `none` /
//!   `brownout[:DOWN,UP[,COOLDOWN]]` — under backlog pressure the fleet
//!   steps adaptive → cheapest fixed format → lite fanouts and back
//!   (needs `SGCN_LINEUP` and `SGCN_FORMATS=adaptive`; default `none`),
//! * `SGCN_LOG_INGEST` — ingest a real timestamp log (one timestamp per
//!   line) as the arrival process, rescaled so the stream's offered
//!   load matches `SGCN_LOAD`; missing/malformed files are hard errors,
//! * `SGCN_CAPACITY=sweep` — run the capacity planner (fleet sizes ×
//!   class mixes under a drills-on overload) and write
//!   `BENCH_capacity.json` (`SGCN_CAPACITY_OUT`) instead of a single
//!   run,
//! * `SGCN_SHARDS` — sharded feature store: a shard count ≥ 1 wires the
//!   single run through a contiguous-range shard plan (cross-shard
//!   neighbor rows pay a modeled network bill), or `sweep` to run the
//!   shard-count × hub-replication × routing grid plus a million-vertex
//!   power-law plan and write `BENCH_shard.json` (`SGCN_SHARD_OUT`)
//!   with a locality-wins verdict (default: unset — no sharding),
//! * `SGCN_REPLICATE` — hub vertices replicated to every shard, by
//!   descending degree (needs `SGCN_SHARDS`; default 0),
//! * `SGCN_TRACE_RECORD` — write the run's arrival trace to this path,
//! * `SGCN_TRACE_REPLAY` — replay a recorded arrival trace from this
//!   path instead of generating traffic,
//! * `SGCN_QUICK=1` — test-scale graph, `SGCN_QUEUE_OUT` — output path.
//!
//! Every knob is strict: an unknown enum value aborts with a message
//! listing the valid spellings, and a numeric value that does not parse
//! aborts naming the expected type (silent fallbacks would make a
//! typo'd CI matrix cell silently re-run the default scenario).

use sgcn::accel::AccelModel;
use sgcn::config::HwConfig;
use sgcn::experiments::{
    format_cells, lineup_cells, shard_cells, CapacityScenario, ExperimentConfig, QueueCell,
};
use sgcn::serving::queueing::{
    feature_row_bytes, prepare_for, simulate_queue, ArrivalTrace, ClassPolicy, DegradePolicy,
    EngineLineup, FailureModel, FleetSpec, FormatPolicy, PreparedRequest, QueueConfig,
    QueueSummary, RequestClass, RetryPolicy, ScalePolicy, SchedPolicy, ShardPlan, SloConfig,
    TrafficModel,
};
use sgcn::serving::{Request, ServingConfig, ServingContext};
use sgcn_bench::{banner, env_parse, experiment_config};
use sgcn_graph::datasets::DatasetId;
use sgcn_graph::generate::power_law;
use sgcn_graph::sampling::Fanouts;
use sgcn_graph::Normalization;

/// Parses an enum-valued knob, aborting on unknown values with the list
/// of valid spellings — never a silent fallback.
fn knob<T>(key: &str, value: &str, valid: &str, parse: impl FnOnce(&str) -> Option<T>) -> T {
    parse(value).unwrap_or_else(|| panic!("unknown {key} {value:?} — valid values: {valid}"))
}

/// Valid spellings per knob, surfaced verbatim in abort messages.
const POLICY_VALUES: &str = "fifo, least, affinity, slo, cost, shard";
const TRAFFIC_VALUES: &str = "exp, bursty, diurnal, closed[:CLIENTS]";
const FLEET_VALUES: &str =
    "uniform, steal, mixed, mixed-steal, or a comma-separated scale list (optionally +steal)";
const LINEUP_VALUES: &str = "uniform, eco, mixed (each optionally +steal), or sweep";
const FAULTS_VALUES: &str = "none, mtbf[:MTBF,MTTR[,KILLED]], script:ENGINE@DOWN+DUR;...";
const RETRY_VALUES: &str = "ATTEMPTS[:BACKOFF_CYCLES]";
const AUTOSCALE_VALUES: &str = "none, auto[:MIN[:PROVISION_CYCLES]]";
const CLASSES_VALUES: &str = "none, mix:FRAC, mix:FRAC+preempt (FRAC in [0,1])";
const DEGRADE_VALUES: &str = "none, brownout, brownout:DOWN,UP[,COOLDOWN] (DOWN > UP >= 0)";
const CAPACITY_VALUES: &str = "sweep";
const SHARDS_VALUES: &str = "a shard count >= 1, or sweep";
const REPLICATE_VALUES: &str = "a non-negative hub-replication count";
const TRACE_FORMAT: &str = "an arrival-trace JSON written by SGCN_TRACE_RECORD \
     ({\"trace\": \"sgcn-arrivals\", \"version\": 1, \"traffic\": ..., \"times\": [...]})";

/// The PubMed serving context every run of this binary uses, its
/// request stream (`hotspot` hot seeds; uniform when `hotspot` is 0),
/// and the `dataset fanout … SGCN` label prefix of every JSON it writes.
fn serving(
    cfg: &ExperimentConfig,
    requests: usize,
    hotspot: usize,
) -> (ServingContext, Vec<Request>, String) {
    let fanouts = Fanouts::new(vec![10, 5]);
    let label = format!(
        "{} fanout {} SGCN",
        DatasetId::PubMed.abbrev(),
        fanouts.label()
    );
    let ctx = ServingContext::new(ServingConfig {
        dataset: DatasetId::PubMed,
        scale: cfg.scale,
        fanouts,
        width: cfg.width,
        seed: cfg.seed,
    });
    let stream = if hotspot == 0 {
        ctx.request_stream(requests)
    } else {
        ctx.hotspot_stream(requests, hotspot)
    };
    (ctx, stream, label)
}

/// Simulates every sweep cell over `prepared`, in order, printing one
/// line per cell (`detail` adds the sweep's own figures).
fn run_cells(
    prepared: &[PreparedRequest],
    cells: &[QueueCell],
    hw: &HwConfig,
    row_bytes: u64,
    detail: impl Fn(&QueueSummary) -> String,
) -> Vec<QueueSummary> {
    cells
        .iter()
        .map(|(row, qcfg)| {
            let s = simulate_queue(prepared, qcfg, hw, row_bytes).summary;
            println!(
                "  {row:>34}: p50e {:>9} / p99e {:>9} cycles, {}",
                s.p50_e2e_cycles,
                s.p99_e2e_cycles,
                detail(&s)
            );
            s
        })
        .collect()
}

/// Renders JSON list entries: one per line at cell indentation,
/// comma-separated.
fn json_rows(rows: impl Iterator<Item = String>) -> String {
    let rows: Vec<String> = rows.map(|r| format!("    {r}")).collect();
    format!("{}\n", rows.join(",\n"))
}

/// Prints the sweep's host-time line.
fn report_wall(t0: std::time::Instant, cells: usize) {
    println!(
        "host replay:     {:.2}s wall ({cells} cells on {} thread(s))",
        t0.elapsed().as_secs_f64(),
        sgcn_par::threads()
    );
}

/// Writes a sweep's JSON to the path in `out_key` (else `default`).
fn write_json(out_key: &str, default: &str, json: &str) {
    let path = std::env::var(out_key).unwrap_or_else(|_| default.into());
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {default}: {e}"));
    println!("wrote {path}");
}

/// The lineup × routing-policy capacity planner behind
/// `BENCH_lineup.json`: the suite's lineup cells
/// ([`sgcn::experiments::lineup_cells`]) at paper scale, one per-class
/// preparation shared by every cell, plus a `cheapest_p99` verdict —
/// the cell minimizing p99 × cost units (ties to the cheaper lineup,
/// then sweep order). Every byte of the JSON is a pure function of
/// `(stream, knobs)`.
fn lineup_sweep(requests: usize, engines: usize, load: f64, hotspot: usize) {
    let cfg = experiment_config();
    let hw = cfg.hw();
    let (ctx, stream, serving_label) = serving(&cfg, requests, hotspot);
    let label = format!("{serving_label} x{engines} lineup sweep bursty load {load:.2}");
    let cells = lineup_cells(&cfg, engines, load);
    let t0 = std::time::Instant::now();
    // One per-class preparation (the only parallel stage) serves all cells.
    let (_, widest) = cells.last().expect("a sweep has cells");
    let prepared = prepare_for(&ctx, &stream, &AccelModel::sgcn(), &hw, widest);
    let summaries = run_cells(&prepared, &cells, &hw, feature_row_bytes(&ctx), |s| {
        format!(
            "warm {:>5.1}%, {:.2} cost units",
            s.warm_hit_rate * 100.0,
            s.cost_units
        )
    });
    let best = summaries
        .iter()
        .min_by(|a, b| {
            let ka = a.p99_e2e_cycles as f64 * a.cost_units;
            let kb = b.p99_e2e_cycles as f64 * b.cost_units;
            ka.total_cmp(&kb)
                .then(a.cost_units.total_cmp(&b.cost_units))
        })
        .expect("the sweep has cells");
    println!(
        "cheapest p99:    {} with {} — p99 {} cycles at {:.2} cost units",
        best.fleet, best.policy, best.p99_e2e_cycles, best.cost_units
    );
    report_wall(t0, cells.len());

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"label\": \"{label}\",\n"));
    json.push_str(&format!("  \"requests\": {requests},\n"));
    json.push_str(&format!("  \"engines\": {engines},\n"));
    json.push_str(&format!("  \"offered_load\": {load:.6},\n"));
    json.push_str("  \"cells\": [\n");
    json.push_str(&json_rows(summaries.iter().map(|s| {
        format!(
            "{{\"lineup\": \"{}\", \"policy\": \"{}\", \"cost_units\": {:.3}, \
             \"completed\": {}, \"p50_e2e_cycles\": {}, \"p99_e2e_cycles\": {}, \
             \"makespan_cycles\": {}, \"utilization\": {:.6}, \"warm_hit_rate\": {:.6}}}",
            s.fleet,
            s.policy,
            s.cost_units,
            s.completed,
            s.p50_e2e_cycles,
            s.p99_e2e_cycles,
            s.makespan_cycles,
            s.utilization,
            s.warm_hit_rate,
        )
    })));
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"cheapest_p99\": {{\"lineup\": \"{}\", \"policy\": \"{}\", \"cost_units\": {:.3}, \
         \"p99_e2e_cycles\": {}}}\n",
        best.fleet, best.policy, best.cost_units, best.p99_e2e_cycles
    ));
    json.push_str("}\n");
    write_json("SGCN_LINEUP_OUT", "BENCH_lineup.json", &json);
}

/// The serving-format dispatch planner behind `BENCH_format.json`: the
/// suite's format cells ([`sgcn::experiments::format_cells`] — every
/// fixed palette format plus adaptive on the mixed lineup, cost-aware,
/// bursty) at paper scale over one shared `(class, format)` matrix
/// preparation. The verdict compares adaptive's p99 against the best
/// single fixed format — the paper's Fig. 3 claim ("format choice
/// dominates cost") turned into an online scheduling win. Every byte of
/// the JSON is a pure function of `(stream, knobs)`.
fn format_sweep(requests: usize, engines: usize, load: f64, hotspot: usize) {
    let cfg = experiment_config();
    let hw = cfg.hw();
    let (ctx, stream, serving_label) = serving(&cfg, requests, hotspot);
    let label =
        format!("{serving_label} x{engines} format sweep mixed cost-aware bursty load {load:.2}");
    let cells = format_cells(&cfg, engines, load);
    let t0 = std::time::Instant::now();
    // One (class, format) matrix preparation (the only parallel stage)
    // serves every cell.
    let (_, widest) = cells.last().expect("a sweep has cells");
    let prepared = prepare_for(&ctx, &stream, &AccelModel::sgcn(), &hw, widest);
    let summaries = run_cells(&prepared, &cells, &hw, feature_row_bytes(&ctx), |s| {
        format!(
            "warm {:>5.1}%, pred err {:>5.2}%",
            s.warm_hit_rate * 100.0,
            s.format_pred_err * 100.0
        )
    });
    let (adaptive, fixed) = summaries
        .split_last()
        .expect("the sweep has an adaptive cell");
    let best_fixed = fixed
        .iter()
        .min_by(|a, b| {
            (a.p99_e2e_cycles, a.makespan_cycles).cmp(&(b.p99_e2e_cycles, b.makespan_cycles))
        })
        .expect("the sweep has fixed cells");
    let wins = adaptive.p99_e2e_cycles <= best_fixed.p99_e2e_cycles;
    println!(
        "verdict:         {} p99 {} vs best fixed ({}) p99 {} — adaptive {}",
        adaptive.format_policy,
        adaptive.p99_e2e_cycles,
        best_fixed.format_policy,
        best_fixed.p99_e2e_cycles,
        if wins { "wins (<=)" } else { "LOSES" }
    );
    report_wall(t0, cells.len());

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"label\": \"{label}\",\n"));
    json.push_str(&format!("  \"requests\": {requests},\n"));
    json.push_str(&format!("  \"engines\": {engines},\n"));
    json.push_str(&format!("  \"offered_load\": {load:.6},\n"));
    json.push_str("  \"cells\": [\n");
    json.push_str(&json_rows(summaries.iter().map(|s| {
        let dispatch: Vec<String> = s
            .format_dispatch
            .iter()
            .map(|(f, c)| format!("\"{f}\": {c}"))
            .collect();
        format!(
            "{{\"format_policy\": \"{}\", \"completed\": {}, \
             \"p50_e2e_cycles\": {}, \"p99_e2e_cycles\": {}, \"makespan_cycles\": {}, \
             \"utilization\": {:.6}, \"warm_hit_rate\": {:.6}, \"format_pred_err\": {:.6}, \
             \"format_dispatch\": {{{}}}}}",
            s.format_policy,
            s.completed,
            s.p50_e2e_cycles,
            s.p99_e2e_cycles,
            s.makespan_cycles,
            s.utilization,
            s.warm_hit_rate,
            s.format_pred_err,
            dispatch.join(", "),
        )
    })));
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"verdict\": {{\"adaptive_p99_e2e_cycles\": {}, \"best_fixed\": \"{}\", \
         \"best_fixed_p99_e2e_cycles\": {}, \"adaptive_beats_best_fixed\": {}}}\n",
        adaptive.p99_e2e_cycles, best_fixed.format_policy, best_fixed.p99_e2e_cycles, wins
    ));
    json.push_str("}\n");
    write_json("SGCN_FORMAT_OUT", "BENCH_format.json", &json);
}

/// Per-class "SLO met" verdict of one capacity cell: the class had
/// offered traffic and at most 10% of it ended badly — shed, failed,
/// or completed past the class deadline.
fn class_met(s: &QueueSummary, c: usize) -> (u64, bool) {
    let offered = s.class_completed[c] + s.class_shed[c] + s.class_failed[c];
    let bad = s.class_shed[c] + s.class_failed[c] + s.class_violations[c];
    (offered, offered > 0 && bad * 10 <= offered)
}

/// The interactive class's shed fraction of its own offered traffic.
fn interactive_shed_rate(s: &QueueSummary) -> f64 {
    let i = RequestClass::Interactive.idx();
    let offered = s.class_completed[i] + s.class_shed[i] + s.class_failed[i];
    if offered == 0 {
        0.0
    } else {
        s.class_shed[i] as f64 / offered as f64
    }
}

/// The capacity planner behind `BENCH_capacity.json`: fleet sizes ×
/// class mixes over the suite's drills-on overload
/// ([`sgcn::experiments::CapacityScenario`] — bursty traffic at ρ ≥ 1.2
/// with MTBF faults, one recorded base-fleet timeline replayed into
/// every cell), every cell guarded by deadline classes with preemption
/// and the brownout ladder. The plan reports the minimum fleet meeting
/// each class's SLO (≤ 10% bad outcomes) per mix, and the verdict
/// re-runs the base fleet with preemption + brownout disabled on the
/// same timeline — the overload-resilience claim (better interactive
/// p99 *and* shed rate) as a committed, drift-checked number. Every
/// byte of the JSON is a pure function of `(stream, knobs)`.
fn capacity_plan(requests: usize, engines: usize, load: f64, hotspot: usize) {
    let cfg = experiment_config();
    let hw = cfg.hw();
    let (ctx, stream, serving_label) = serving(&cfg, requests, hotspot);
    let fleet_sizes = [2usize, 3, 4, 6, 8, 12, 16];
    let mixes = CapacityScenario::MIXES;
    let t0 = std::time::Instant::now();
    let scenario = CapacityScenario::new(&cfg, &ctx, &stream, engines, load);
    let row_bytes = feature_row_bytes(&ctx);
    let rho = scenario.rho();
    let label =
        format!("{serving_label} capacity plan mixed cost-aware bursty load {rho:.2} mtbf drills");
    let iv = RequestClass::Interactive.idx();
    let bt = RequestClass::Batch.idx();
    let detail = |s: &QueueSummary| {
        format!(
            "int p99 {:>9} (met {}), batch p99 {:>9} (met {}), {} preempted, {} degraded",
            s.class_p99_e2e[iv],
            class_met(s, iv).1,
            s.class_p99_e2e[bt],
            class_met(s, bt).1,
            s.preemptions,
            s.degraded
        )
    };
    let points: Vec<(f64, usize)> = mixes
        .iter()
        .flat_map(|&mix| fleet_sizes.map(|e| (mix, e)))
        .collect();
    let cells: Vec<QueueCell> = points
        .iter()
        .map(|&(mix, e)| (format!("mix {mix:.2} x{e}"), scenario.guarded(e, mix)))
        .collect();
    let summaries = run_cells(scenario.prepared(), &cells, &hw, row_bytes, detail);
    // The acceptance comparison: same fleet, same timeline, protection off.
    let run = |qcfg: QueueConfig| simulate_queue(scenario.prepared(), &qcfg, &hw, row_bytes);
    let protected = run(scenario.guarded(engines, mixes[0])).summary;
    let baseline = run(scenario.plain(engines, mixes[0])).summary;
    let p99_better = protected.class_p99_e2e[iv] < baseline.class_p99_e2e[iv];
    let shed_better = interactive_shed_rate(&protected) < interactive_shed_rate(&baseline);
    let improved = p99_better && shed_better;
    println!(
        "verdict:         x{engines} mix {:.2} — interactive p99 {} vs {} baseline, \
         shed {:.1}% vs {:.1}% — protection {}",
        mixes[0],
        protected.class_p99_e2e[iv],
        baseline.class_p99_e2e[iv],
        interactive_shed_rate(&protected) * 100.0,
        interactive_shed_rate(&baseline) * 100.0,
        if improved { "wins" } else { "DOES NOT WIN" }
    );
    report_wall(t0, cells.len() + 2);

    let join = |items: Vec<String>| items.join(", ");
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"label\": \"{label}\",\n"));
    json.push_str(&format!("  \"requests\": {requests},\n"));
    json.push_str(&format!("  \"offered_load\": {rho:.6},\n"));
    json.push_str(&format!(
        "  \"fleet_sizes\": [{}],\n",
        join(fleet_sizes.iter().map(|e| e.to_string()).collect())
    ));
    json.push_str(&format!(
        "  \"class_mixes\": [{}],\n",
        join(mixes.iter().map(|m| format!("{m:.2}")).collect())
    ));
    json.push_str("  \"cells\": [\n");
    json.push_str(&json_rows(points.iter().zip(&summaries).map(
        |(&(mix, e), s)| {
            let (off_i, met_i) = class_met(s, iv);
            let (off_b, met_b) = class_met(s, bt);
            format!(
                "{{\"engines\": {e}, \"mix\": {mix:.2}, \"completed\": {}, \"shed\": {}, \
             \"failed\": {}, \"preemptions\": {}, \"degraded\": {}, \
             \"interactive\": {{\"offered\": {off_i}, \"completed\": {}, \"shed\": {}, \
             \"violations\": {}, \"p99_e2e_cycles\": {}, \"met\": {met_i}}}, \
             \"batch\": {{\"offered\": {off_b}, \"completed\": {}, \"shed\": {}, \
             \"violations\": {}, \"p99_e2e_cycles\": {}, \"met\": {met_b}}}}}",
                s.completed,
                s.shed,
                s.failed,
                s.preemptions,
                s.degraded,
                s.class_completed[iv],
                s.class_shed[iv],
                s.class_violations[iv],
                s.class_p99_e2e[iv],
                s.class_completed[bt],
                s.class_shed[bt],
                s.class_violations[bt],
                s.class_p99_e2e[bt],
            )
        },
    )));
    json.push_str("  ],\n");
    json.push_str("  \"plan\": [\n");
    json.push_str(&json_rows(mixes.iter().map(|&mix| {
        let min_for = |c: usize| {
            points
                .iter()
                .zip(&summaries)
                .find(|((m, _), s)| *m == mix && class_met(s, c).1)
                .map_or(0, |((_, e), _)| *e)
        };
        format!(
            "{{\"mix\": {mix:.2}, \"min_engines\": {{\"interactive\": {}, \"batch\": {}}}}}",
            min_for(iv),
            min_for(bt),
        )
    })));
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"verdict\": {{\"engines\": {engines}, \"mix\": {:.2}, \
         \"protected\": {{\"interactive_p99_e2e_cycles\": {}, \"interactive_shed_rate\": {:.6}, \
         \"preemptions\": {}, \"degraded\": {}}}, \
         \"baseline\": {{\"interactive_p99_e2e_cycles\": {}, \"interactive_shed_rate\": {:.6}}}, \
         \"improved_interactive_p99\": {p99_better}, \"improved_interactive_shed\": {shed_better}, \
         \"improved\": {improved}}}\n",
        mixes[0],
        protected.class_p99_e2e[iv],
        interactive_shed_rate(&protected),
        protected.preemptions,
        protected.degraded,
        baseline.class_p99_e2e[iv],
        interactive_shed_rate(&baseline),
    ));
    json.push_str("}\n");
    write_json("SGCN_CAPACITY_OUT", "BENCH_capacity.json", &json);
}

/// The sharded-store planner behind `BENCH_shard.json`: the suite's
/// shard cells ([`sgcn::experiments::shard_cells`] — shard count × hub
/// replication × {shard-oblivious least-loaded, shard-affinity} routing
/// under bursty traffic) at paper scale, one shared preparation for
/// every cell. A million-vertex power-law graph (2²⁰ vertices at paper
/// scale, 2¹⁶ in quick mode) exercises the plan builder at the scale the
/// ROADMAP asks for — plan stats only, the serving cells run on the
/// suite dataset. The verdict totals cross-shard bytes across every
/// `(shards, hubs)` point: locality wins iff shard-affinity completes
/// exactly as many requests as least-loaded everywhere and moves
/// strictly fewer bytes overall. Every byte of the JSON is a pure
/// function of `(stream, knobs)`.
fn shard_sweep(requests: usize, engines: usize, load: f64, hotspot: usize) {
    let cfg = experiment_config();
    let hw = cfg.hw();
    let (ctx, stream, serving_label) = serving(&cfg, requests, hotspot);
    let label = format!("{serving_label} x{engines} shard sweep bursty load {load:.2}");
    let t0 = std::time::Instant::now();
    // One preparation (the only parallel stage) serves every cell: the
    // shard plan changes routing and the network bill, not the work.
    let cells = shard_cells(
        &cfg,
        &ctx.dataset.graph,
        engines,
        load,
        &[2, 4, 8],
        &[0, 64],
    );
    let (_, widest) = cells.last().expect("a sweep has cells");
    let prepared = prepare_for(&ctx, &stream, &AccelModel::sgcn(), &hw, widest);
    let summaries = run_cells(&prepared, &cells, &hw, feature_row_bytes(&ctx), |s| {
        format!(
            "net {:>10} B / {:>9} cycles, remote {:>5.1}%",
            s.net_bytes,
            s.net_cycles,
            s.remote_rate * 100.0
        )
    });
    // Locality verdict: pair each (shards, hubs) point's oblivious and
    // affine cells — they interleave in sweep order.
    let by_policy = |p: SchedPolicy| -> Vec<&QueueSummary> {
        summaries.iter().filter(|s| s.policy == p.label()).collect()
    };
    let oblivious = by_policy(SchedPolicy::LeastLoaded);
    let affine = by_policy(SchedPolicy::ShardAffinity);
    let equal_completed = oblivious
        .iter()
        .zip(&affine)
        .all(|(o, a)| o.completed == a.completed);
    let oblivious_bytes: u64 = oblivious.iter().map(|s| s.net_bytes).sum();
    let affinity_bytes: u64 = affine.iter().map(|s| s.net_bytes).sum();
    let locality_wins = equal_completed && affinity_bytes < oblivious_bytes;

    // The ROADMAP's million-vertex axis: build a paper-scale power-law
    // plan and report its shape. Quick mode drops to 2^16 vertices so
    // the golden/test path stays fast.
    let scale_pow: u32 = if sgcn_bench::quick_mode() { 16 } else { 20 };
    let pl_vertices = 1usize << scale_pow;
    let pl_hubs = pl_vertices / 256;
    let pl_shards = 8usize;
    let graph = power_law(pl_vertices, 8.0, 2.1, cfg.seed, Normalization::Unit);
    let plan = ShardPlan::from_graph(&graph, pl_shards, pl_hubs);
    let max_degree = plan.hubs().first().map_or(0, |&v| graph.degree(v as usize));
    let hub_min_degree = plan.hubs().last().map_or(0, |&v| graph.degree(v as usize));
    let stored_rows: u64 = (0..pl_shards).map(|s| plan.stored_rows(s)).sum();
    let replicated_rows = stored_rows - pl_vertices as u64;
    println!(
        "paper scale:     {} plan over 2^{scale_pow} power-law vertices ({} edges) — \
         hub degree {hub_min_degree}..={max_degree}, {replicated_rows} replicated rows",
        plan.label(),
        graph.num_edges()
    );
    println!(
        "verdict:         shard-affinity {affinity_bytes} B vs least-loaded {oblivious_bytes} B \
         cross-shard (equal completions: {equal_completed}) — locality {}",
        if locality_wins {
            "wins"
        } else {
            "DOES NOT WIN"
        }
    );
    report_wall(t0, cells.len());

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"label\": \"{label}\",\n"));
    json.push_str(&format!("  \"requests\": {requests},\n"));
    json.push_str(&format!("  \"engines\": {engines},\n"));
    json.push_str(&format!("  \"offered_load\": {load:.6},\n"));
    json.push_str(&format!(
        "  \"paper_scale\": {{\"vertices\": {pl_vertices}, \"edges\": {}, \"alpha\": 2.1, \
         \"shards\": {pl_shards}, \"hubs\": {pl_hubs}, \"max_degree\": {max_degree}, \
         \"hub_min_degree\": {hub_min_degree}, \"stored_rows\": {stored_rows}, \
         \"replicated_rows\": {replicated_rows}}},\n",
        graph.num_edges()
    ));
    json.push_str("  \"cells\": [\n");
    json.push_str(&json_rows(summaries.iter().map(|s| {
        format!(
            "{{\"shards\": \"{}\", \"policy\": \"{}\", \"completed\": {}, \
             \"net_bytes\": {}, \"net_cycles\": {}, \"remote_rate\": {:.6}, \
             \"p99_e2e_cycles\": {}, \"makespan_cycles\": {}, \"warm_hit_rate\": {:.6}}}",
            s.shards,
            s.policy,
            s.completed,
            s.net_bytes,
            s.net_cycles,
            s.remote_rate,
            s.p99_e2e_cycles,
            s.makespan_cycles,
            s.warm_hit_rate,
        )
    })));
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"verdict\": {{\"oblivious_net_bytes\": {oblivious_bytes}, \
         \"affinity_net_bytes\": {affinity_bytes}, \"equal_completed\": {equal_completed}, \
         \"locality_wins\": {locality_wins}}}\n"
    ));
    json.push_str("}\n");
    write_json("SGCN_SHARD_OUT", "BENCH_shard.json", &json);
}

fn main() {
    banner("BENCH_queue harness (online queueing, multi-engine co-scheduling)");
    let cfg = experiment_config();
    let requests: usize = env_parse("SGCN_REQUESTS", 1000);
    let load: f64 = env_parse("SGCN_LOAD", 0.8);
    let engines: usize = env_parse("SGCN_ENGINES", 4);
    let policy = std::env::var("SGCN_POLICY")
        .ok()
        .map(|v| knob("SGCN_POLICY", &v, POLICY_VALUES, SchedPolicy::parse))
        .unwrap_or(SchedPolicy::CacheAffinity);
    let traffic = std::env::var("SGCN_TRAFFIC")
        .ok()
        .map(|v| knob("SGCN_TRAFFIC", &v, TRAFFIC_VALUES, TrafficModel::parse))
        .unwrap_or(TrafficModel::Exponential);
    let slo_cycles: u64 = env_parse("SGCN_SLO_CYCLES", 0);
    let fleet = std::env::var("SGCN_FLEET")
        .ok()
        .map(|v| {
            knob("SGCN_FLEET", &v, FLEET_VALUES, |v| {
                FleetSpec::parse(v, engines)
            })
        })
        .unwrap_or_else(|| FleetSpec::uniform(engines));
    let hotspot: usize = env_parse("SGCN_HOTSPOT", (requests / 6).max(1));
    if let Ok(v) = std::env::var("SGCN_CAPACITY") {
        knob("SGCN_CAPACITY", &v, CAPACITY_VALUES, |v| {
            (v.trim() == "sweep").then_some(())
        });
        capacity_plan(requests, engines, load, hotspot);
        return;
    }
    let shards_spec = std::env::var("SGCN_SHARDS").ok();
    let replicate_spec = std::env::var("SGCN_REPLICATE").ok();
    if replicate_spec.is_some() && shards_spec.is_none() {
        panic!("SGCN_REPLICATE needs a shard plan to replicate into — set SGCN_SHARDS ({SHARDS_VALUES})");
    }
    if shards_spec.as_deref().map(str::trim) == Some("sweep") {
        shard_sweep(requests, engines, load, hotspot);
        return;
    }
    let shards: Option<usize> = shards_spec.map(|v| {
        knob("SGCN_SHARDS", &v, SHARDS_VALUES, |v| {
            v.trim().parse::<usize>().ok().filter(|&n| n >= 1)
        })
    });
    let replicate: usize = replicate_spec.map_or(0, |v| {
        knob("SGCN_REPLICATE", &v, REPLICATE_VALUES, |v| {
            v.trim().parse::<usize>().ok()
        })
    });
    let lineup_spec = std::env::var("SGCN_LINEUP").ok();
    let format_spec = std::env::var("SGCN_FORMATS").ok();
    if format_spec.as_deref().map(str::trim) == Some("sweep") {
        format_sweep(requests, engines, load, hotspot);
        return;
    }
    let format = format_spec
        .map(|v| {
            knob(
                "SGCN_FORMATS",
                &v,
                &format!("{}, sweep", FormatPolicy::valid_values()),
                FormatPolicy::parse,
            )
        })
        .unwrap_or_default();
    if format != FormatPolicy::default() && lineup_spec.is_none() {
        panic!(
            "SGCN_FORMATS={} needs a hardware lineup — set SGCN_LINEUP ({LINEUP_VALUES})",
            format.label()
        );
    }
    if lineup_spec.as_deref().map(str::trim) == Some("sweep") {
        lineup_sweep(requests, engines, load, hotspot);
        return;
    }
    let lineup = lineup_spec.map(|v| {
        knob("SGCN_LINEUP", &v, LINEUP_VALUES, |v| {
            EngineLineup::parse(v, engines, cfg.hw())
        })
    });
    let faults = std::env::var("SGCN_FAULTS")
        .ok()
        .map(|v| knob("SGCN_FAULTS", &v, FAULTS_VALUES, FailureModel::parse))
        .unwrap_or(FailureModel::None);
    let retry = std::env::var("SGCN_RETRIES")
        .ok()
        .map(|v| knob("SGCN_RETRIES", &v, RETRY_VALUES, RetryPolicy::parse))
        .unwrap_or_default();
    let autoscale = std::env::var("SGCN_AUTOSCALE")
        .ok()
        .map(|v| knob("SGCN_AUTOSCALE", &v, AUTOSCALE_VALUES, ScalePolicy::parse))
        .unwrap_or(None);
    let classes = std::env::var("SGCN_CLASSES")
        .ok()
        .map(|v| knob("SGCN_CLASSES", &v, CLASSES_VALUES, ClassPolicy::parse))
        .unwrap_or(None);
    let degrade = std::env::var("SGCN_DEGRADE")
        .ok()
        .map(|v| knob("SGCN_DEGRADE", &v, DEGRADE_VALUES, DegradePolicy::parse))
        .unwrap_or(None);
    if classes.is_some() && slo_cycles > 0 {
        panic!(
            "SGCN_CLASSES and SGCN_SLO_CYCLES are mutually exclusive — per-class deadlines \
             replace the single-class SLO"
        );
    }
    if degrade.is_some() && (lineup.is_none() || format != FormatPolicy::Adaptive) {
        panic!(
            "SGCN_DEGRADE needs a hardware lineup and adaptive dispatch to step down from — \
             set SGCN_LINEUP ({LINEUP_VALUES}) and SGCN_FORMATS=adaptive"
        );
    }
    // File knobs follow the same hard-error convention as enum knobs: a
    // missing or malformed path aborts with the expected format instead
    // of silently re-running generated traffic.
    let replay = std::env::var("SGCN_TRACE_REPLAY").ok().map(|path| {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("cannot read SGCN_TRACE_REPLAY {path:?}: {e} — expected {TRACE_FORMAT}")
        });
        ArrivalTrace::parse(&text).unwrap_or_else(|| {
            panic!("SGCN_TRACE_REPLAY {path:?} is not an arrival trace — expected {TRACE_FORMAT}")
        })
    });
    let log_ingest = std::env::var("SGCN_LOG_INGEST").ok();
    if replay.is_some() && log_ingest.is_some() {
        panic!("SGCN_TRACE_REPLAY and SGCN_LOG_INGEST both set — pick one arrival source");
    }

    let (ctx, stream, serving_label) = serving(&cfg, requests, hotspot);
    let mut label = format!(
        "{serving_label} x{engines} {} {} {}",
        policy.label(),
        traffic.label(),
        lineup
            .as_ref()
            .map_or_else(|| fleet.label(), EngineLineup::label)
    );
    if format != FormatPolicy::default() {
        label = format!("{label} {}", format.label());
    }
    if !faults.is_none() || autoscale.is_some() {
        label = format!(
            "{label} {} {} {}",
            faults.label(),
            retry.label(),
            autoscale
                .as_ref()
                .map_or_else(|| "none".to_string(), ScalePolicy::label)
        );
    }
    if let Some(pol) = &classes {
        label = format!("{label} {}", pol.label());
    }
    if let Some(pol) = &degrade {
        label = format!("{label} {}", pol.label());
    }
    if log_ingest.is_some() {
        label = format!("{label} log-ingest");
    }

    let mut qcfg = QueueConfig::new(engines, policy, load, cfg.seed)
        .with_traffic(traffic)
        .with_fleet(fleet)
        .with_faults(faults)
        .with_retry(retry)
        .with_format(format);
    if let Some(sh) = shards {
        let plan = ShardPlan::from_graph(&ctx.dataset.graph, sh, replicate);
        label = format!("{label} shards {}", plan.label());
        qcfg = qcfg.with_sharding(plan);
    }
    if let Some(lineup) = lineup {
        qcfg = qcfg.with_lineup(lineup);
    }
    if slo_cycles > 0 {
        qcfg = qcfg.with_slo(SloConfig::shedding(slo_cycles));
    }
    if let Some(scale) = autoscale {
        qcfg = qcfg.with_autoscale(scale);
    }
    if let Some(pol) = classes {
        qcfg = qcfg.with_classes(pol);
    }
    if let Some(pol) = degrade {
        qcfg = qcfg.with_degrade(pol);
    }
    if let Some(trace) = replay {
        assert_eq!(
            trace.len(),
            requests,
            "SGCN_TRACE_REPLAY has {} arrivals but SGCN_REQUESTS is {requests}",
            trace.len()
        );
        qcfg = qcfg.with_trace(trace);
    }
    let t0 = std::time::Instant::now();
    // Prepare before traffic materializes: log ingestion rescales the
    // real log's gaps against the prepared stream's mean cold service,
    // so the replayed timeline offers exactly SGCN_LOAD to this fleet.
    let prepared = prepare_for(&ctx, &stream, &AccelModel::sgcn(), &cfg.hw(), &qcfg);
    if let Some(path) = log_ingest {
        let mean_service = prepared.iter().map(|p| p.report.cycles).sum::<u64>() as f64
            / prepared.len().max(1) as f64;
        let gap = if engines > 0 && load > 0.0 {
            mean_service / (engines as f64 * load)
        } else {
            mean_service
        };
        let trace = ArrivalTrace::from_timestamp_file(&path, gap);
        assert_eq!(
            trace.len(),
            requests,
            "SGCN_LOG_INGEST {path:?} has {} arrivals but SGCN_REQUESTS is {requests} — \
             set SGCN_REQUESTS to the log's line count",
            trace.len()
        );
        qcfg = qcfg.with_trace(trace);
    }
    let out = simulate_queue(&prepared, &qcfg, &cfg.hw(), feature_row_bytes(&ctx));
    let wall = t0.elapsed().as_secs_f64();

    let s = &out.summary;
    println!("requests:        {} ({} hot seeds)", s.requests, hotspot);
    println!(
        "fleet:           {} engines ({}), {} policy, {} traffic, offered load {:.2}",
        s.engines, s.fleet, s.policy, s.traffic, s.offered_load
    );
    if s.deadline_cycles > 0 {
        println!(
            "slo:             deadline {} cycles — {} completed, {} shed ({:.1}%), {} violations ({:.1}%)",
            s.deadline_cycles,
            s.completed,
            s.shed,
            s.shed_rate * 100.0,
            s.violations,
            s.violation_rate * 100.0
        );
    }
    println!(
        "queueing delay:  p50 {} / p95 {} / p99 {} / max {} cycles",
        s.p50_wait_cycles, s.p95_wait_cycles, s.p99_wait_cycles, s.max_wait_cycles
    );
    println!(
        "end-to-end:      p50 {} / p95 {} / p99 {} / max {} cycles",
        s.p50_e2e_cycles, s.p95_e2e_cycles, s.p99_e2e_cycles, s.max_e2e_cycles
    );
    println!(
        "fleet health:    makespan {} cycles, utilization {:.1}%, {:.1} req/s at 1 GHz",
        s.makespan_cycles,
        s.utilization * 100.0,
        s.throughput_rps
    );
    println!(
        "warm reuse:      {}/{} lines hit ({:.1}%)",
        s.warm_hits,
        s.warm_lines,
        s.warm_hit_rate * 100.0
    );
    if s.shards != "none" {
        println!(
            "sharding:        {} — {} cross-shard bytes, {} network cycles, remote rate {:.1}%",
            s.shards,
            s.net_bytes,
            s.net_cycles,
            s.remote_rate * 100.0
        );
    }
    if s.format_policy != "fixed:native" {
        let parts: Vec<String> = s
            .format_dispatch
            .iter()
            .filter(|(_, c)| *c > 0)
            .map(|(f, c)| format!("{f} {c}"))
            .collect();
        println!(
            "format dispatch: {} — {} (pred err {:.2}%)",
            s.format_policy,
            parts.join(", "),
            s.format_pred_err * 100.0
        );
    }
    if s.classes != "none" {
        let i = RequestClass::Interactive.idx();
        let b = RequestClass::Batch.idx();
        println!(
            "classes:         {} — interactive {} done / {} shed / p99e {} cycles, \
             batch {} done / {} shed / p99e {} cycles, {} preemptions",
            s.classes,
            s.class_completed[i],
            s.class_shed[i],
            s.class_p99_e2e[i],
            s.class_completed[b],
            s.class_shed[b],
            s.class_p99_e2e[b],
            s.preemptions
        );
    }
    if s.degrade != "none" {
        println!(
            "brownout:        {} — {} degraded completions, rung residency full {} / \
             cheap-fixed {} / lite {} cycles",
            s.degrade, s.degraded, s.mode_cycles[0], s.mode_cycles[1], s.mode_cycles[2]
        );
    }
    if s.faults != "none" || s.autoscale != "none" {
        println!(
            "drills:          faults {} — {} incidents, {} retries, {} failed ({:.1}%)",
            s.faults,
            s.incidents,
            s.retries,
            s.failed,
            s.failed_rate * 100.0
        );
        println!(
            "                 availability {:.1}%, retry budget {}, autoscale {} (peak {} engines)",
            s.availability * 100.0,
            s.retry,
            s.autoscale,
            s.peak_engines
        );
    }
    for (e, (&busy, &served)) in out.engine_busy.iter().zip(&out.engine_served).enumerate() {
        println!("  engine {e}: {served} requests, {busy} busy cycles");
    }
    println!(
        "host replay:     {wall:.2}s wall ({:.1} req/s on {} thread(s))",
        if wall > 0.0 {
            requests as f64 / wall
        } else {
            0.0
        },
        sgcn_par::threads()
    );

    if let Ok(path) = std::env::var("SGCN_TRACE_RECORD") {
        let trace = out.arrival_trace();
        std::fs::write(&path, trace.to_json()).expect("write arrival trace");
        println!("recorded {} arrivals to {path}", trace.len());
    }

    let json = s.to_json(&label);
    let path = std::env::var("SGCN_QUEUE_OUT").unwrap_or_else(|_| "BENCH_queue.json".into());
    std::fs::write(&path, &json).expect("write BENCH_queue.json");
    println!("wrote {path}");
}
