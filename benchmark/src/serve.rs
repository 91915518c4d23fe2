//! `serve_affinity` and `serve_lab`: the serving stack on a paper-scale
//! PubMed context (10×5 fanout, 28 → 2-layer sampled networks, 256-wide)
//! under 100k requests from a 256-vertex hot pool on 4 engines.
//!
//! A pass prepares the stream (sample, build, encode and cold-simulate
//! each distinct vertex, then expand to one record per request), runs the
//! event loop and renders the summary — one closed-loop call each.
//!
//! * `serve_affinity`: native format, one thread, `cache-affinity`
//!   routing, exponential arrivals at ρ = 0.8 — the eager loop.
//! * `serve_lab`: the mixed lineup prepared over the whole format palette
//!   plus the brownout rung, cost-aware adaptive dispatch, bursty arrivals
//!   at ρ = 0.9, MTBF drills with default retries, a 30 % interactive
//!   class mix with preemption and the default brownout — the lazy loop
//!   and the cost model, with prepare fanned out over every core.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use sgcn::accel::AccelModel;
use sgcn::experiments::ExperimentConfig;
use sgcn::serving::queueing::{
    feature_row_bytes, prepare, prepare_degraded, simulate_queue, ClassPolicy, CostModel,
    DegradePolicy, EngineLineup, FailureModel, FormatPolicy, PreparedRequest, QueueConfig,
    QueueOutcome, RetryPolicy, SchedPolicy, ServeFormat, TrafficModel,
};
use sgcn::{HwConfig, Request, ServingConfig, ServingContext, SimReport};
use sgcn_graph::datasets::DatasetId;
use sgcn_graph::sampling::Fanouts;

use crate::accel::encode_probe;
use crate::check::{conserved, cycles_nonzero, json_finite, record_reports, Digest};
use crate::spans::Tracer;
use crate::sys::{cpu_seconds, peak_rss_mb};
use crate::{
    add_sim_counts, add_sim_times, run_passes, Layers, Opts, Outcome, Pass, PassSamples,
    HELD_OUT_SEED,
};

const REQUESTS: usize = 100_000;
const HOT_POOL: usize = 256;
const ENGINES: usize = 4;
const FANOUTS: [usize; 2] = [10, 5];
/// Set-up takes milliseconds; repeat it for a steady median.
const SETUP_REPS: usize = 21;

/// The fixed inputs of one serving workload.
struct Setup {
    ctx: ServingContext,
    stream: Vec<Request>,
    hw: HwConfig,
    lab: bool,
    seed: u64,
}

impl Setup {
    fn new(seed: u64, lab: bool) -> Self {
        let cfg = ExperimentConfig::paper();
        let ctx = ServingContext::new(ServingConfig {
            dataset: DatasetId::PubMed,
            scale: cfg.scale,
            fanouts: Fanouts::new(FANOUTS.to_vec()),
            width: cfg.width,
            seed,
        });
        let stream = ctx.hotspot_stream(REQUESTS, HOT_POOL);
        Setup {
            ctx,
            stream,
            hw: cfg.hw(),
            lab,
            seed,
        }
    }

    fn lineup(&self) -> EngineLineup {
        EngineLineup::mixed(ENGINES, self.hw)
    }

    fn queue_config(&self) -> QueueConfig {
        if !self.lab {
            return QueueConfig::new(ENGINES, SchedPolicy::CacheAffinity, 0.8, self.seed)
                .with_traffic(TrafficModel::Exponential);
        }
        QueueConfig::new(ENGINES, SchedPolicy::CostAware, 0.9, self.seed)
            .with_traffic(TrafficModel::bursty_default())
            .with_lineup(self.lineup())
            .with_format(FormatPolicy::Adaptive)
            .with_faults(FailureModel::mtbf_default())
            .with_retry(RetryPolicy::default())
            .with_classes(ClassPolicy::mix(0.3).with_preemption())
            .with_degrade(DegradePolicy::default())
    }

    fn prepare(&self) -> Vec<PreparedRequest> {
        let model = AccelModel::sgcn();
        if self.lab {
            prepare_degraded(
                &self.ctx,
                &self.stream,
                &model,
                &self.lineup(),
                &ServeFormat::PALETTE,
            )
        } else {
            prepare(&self.ctx, &self.stream, &model, &self.hw)
        }
    }
}

/// One pass's outputs and host times.
struct Served {
    prepared: Vec<PreparedRequest>,
    outcome: QueueOutcome,
    json: String,
    prepare_s: f64,
    prepare_cpu_s: f64,
    prepare_sim_s: f64,
    queue_s: f64,
    render_s: f64,
}

fn serve_once(s: &Setup, label: &str, tr: &mut Tracer) -> Served {
    let cpu0 = cpu_seconds();
    let sim0 = sgcn::metrics::timing::simulate_nanos();
    let span = tr.enter("prepare");
    let t = Instant::now();
    let prepared = s.prepare();
    let prepare_s = t.elapsed().as_secs_f64();
    tr.exit(span);
    let prepare_cpu_s = cpu_seconds() - cpu0;
    let prepare_sim_s = (sgcn::metrics::timing::simulate_nanos() - sim0) as f64 * 1e-9;

    let span = tr.enter("queue.simulate");
    let t = Instant::now();
    let outcome = simulate_queue(
        black_box(&prepared),
        &s.queue_config(),
        &s.hw,
        feature_row_bytes(&s.ctx),
    );
    let queue_s = t.elapsed().as_secs_f64();
    tr.exit(span);

    let span = tr.enter("render");
    let t = Instant::now();
    let json = outcome.summary.to_json(label);
    let render_s = t.elapsed().as_secs_f64();
    tr.exit(span);
    Served {
        prepared,
        outcome,
        json,
        prepare_s,
        prepare_cpu_s,
        prepare_sim_s,
        queue_s,
        render_s,
    }
}

/// Digest of every simulated statistic: each distinct vertex's prepared
/// record (in first-seen order) and the rendered summary.
fn digest(served: &Served) -> u64 {
    let mut d = Digest::new();
    let mut seen = std::collections::BTreeSet::new();
    for p in &served.prepared {
        if seen.insert(p.request.seed_vertex) {
            d.add_debug(&(
                p.request.seed_vertex,
                &p.vertices,
                &p.report,
                &p.stats,
                &p.class_reports,
                &p.formats,
                &p.lite_reports,
                &p.lite_vertices,
            ));
        }
    }
    d.add(served.json.as_bytes());
    d.value()
}

/// Output checks of one pass: (operations attempted, operations failed).
/// The operations are the distinct vertices' simulations plus the queue
/// run.
fn check(served: &Served, offered: usize) -> (u64, u64) {
    let mut sims = 0u64;
    let mut bad = 0u64;
    let mut seen = std::collections::BTreeSet::new();
    for p in &served.prepared {
        if seen.insert(p.request.seed_vertex) {
            sims += cells(p);
            if !cycles_nonzero(record_reports(p)) {
                bad += cells(p);
            }
        }
    }
    let queue_ok = conserved(&served.outcome, offered) && json_finite(&served.json);
    (sims + 1, bad + u64::from(!queue_ok))
}

/// Simulations per distinct vertex (the reference report is one of them).
fn cells(p: &PreparedRequest) -> u64 {
    (p.class_reports.len().max(1) + p.lite_reports.len()) as u64
}

pub fn run(opts: &Opts, tr: &mut Tracer, lab: bool) -> Outcome {
    let label = if lab { "serve_lab" } else { "serve_affinity" };
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut s = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let setup = black_box(Setup::new(opts.seed, lab));
        setup_s.push(t.elapsed().as_secs_f64());
        s = Some(setup);
    }
    let s = s.expect("set-up ran");
    let distinct = {
        let mut v: Vec<u32> = s.stream.iter().map(|r| r.seed_vertex).collect();
        v.sort_unstable();
        v.dedup();
        v
    };

    let mut first_digest = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut samples = PassSamples::default();
    let mut last: Option<Served> = None;
    let threads = sgcn_par::threads() as f64;
    let passes = run_passes(opts, tr, |tr, traced| {
        last = None;
        let start = Instant::now();
        let root = tr.enter("pass");
        let cpu0 = cpu_seconds();
        let served = serve_once(&s, label, tr);
        let cpu = cpu_seconds() - cpu0;
        let wall = start.elapsed().as_secs_f64();
        tr.exit(root);

        let (a, f) = check(&served, s.stream.len());
        attempted += a;
        failed += f;
        let d = digest(&served);
        if *first_digest.get_or_insert(d) != d {
            failed += 1;
        }
        if traced {
            samples.push("prepare.s", served.prepare_s);
            samples.push("prepare.sim_cpu_s", served.prepare_sim_s);
            samples.push(
                "prepare.parallel_eff",
                served.prepare_cpu_s / (served.prepare_s * threads),
            );
            samples.push("queue.simulate_s", served.queue_s);
            samples.push("render.s", served.render_s);
        }
        let sims = distinct.len() as u64 * cells(&served.prepared[0]);
        last = Some(served);
        Pass {
            wall,
            total: wall,
            cpu,
            sims,
            requests: s.stream.len() as u64,
            traced,
        }
    });
    let peak_rss_mb = peak_rss_mb();
    let served = last.expect("at least one pass ran");
    let digest_main = first_digest.expect("at least one pass ran");

    let mut layers = Layers::new();
    if opts.trace {
        let (a, f) = probe(tr, &s, &distinct, served, &mut layers);
        attempted += a;
        failed += f;
        samples.into_medians(&mut layers);
        let queue_s = layers.remove("queue.simulate_s").unwrap_or(0.0);
        let loop_s = queue_s - layers.get("costmodel.fit_s").copied().unwrap_or(0.0);
        layers.insert("queue.loop_s", loop_s);
        layers.insert("queue.ns_per_request", loop_s * 1e9 / s.stream.len() as f64);
        layers.insert("prepare.distinct", distinct.len() as f64);
    } else {
        drop(served);
    }
    if lab {
        let (a, f) = thread_self_check(&s, label, digest_main, tr);
        attempted += a;
        failed += f;
    }
    Outcome {
        setup: setup_s,
        passes,
        peak_rss_mb,
        attempted,
        failed,
        digest: digest_main,
        layers,
    }
}

/// One distinct vertex's results, rebuilt call by call from outside.
struct VertexRecord {
    vertices: Vec<u32>,
    reports: Vec<SimReport>,
    lite_reports: Vec<SimReport>,
    lite_vertices: Vec<u32>,
}

/// The traced run's probes, after the measured passes: replays prepare's
/// per-vertex calls serially with a span around each, checks the replay
/// against the last pass's prepared stream, then times the cost-model fit
/// and the per-request expansion on their own. Returns (attempted,
/// failed) checks.
fn probe(
    tr: &mut Tracer,
    s: &Setup,
    distinct: &[u32],
    served: Served,
    layers: &mut Layers,
) -> (u64, u64) {
    let summary = &served.outcome.summary;
    for (name, value) in [
        ("queue.requests", summary.requests as f64),
        ("queue.warm_hit_rate", summary.warm_hit_rate),
        ("queue.completed", summary.completed as f64),
        ("queue.shed", summary.shed as f64),
        ("queue.failed", summary.failed as f64),
        ("queue.preemptions", summary.preemptions as f64),
        ("queue.retries", summary.retries as f64),
        ("queue.degraded", summary.degraded as f64),
        ("costmodel.pred_err", summary.format_pred_err),
    ] {
        layers.insert(name, value);
    }

    tr.set_on(true);
    let root = tr.enter("probe");
    let model = AccelModel::sgcn();
    let (hws, formats): (Vec<HwConfig>, Vec<ServeFormat>) = if s.lab {
        (
            s.lineup().classes.iter().map(|c| c.hw).collect(),
            ServeFormat::PALETTE.to_vec(),
        )
    } else {
        (vec![s.hw], vec![ServeFormat::Native])
    };
    let kinds: Vec<_> = formats
        .iter()
        .filter_map(ServeFormat::override_kind)
        .collect();
    // The brownout rung samples at half fanout, floor one.
    let lite_ctx = s.lab.then(|| {
        s.ctx.with_fanouts(Fanouts::new(
            FANOUTS.iter().map(|&c| (c / 2).max(1)).collect(),
        ))
    });
    let (mut sampled_v, mut sampled_e, mut edge_layers) = (0u64, 0u64, 0u64);
    let mut workloads = Vec::with_capacity(distinct.len());
    let mut records = BTreeMap::new();
    for &seed_vertex in distinct {
        let probe = Request {
            index: 0,
            seed_vertex,
        };
        let vertex = tr.enter("vertex");
        let sub = tr.time("graph.sample", || s.ctx.sample(&probe));
        let vertices = sub.vertices.clone();
        sampled_v += sub.vertices.len() as u64;
        sampled_e += sub.graph.num_edges() as u64;
        let build = tr.enter("workload.build");
        let wl = tr.time("model.trace", || s.ctx.build_workload_from(&probe, sub));
        tr.time("formats.precache", || wl.precache_boundary_formats(&kinds));
        tr.exit(build);
        let mut reports = Vec::with_capacity(hws.len() * formats.len());
        for hw in &hws {
            for f in &formats {
                let r = tr.time("accel.simulate", || {
                    model.simulate_with_format(&wl, hw, f.override_kind())
                });
                edge_layers += (wl.graph().num_edges() * wl.network.layers) as u64;
                reports.push(r);
            }
        }
        let (mut lite_reports, mut lite_vertices) = (Vec::new(), Vec::new());
        if let Some(lctx) = &lite_ctx {
            let lsub = tr.time("graph.sample", || lctx.sample(&probe));
            lite_vertices = lsub.vertices.clone();
            sampled_v += lsub.vertices.len() as u64;
            sampled_e += lsub.graph.num_edges() as u64;
            let build = tr.enter("workload.build");
            let lwl = tr.time("model.trace", || lctx.build_workload_from(&probe, lsub));
            tr.exit(build);
            for hw in &hws {
                let r = tr.time("accel.simulate", || {
                    model.simulate_with_format(&lwl, hw, None)
                });
                edge_layers += (lwl.graph().num_edges() * lwl.network.layers) as u64;
                lite_reports.push(r);
            }
        }
        tr.exit(vertex);
        workloads.push(wl);
        records.insert(
            seed_vertex,
            VertexRecord {
                vertices,
                reports,
                lite_reports,
                lite_vertices,
            },
        );
    }

    // The replay must reproduce every prepared record exactly.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for (p, req) in served.prepared.iter().zip(&s.stream) {
        let r = &records[&req.seed_vertex];
        let class_reports: &[SimReport] = if s.lab { &r.reports } else { &[] };
        let ok = p.request == *req
            && p.vertices == r.vertices
            && p.report == r.reports[0]
            && p.class_reports == class_reports
            && p.lite_reports == r.lite_reports
            && p.lite_vertices == r.lite_vertices;
        attempted += 1;
        failed += u64::from(!ok);
    }

    let fit_s = if s.lab {
        let span = tr.enter("costmodel.fit");
        black_box(CostModel::fit(&served.prepared, hws.len()));
        tr.exit(span)
    } else {
        0.0
    };
    layers.insert("costmodel.fit_s", fit_s);

    // The expansion: one record per request, cloned from its vertex's
    // results — the serial tail of every prepare call.
    let stats: BTreeMap<u32, _> = served
        .prepared
        .iter()
        .map(|p| (p.request.seed_vertex, p.stats))
        .collect();
    drop(served);
    let span = tr.enter("prepare.expand");
    let expanded: Vec<PreparedRequest> = s
        .stream
        .iter()
        .map(|req| {
            let r = &records[&req.seed_vertex];
            PreparedRequest {
                request: *req,
                vertices: r.vertices.clone(),
                report: r.reports[0].clone(),
                stats: stats[&req.seed_vertex],
                class_reports: if s.lab { r.reports.clone() } else { Vec::new() },
                formats: if s.lab { formats.clone() } else { Vec::new() },
                lite_reports: r.lite_reports.clone(),
                lite_vertices: r.lite_vertices.clone(),
            }
        })
        .collect();
    let expand_s = tr.exit(span);
    drop(black_box(expanded));
    layers.insert("prepare.expand_s", expand_s);

    encode_probe(tr, workloads.iter(), layers);
    tr.exit(root);
    tr.set_on(false);

    let sims = tr.durations("accel.simulate");
    layers.insert("accel.sim_s", sims.iter().sum());
    layers.insert("accel.sims", sims.len() as f64);
    add_sim_times(layers, &sims, edge_layers);
    add_sim_counts(
        layers,
        records
            .values()
            .flat_map(|r| r.reports.iter().chain(&r.lite_reports)),
    );
    let sum = |name: &str| tr.durations(name).iter().sum::<f64>();
    layers.insert("graph.sample_s", sum("graph.sample"));
    layers.insert("graph.sampled_vertices", sampled_v as f64);
    layers.insert("graph.sampled_edges", sampled_e as f64);
    layers.insert("workload.build_s", sum("workload.build"));
    layers.insert("model.trace_s", sum("model.trace"));
    layers.insert("formats.precache_s", sum("formats.precache"));
    let per_vertex = records
        .values()
        .next()
        .map_or(0, |r| r.reports.len() + r.lite_reports.len());
    layers.insert("prepare.cells", per_vertex as f64);
    (attempted, failed)
}

/// serve_lab's results must not depend on the thread count: re-run the
/// workload at one thread and compare with the measured passes, then run
/// the held-out seed at one thread and at every core and compare those.
/// Returns (attempted, failed) queue-run comparisons.
fn thread_self_check(s: &Setup, label: &str, digest_main: u64, tr: &mut Tracer) -> (u64, u64) {
    let cores = sgcn_par::threads();
    let set_threads = |n: usize| std::env::set_var("SGCN_THREADS", n.to_string());
    let run = |setup: &Setup, n: usize, tr: &mut Tracer| {
        set_threads(n);
        digest(&serve_once(setup, label, tr))
    };
    let one = run(s, 1, tr);
    let held_out = Setup::new(HELD_OUT_SEED, s.lab);
    let held_one = run(&held_out, 1, tr);
    let held_all = run(&held_out, cores, tr);
    set_threads(cores);
    println!(
        "  self-check: seed {} at 1 vs {cores} thread(s) {:016x} / {digest_main:016x}; \
         held-out seed {HELD_OUT_SEED} {:016x} / {:016x}",
        s.seed, one, held_one, held_all
    );
    let failed = u64::from(one != digest_main) + u64::from(held_one != held_all);
    (2, failed)
}
