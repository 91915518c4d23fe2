//! The repository benchmark: host time of the SGCN simulator and of the
//! serving stack built on it, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <accel_paper|serve_affinity|serve_lab> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop: this one process makes each call and
//! waits for it. A run repeats a fixed *pass* of work until `--seconds`
//! have elapsed (at least three passes) and reports its best pass for
//! throughput and CPU time, and the median of its set-ups.
//! All inputs are generated from `--seed`; the library only sees them.
//! Simulated cycles and bytes are outputs of the model: they are checked
//! (digests, conservation, finiteness, nonzero cycles), never optimised.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics.
//! With `--trace 1` passes alternate untraced and traced (spans around
//! every call into a layer); the last line carries the per-layer metrics,
//! including the tracing overhead (median traced minus median untraced
//! pass wall time), and the spans are written to `benchmark/runs/`.
//! See `benchmark/README.md` for the layer → metric map.

mod accel;
mod check;
mod serve;
mod spans;
mod sys;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spans::Tracer;

/// Per-layer metrics, by name. A layer that a workload does not run reads
/// 0 there.
pub type Layers = BTreeMap<&'static str, f64>;

/// The per-layer metrics printed by a traced run, with their units.
const PER_LAYER: [(&str, &str); 53] = [
    ("accel.sim_s", "s"),
    ("accel.sims", "count"),
    ("accel.sim_n", "count"),
    ("accel.sim_p50_ms", "ms"),
    ("accel.sim_tail_ms", "ms"),
    ("accel.sim_tail_pct", "%"),
    ("accel.ns_per_edge_layer", "ns"),
    ("formats.encode_s", "s"),
    ("formats.encoded_bytes", "B"),
    ("formats.beicsr_ratio", "ratio"),
    ("formats.precache_s", "s"),
    ("workload.build_s", "s"),
    ("graph.synth_s", "s"),
    ("graph.sample_s", "s"),
    ("graph.sampled_vertices", "count"),
    ("graph.sampled_edges", "count"),
    ("model.trace_s", "s"),
    ("prepare.s", "s"),
    ("prepare.distinct", "count"),
    ("prepare.cells", "count"),
    ("prepare.sim_cpu_s", "s"),
    ("prepare.expand_s", "s"),
    ("prepare.parallel_eff", "ratio"),
    ("costmodel.fit_s", "s"),
    ("costmodel.pred_err", "ratio"),
    ("queue.loop_s", "s"),
    ("queue.ns_per_request", "ns"),
    ("queue.requests", "count"),
    ("queue.warm_hit_rate", "ratio"),
    ("queue.completed", "count"),
    ("queue.shed", "count"),
    ("queue.failed", "count"),
    ("queue.preemptions", "count"),
    ("queue.retries", "count"),
    ("queue.degraded", "count"),
    ("render.s", "s"),
    ("accel.sim_cycles", "cycles"),
    ("accel.agg_cycles", "cycles"),
    ("accel.comb_cycles", "cycles"),
    ("accel.mem_bound_frac", "ratio"),
    ("mem.cache_accesses", "count"),
    ("mem.cache_hit_rate", "ratio"),
    ("mem.dram_bytes", "B"),
    ("mem.dram_bytes.topology", "B"),
    ("mem.dram_bytes.feature_in", "B"),
    ("mem.dram_bytes.feature_out", "B"),
    ("mem.dram_bytes.weights", "B"),
    ("mem.dram_bytes.partial_sums", "B"),
    ("par.threads", "count"),
    ("trace.overhead_s", "s"),
    ("trace.pass_s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.spans", "count"),
];

/// Passes every run makes, however short `--seconds` is: enough for a
/// median, and for a traced run to have both kinds of pass.
const MIN_PASSES: usize = 3;

/// The seed of the held-out self-check: never a tuning input, so a claim
/// can be re-checked on it.
pub const HELD_OUT_SEED: u64 = 0x5EED_0FF5;

#[derive(Clone, Copy, PartialEq, Eq)]
enum WorkloadId {
    AccelPaper,
    ServeAffinity,
    ServeLab,
}

impl WorkloadId {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "accel_paper" => Some(WorkloadId::AccelPaper),
            "serve_affinity" => Some(WorkloadId::ServeAffinity),
            "serve_lab" => Some(WorkloadId::ServeLab),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            WorkloadId::AccelPaper => "accel_paper",
            WorkloadId::ServeAffinity => "serve_affinity",
            WorkloadId::ServeLab => "serve_lab",
        }
    }
}

pub struct Opts {
    workload: WorkloadId,
    pub seed: u64,
    seconds: Duration,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(WorkloadId::parse(value).ok_or_else(|| {
                    format!("unknown workload {value:?}: accel_paper, serve_affinity, serve_lab")
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One pass of a workload's fixed work.
pub struct Pass {
    /// Wall seconds of the measured calls (set-up excluded).
    pub wall: f64,
    /// Wall seconds of the whole pass, set-up included.
    pub total: f64,
    /// CPU seconds (all threads) of the measured calls.
    pub cpu: f64,
    /// `AccelModel` simulations the measured calls completed.
    pub sims: u64,
    /// Requests the measured calls served.
    pub requests: u64,
    pub traced: bool,
}

/// What a workload hands back to the reporter.
pub struct Outcome {
    pub setup: Vec<f64>,
    pub passes: Vec<Pass>,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub layers: Layers,
}

/// Runs `pass` until `opts.seconds` have elapsed and at least
/// [`MIN_PASSES`] passes are done. Traced runs trace every second pass.
pub fn run_passes(
    opts: &Opts,
    tr: &mut Tracer,
    mut pass: impl FnMut(&mut Tracer, bool) -> Pass,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed() < opts.seconds {
        let traced = opts.trace && passes.len() % 2 == 1;
        tr.set_on(traced);
        passes.push(pass(tr, traced));
    }
    tr.set_on(false);
    passes
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest nearest-rank percentile with at least ten samples above it:
/// `(percentile, value)`, or the median when fewer than 11 samples exist.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 11 {
        return (50.0, median(values));
    }
    let rank = n - 10;
    (100.0 * rank as f64 / n as f64, v[rank - 1])
}

/// Per-pass values of one metric, reduced to their median at the end.
#[derive(Default)]
pub struct PassSamples(BTreeMap<&'static str, Vec<f64>>);

impl PassSamples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn into_medians(self, layers: &mut Layers) {
        for (name, values) in self.0 {
            layers.insert(name, median(&values));
        }
    }
}

/// Adds the simulated statistics of `reports` — model outputs, which a
/// change to host speed must leave bit-identical.
pub fn add_sim_counts<'a>(
    layers: &mut Layers,
    reports: impl IntoIterator<Item = &'a sgcn::SimReport>,
) {
    use sgcn_mem::Traffic;
    let (mut cycles, mut agg, mut comb, mut mem_layers, mut all_layers) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut accesses, mut hits, mut dram) = (0u64, 0u64, 0u64);
    let mut per_class = [0u64; 5];
    for r in reports {
        cycles += r.cycles;
        agg += r.agg_cycles;
        comb += r.comb_cycles;
        mem_layers += r.layers.iter().filter(|l| l.is_memory_bound()).count() as u64;
        all_layers += r.layers.len() as u64;
        accesses += r.mem.cache.accesses();
        hits += r.mem.cache.hits;
        dram += r.dram_bytes();
        for (slot, kind) in per_class.iter_mut().zip(Traffic::ALL) {
            *slot += r.dram_bytes_for(kind);
        }
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    layers.insert("accel.sim_cycles", cycles as f64);
    layers.insert("accel.agg_cycles", agg as f64);
    layers.insert("accel.comb_cycles", comb as f64);
    layers.insert("accel.mem_bound_frac", ratio(mem_layers, all_layers));
    layers.insert("mem.cache_accesses", accesses as f64);
    layers.insert("mem.cache_hit_rate", ratio(hits, accesses));
    layers.insert("mem.dram_bytes", dram as f64);
    let names = [
        "mem.dram_bytes.topology",
        "mem.dram_bytes.feature_in",
        "mem.dram_bytes.feature_out",
        "mem.dram_bytes.weights",
        "mem.dram_bytes.partial_sums",
    ];
    for (name, bytes) in names.into_iter().zip(per_class) {
        layers.insert(name, bytes as f64);
    }
}

/// Adds the host-time statistics of individual simulations:
/// `durations` in seconds, and the edge × layer count they covered.
pub fn add_sim_times(layers: &mut Layers, durations: &[f64], edge_layers: u64) {
    let total: f64 = durations.iter().sum();
    let (pct, tail_s) = tail(durations);
    layers.insert("accel.sim_n", durations.len() as f64);
    layers.insert("accel.sim_p50_ms", median(durations) * 1e3);
    layers.insert("accel.sim_tail_ms", tail_s * 1e3);
    layers.insert("accel.sim_tail_pct", pct);
    layers.insert(
        "accel.ns_per_edge_layer",
        total * 1e9 / edge_layers.max(1) as f64,
    );
}

fn json_metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    // `{:?}` prints every digit needed to round-trip the measured value.
    write!(
        out,
        "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
    )
    .expect("writing to a String cannot fail");
}

fn report(opts: &Opts, tr: &Tracer, mut outcome: Outcome) -> String {
    let name = opts.workload.name();
    let untraced: Vec<&Pass> = outcome.passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = outcome.passes.iter().filter(|p| p.traced).collect();
    // Host time on a shared machine only ever gains noise (contention,
    // preemption), so each run reports its best pass; the run-to-run
    // median is taken over runs.
    let best = |f: &dyn Fn(&Pass) -> f64| -> f64 {
        untraced
            .iter()
            .map(|p| f(p))
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let sims_per_s = best(&|p| p.sims as f64 / p.wall);
    let requests_per_s = best(&|p| p.requests as f64 / p.wall);
    let cpu_s = -best(&|p| -p.cpu);
    let setup_s = median(&outcome.setup);
    let pass = &outcome.passes[0];
    println!(
        "{name}: seed {} · {} passes ({} traced) · each pass {} simulations, {} requests · {} thread(s)",
        opts.seed,
        outcome.passes.len(),
        traced.len(),
        pass.sims,
        pass.requests,
        sgcn_par::threads()
    );
    println!(
        "  sims_per_s {sims_per_s:.3} · requests_per_s {requests_per_s:.1} · cpu_s {cpu_s:.3} per pass · \
         setup_s {setup_s:.4} (median of {}) · peak_rss_mb {:.1}",
        outcome.setup.len(),
        outcome.peak_rss_mb
    );
    let walls: Vec<String> = outcome
        .passes
        .iter()
        .map(|p| format!("{:.3}{}", p.wall, if p.traced { "t" } else { "" }))
        .collect();
    println!("  pass wall s (t = traced): {}", walls.join(" "));
    println!(
        "  ops_failed_frac {} ({} of {} operations failed their output check)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!(
        "  digest {name} seed {}: {:016x}",
        opts.seed, outcome.digest
    );

    let mut metrics = String::from("{");
    if opts.trace {
        let untraced_s = median(&untraced.iter().map(|p| p.total).collect::<Vec<_>>());
        let traced_s = median(&traced.iter().map(|p| p.total).collect::<Vec<_>>());
        let layers = &mut outcome.layers;
        layers.insert("trace.overhead_s", traced_s - untraced_s);
        layers.insert("trace.pass_s", traced_s);
        layers.insert("trace.untraced_pass_s", untraced_s);
        layers.insert("trace.spans", tr.span_count() as f64);
        layers.insert("par.threads", sgcn_par::threads() as f64);
        for key in layers.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == key),
                "per-layer metric {key} is not declared"
            );
        }
        println!("  self time by span (count, total s, self s):");
        for (span, (count, total, own)) in tr.self_times() {
            println!("    {span:<22} {count:>7} {total:>10.4} {own:>10.4}");
        }
        println!("  per-layer metrics:");
        for (metric, unit) in PER_LAYER {
            let value = layers.get(metric).copied().unwrap_or(0.0);
            println!("    {metric:<30} {value:>16.6} {unit}");
            json_metric(&mut metrics, metric, value, unit);
        }
    } else {
        for (metric, value, unit) in [
            ("setup_s", setup_s, "s"),
            ("sims_per_s", sims_per_s, "1/s"),
            ("requests_per_s", requests_per_s, "1/s"),
            ("cpu_s", cpu_s, "s"),
            ("peak_rss_mb", outcome.peak_rss_mb, "MiB"),
        ] {
            json_metric(&mut metrics, metric, value, unit);
        }
    }
    metrics.push('}');
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    )
}

fn write_spans(opts: &Opts, tr: &Tracer) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("runs");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    std::fs::write(&path, tr.to_jsonl())?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sgcn-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The library reads its execution mode from the environment; pin it
    // before any worker thread exists. Simulation and the eager loop run
    // on one thread; serve_lab fans prepare out over every core.
    let threads = match opts.workload {
        WorkloadId::AccelPaper | WorkloadId::ServeAffinity => 1,
        WorkloadId::ServeLab => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    std::env::remove_var("SGCN_NAIVE");
    std::env::set_var("SGCN_THREADS", threads.to_string());

    let mut tr = Tracer::new(opts.workload.name());
    let outcome = match opts.workload {
        WorkloadId::AccelPaper => accel::run(&opts, &mut tr),
        WorkloadId::ServeAffinity => serve::run(&opts, &mut tr, false),
        WorkloadId::ServeLab => serve::run(&opts, &mut tr, true),
    };
    let line = report(&opts, &tr, outcome);
    if opts.trace {
        match write_spans(&opts, &tr) {
            Ok(path) => println!("  spans written to {path}"),
            Err(e) => {
                eprintln!("sgcn-perfbench: cannot write spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        let short: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&short), (50.0, 3.0));
    }

    #[test]
    fn args_are_strict() {
        let ok: Vec<String> = "--workload serve_lab --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let o = parse_args(&ok).expect("valid args");
        assert!(o.trace && o.seed == 7);
        for bad in [
            "--workload nope --seed 7 --seconds 10 --trace 1",
            "--workload serve_lab --seed -1 --seconds 10 --trace 1",
            "--workload serve_lab --seed 7 --seconds 0 --trace 1",
            "--workload serve_lab --seed 7 --seconds 10 --trace 2",
            "--workload serve_lab --seed 7 --seconds 10",
        ] {
            let args: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_args(&args).is_err(), "{bad}");
        }
    }
}
