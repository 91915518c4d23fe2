//! The batched serving harness behind `BENCH_serve.json`.
//!
//! Prepares a seeded stream of sampled-subgraph requests (GraphSAGE
//! fanout 10×5 on PubMed) on SGCN through `serving::queueing::prepare`,
//! aggregates the per-request cold [`sgcn::SimReport`]s into
//! latency-cycle percentiles and throughput, and emits
//! `BENCH_serve.json`.
//!
//! Every field of the JSON is a pure function of the request stream —
//! `prepare` fans out over `sgcn_par::par_map`, which returns results in
//! stream order — so the file is **byte-identical at any
//! `SGCN_THREADS`** (wall-clock timings go to stdout only). Knobs:
//! `SGCN_REQUESTS` (stream length, default 1000; 0 renders the all-zero
//! summary instead of aborting), `SGCN_QUICK=1` (test-scale graph),
//! `SGCN_SERVE_OUT` (output path).

use sgcn::accel::AccelModel;
use sgcn::serving::queueing::prepare;
use sgcn::serving::{ServeSummary, ServingConfig, ServingContext};
use sgcn_bench::{banner, env_parse, experiment_config};
use sgcn_graph::datasets::DatasetId;
use sgcn_graph::sampling::Fanouts;

fn main() {
    banner("BENCH_serve harness (sampled-subgraph request replay)");
    let cfg = experiment_config();
    let requests: usize = env_parse("SGCN_REQUESTS", 1000);

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
    let stream = ctx.request_stream(requests);

    let t0 = std::time::Instant::now();
    let batch = prepare(&ctx, &stream, &AccelModel::sgcn(), &cfg.hw());
    let wall = t0.elapsed().as_secs_f64();

    let s = ServeSummary::from_reports(&batch);
    println!("requests:        {}", s.requests);
    println!(
        "subgraph size:   {:.1} vertices / {:.1} edges (avg)",
        s.avg_vertices, s.avg_edges
    );
    println!(
        "latency cycles:  p50 {} / p95 {} / p99 {} / max {}",
        s.p50_cycles, s.p95_cycles, s.p99_cycles, s.max_cycles
    );
    println!("sim throughput:  {:.1} req/s at 1 GHz", s.throughput_rps);
    println!(
        "host replay:     {wall:.2}s wall ({:.1} req/s on {} thread(s))",
        requests as f64 / wall,
        sgcn_par::threads()
    );

    let json = s.to_json(&label);
    let path = std::env::var("SGCN_SERVE_OUT").unwrap_or_else(|_| "BENCH_serve.json".into());
    std::fs::write(&path, &json).expect("write BENCH_serve.json");
    println!("wrote {path}");
}
