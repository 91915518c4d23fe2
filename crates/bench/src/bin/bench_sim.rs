//! The simulator-throughput harness behind `BENCH_sim.json`.
//!
//! Times the full quick-mode experiment suite on both paths:
//!
//! 1. **naive** — `SGCN_NAIVE=1`: serial drivers, recency-list cache,
//!    allocating per-span reads (the original seed path), and
//! 2. **fast** — the default: parallel drivers, flat-array cache, batched
//!    line-run replay (compacted traces, probe runs, burst runs),
//!
//! asserts the rendered suites are byte-identical (the fast path must be
//! invisible in the results), and emits `BENCH_sim.json` so later PRs
//! have a trajectory to beat. Each path runs `SGCN_BENCH_REPS` times
//! (default 2) and reports the fastest repetition — the standard guard
//! against OS scheduling noise on shared boxes. Wall time is split into
//! `simulate` (inside the dataflow simulator, via
//! `sgcn::metrics::timing`) and `prepare` (everything else: synthesis,
//! traces, encodes, rendering) so perf work knows where time went.
//! Override the output path with `SGCN_BENCH_OUT`.

use sgcn::experiments::ExperimentConfig;
use sgcn::metrics::timing;
use sgcn_bench::{banner, env_parse, run_suite, selected_datasets};

/// One path's timings: total wall seconds and the simulate/prepare split.
struct PathTiming {
    total: f64,
    simulate: f64,
    output: String,
}

fn reps() -> usize {
    let reps = env_parse("SGCN_BENCH_REPS", 2);
    assert!(
        reps > 0,
        "SGCN_BENCH_REPS=0 — the harness needs at least one repetition"
    );
    reps
}

/// Runs the suite `reps` times, keeping the fastest repetition (outputs
/// are asserted identical across repetitions — the suite is
/// deterministic).
fn timed(label: &str, reps: usize, run: impl Fn() -> String) -> PathTiming {
    let mut best: Option<PathTiming> = None;
    for _ in 0..reps {
        // Each repetition measures a cold-cache suite.
        sgcn::experiments::reset_driver_caches();
        let sim0 = timing::simulate_nanos();
        let t0 = std::time::Instant::now();
        let output = run();
        let total = t0.elapsed().as_secs_f64();
        // `timing` sums each simulation's elapsed time across threads,
        // so on a multi-core run the sum can exceed the wall clock; cap
        // it so the prepare-by-subtraction split stays non-negative
        // (with one worker the cap never binds and the split is exact).
        let simulate = ((timing::simulate_nanos() - sim0) as f64 / 1e9).min(total);
        if let Some(b) = &best {
            assert_eq!(b.output, output, "suite must be deterministic across reps");
        }
        if best.as_ref().is_none_or(|b| total < b.total) {
            best = Some(PathTiming {
                total,
                simulate,
                output,
            });
        }
    }
    let best = best.expect("at least one rep");
    println!(
        "{label}: {:.2}s (simulate {:.2}s + prepare {:.2}s; best of {reps})",
        best.total,
        best.simulate,
        best.total - best.simulate
    );
    best
}

fn main() {
    // The harness always measures the quick configuration: it is the
    // regression yardstick, not a paper run.
    std::env::set_var("SGCN_QUICK", "1");
    banner("BENCH_sim harness (quick suite, naive vs fast)");
    let cfg = ExperimentConfig::quick();
    let datasets = selected_datasets();
    let reps = reps();

    std::env::set_var("SGCN_NAIVE", "1");
    let naive = timed("naive (serial, list cache, per-span allocs)", reps, || {
        run_suite(&cfg, &datasets, true)
    });
    std::env::remove_var("SGCN_NAIVE");
    let fast = timed(
        "fast  (parallel, flat cache, line-run replay)",
        reps,
        || run_suite(&cfg, &datasets, true),
    );

    assert_eq!(
        naive.output, fast.output,
        "fast path changed the rendered experiment suite"
    );
    let speedup = naive.total / fast.total;
    println!("speedup: {speedup:.2}x (outputs byte-identical)");
    if sgcn_par::threads() == 1 {
        println!(
            "note: single CPU visible — the parallel drivers ran serially; \
             the measured ratio is the pure single-core fast-path gain"
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"all_experiments\",\n  \"mode\": \"quick\",\n  \"threads\": {},\n  \"reps\": {reps},\n  \"naive_seconds\": {:.3},\n  \"naive_prepare_seconds\": {:.3},\n  \"naive_simulate_seconds\": {:.3},\n  \"fast_seconds\": {:.3},\n  \"fast_prepare_seconds\": {:.3},\n  \"fast_simulate_seconds\": {:.3},\n  \"speedup\": {speedup:.3},\n  \"outputs_identical\": true\n}}\n",
        sgcn_par::threads(),
        naive.total,
        naive.total - naive.simulate,
        naive.simulate,
        fast.total,
        fast.total - fast.simulate,
        fast.simulate,
    );
    let path = std::env::var("SGCN_BENCH_OUT").unwrap_or_else(|_| "BENCH_sim.json".into());
    std::fs::write(&path, &json).expect("write BENCH_sim.json");
    println!("wrote {path}");
}
