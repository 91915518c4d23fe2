//! Shared scaffolding for the figure/table harness binaries.
//!
//! Every binary regenerates one table or figure of the SGCN paper's
//! evaluation. Set `SGCN_QUICK=1` to run each on the fast test-scale
//! configuration instead of the paper-scale one.

use sgcn::experiments::ExperimentConfig;
use sgcn_graph::datasets::DatasetId;

/// The experiment configuration selected by the `SGCN_QUICK` environment
/// variable (`1` → quick).
pub fn experiment_config() -> ExperimentConfig {
    if quick_mode() {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::paper()
    }
}

/// Whether `SGCN_QUICK=1` is set.
pub fn quick_mode() -> bool {
    std::env::var("SGCN_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Reads a numeric knob: unset means `default`; a set value that does
/// not parse as `T` aborts with the key, the raw value and the expected
/// type — never a silent fallback to the default.
pub fn env_parse<T: std::str::FromStr>(key: &str, default: T) -> T {
    match std::env::var(key) {
        Err(_) => default,
        Ok(v) => v.trim().parse().unwrap_or_else(|_| {
            panic!(
                "{key}={v:?} is not a valid value — expected a {}",
                std::any::type_name::<T>()
            )
        }),
    }
}

/// The nine evaluation datasets in the paper's order.
pub fn all_datasets() -> Vec<DatasetId> {
    DatasetId::ALL.to_vec()
}

/// A smaller dataset set for quick mode.
pub fn selected_datasets() -> Vec<DatasetId> {
    if quick_mode() {
        vec![DatasetId::Cora, DatasetId::PubMed, DatasetId::Github]
    } else {
        all_datasets()
    }
}

/// Prints a standard harness header.
pub fn banner(what: &str) {
    println!("=== SGCN reproduction — {what} ===");
    println!(
        "mode: {}",
        if quick_mode() {
            "quick (SGCN_QUICK=1)"
        } else {
            "paper-scale"
        }
    );
    println!();
}

/// Renders every table/figure of the evaluation into one string — the
/// body of the `all_experiments` binary and of the golden suite. The
/// output is deterministic (bit-identical across thread counts and cache
/// engines).
pub fn run_suite(cfg: &ExperimentConfig, datasets: &[DatasetId], quick: bool) -> String {
    use sgcn::experiments as exp;
    use sgcn_model::GcnVariant;
    use std::fmt::Write as _;

    let mut out = String::new();
    let depths: &[usize] = if quick {
        &[1, 3, 5, 10]
    } else {
        &[1, 3, 5, 10, 28, 56, 112]
    };
    writeln!(out, "{}", exp::fig01_sparsity_vs_layers(cfg, depths)).unwrap();
    writeln!(out, "{}", exp::fig02_per_layer_sparsity(cfg)).unwrap();
    let (traffic, speedup) = exp::fig03_format_comparison(cfg, datasets);
    writeln!(out, "{traffic}").unwrap();
    writeln!(out, "{speedup}").unwrap();
    writeln!(out, "{}", exp::table02_datasets(cfg)).unwrap();
    writeln!(out, "{}", exp::fig11_performance(cfg, datasets)).unwrap();
    writeln!(out, "{}", exp::fig12_ablation(cfg, datasets)).unwrap();
    writeln!(out, "{}", exp::fig13_energy(cfg, datasets)).unwrap();
    writeln!(
        out,
        "{}",
        exp::fig14_memory_breakdown(cfg, DatasetId::Reddit)
    )
    .unwrap();
    let sens_depths: &[usize] = if quick { &[4, 8] } else { &[7, 14, 28, 56] };
    writeln!(out, "{}", exp::fig15a_layer_sensitivity(cfg, sens_depths)).unwrap();
    let base = cfg.cache_kib;
    // Cache sweep on a representative subset (CR/PM/GH) to bound runtime.
    let cache_datasets: Vec<_> = if quick {
        datasets.to_vec()
    } else {
        vec![DatasetId::Cora, DatasetId::PubMed, DatasetId::Github]
    };
    writeln!(
        out,
        "{}",
        exp::fig15b_cache_sensitivity(
            cfg,
            &[base / 2, base, base * 2, base * 4, base * 8],
            &cache_datasets
        )
    )
    .unwrap();
    writeln!(
        out,
        "{}",
        exp::fig16_variants(cfg, datasets, GcnVariant::GinConv { eps: 0.0 })
    )
    .unwrap();
    writeln!(
        out,
        "{}",
        exp::fig16_variants(cfg, datasets, GcnVariant::GraphSage { sample: 8 })
    )
    .unwrap();
    writeln!(
        out,
        "{}",
        exp::fig17_slice_sensitivity(cfg, &[32, 64, 96, 128, 256], datasets)
    )
    .unwrap();
    writeln!(
        out,
        "{}",
        exp::fig18_scalability(cfg, &[1, 2, 4, 8, 16, 32], DatasetId::Reddit)
    )
    .unwrap();
    let pts: Vec<u32> = if quick {
        vec![10, 50, 90]
    } else {
        (1..=19).map(|i| i * 5).collect()
    };
    writeln!(
        out,
        "{}",
        exp::fig19_sparsity_sweep(cfg, &pts, DatasetId::PubMed)
    )
    .unwrap();

    // Design-choice ablations (DESIGN.md) on a representative subset.
    let abl: Vec<_> = if quick {
        datasets.to_vec()
    } else {
        vec![DatasetId::Cora, DatasetId::PubMed, DatasetId::Github]
    };
    writeln!(out, "{}", exp::ablation_beicsr_design(cfg, &abl)).unwrap();
    writeln!(
        out,
        "{}",
        exp::ablation_sac_strip(cfg, &[8, 16, 32, 64, 128], &abl)
    )
    .unwrap();
    writeln!(out, "{}", exp::ablation_cache_policy(cfg, &abl)).unwrap();

    // Serving scenario (beyond the paper): per-request sampled-subgraph
    // replay. Small streams keep the suite fast; `serve_sim` is the
    // full-stream harness.
    let serve_requests = if quick { 48 } else { 256 };
    writeln!(
        out,
        "{}",
        exp::serving_fanout_sweep(
            cfg,
            DatasetId::PubMed,
            &[vec![5, 3], vec![10, 5], vec![15, 10]],
            serve_requests,
        )
    )
    .unwrap();
    writeln!(
        out,
        "{}",
        exp::serving_lineup(cfg, DatasetId::PubMed, serve_requests)
    )
    .unwrap();
    writeln!(
        out,
        "{}",
        exp::serving_batch_sweep(cfg, DatasetId::PubMed, &[1, 4, 16, 64], serve_requests)
    )
    .unwrap();

    // Online queueing scenario: the same sampled-request serving path put
    // behind live traffic with multi-engine co-scheduling (`queue_sim` is
    // the full-stream harness). All nine grids share one prepared stream
    // — the preparation is traffic/policy/load/fleet independent: policy
    // × offered load, engine-count scaling, traffic model × policy under
    // an SLO deadline, the heterogeneous-fleet / work-stealing lineup,
    // the hardware lineup × routing-policy capacity planner, the
    // serving-format dispatch sweep, the failure drills, the
    // deadline-class capacity sweep, and the sharded-store sweep (see
    // `sgcn::experiments::queueing_grids`).
    let queue_requests = if quick { 36 } else { 192 };
    for grid in exp::queueing_grids(
        cfg,
        DatasetId::PubMed,
        4,
        &[0.5, 0.9],
        &[1, 2, 4, 8],
        0.8,
        queue_requests,
    ) {
        writeln!(out, "{grid}").unwrap();
    }
    out
}
