//! Quickstart: build a scaled Cora workload, simulate SGCN against the
//! GCNAX baseline, and print the headline numbers.
//!
//! Run with: `cargo run --release --example quickstart`

use sgcn::accel::AccelModel;
use sgcn::config::HwConfig;
use sgcn::workload::Workload;
use sgcn_graph::datasets::{DatasetId, SynthScale};
use sgcn_mem::Traffic;
use sgcn_model::NetworkConfig;

fn main() {
    // A 28-layer, 256-wide residual GCN on a scaled synthetic Cora.
    let workload = Workload::build(
        DatasetId::Cora,
        SynthScale::default(),
        NetworkConfig::paper_default(),
        7,
    );
    println!(
        "workload: {} — {} vertices, {} edges, avg intermediate sparsity {:.1}%",
        workload.dataset.spec.name,
        workload.vertices(),
        workload.effective_edges(),
        100.0 * workload.trace.avg_intermediate_sparsity()
    );

    // The paper's platform, cache scaled with the graph (see
    // docs/ARCHITECTURE.md, "Substitutions").
    let hw = HwConfig::default().with_cache_kib(64);

    let baseline = AccelModel::gcnax().simulate(&workload, &hw);
    let sgcn = AccelModel::sgcn().simulate(&workload, &hw);

    println!();
    for r in [&baseline, &sgcn] {
        println!(
            "{:<8} {:>12} cycles  {:>12} DRAM bytes  {:>8.3} mJ",
            r.accelerator,
            r.cycles,
            r.dram_bytes(),
            r.energy.total_mj()
        );
    }
    println!();
    println!(
        "speedup over GCNAX      : {:.2}x",
        sgcn.speedup_over(&baseline)
    );
    println!(
        "feature-read traffic cut: {:.1}%",
        100.0
            * (1.0
                - sgcn.dram_bytes_for(Traffic::FeatureRead) as f64
                    / baseline.dram_bytes_for(Traffic::FeatureRead) as f64)
    );
    println!(
        "energy vs GCNAX         : {:.1}%",
        100.0 * sgcn.energy_vs(&baseline)
    );
}
