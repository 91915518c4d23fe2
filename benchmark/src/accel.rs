//! `accel_paper`: the paper's own workload — the Fig. 11 accelerator
//! lineup on catalogue datasets at paper shape (28 layers × 256 features,
//! 2048-vertex graphs, 64 KiB cache, HBM2), simulated serially.
//!
//! A pass builds the datasets' workloads (set-up: graph + trace
//! synthesis) and then simulates every (dataset, model) pair. Workloads
//! are rebuilt each pass because a workload caches its BEICSR encodings:
//! simulating a reused one would skip the encode and measure less work.

use std::hint::black_box;
use std::time::Instant;

use sgcn::accel::{AccelModel, FeatureStorage};
use sgcn::experiments::ExperimentConfig;
use sgcn::{SimReport, Workload};
use sgcn_formats::{Beicsr, FeatureFormat};
use sgcn_graph::datasets::{Dataset, DatasetId};
use sgcn_graph::Normalization;

use crate::check::{cycles_nonzero, Digest};
use crate::spans::Tracer;
use crate::sys::{cpu_seconds, peak_rss_mb};
use crate::{add_sim_counts, add_sim_times, run_passes, Layers, Opts, Outcome, Pass, PassSamples};

/// The datasets of one pass, trimmed from the nine so that a pass takes a
/// few seconds and a run holds several passes. They span the catalogue's
/// densest graph and two sparse citation graphs.
pub const DATASETS: [DatasetId; 3] = [DatasetId::Cora, DatasetId::PubMed, DatasetId::Reddit];

pub fn run(opts: &Opts, tr: &mut Tracer) -> Outcome {
    let mut cfg = ExperimentConfig::paper();
    cfg.seed = opts.seed;
    let hw = cfg.hw();
    let network = cfg.network();
    let models = AccelModel::fig11_lineup();

    let mut setup = Vec::new();
    let mut first_digest = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut samples = PassSamples::default();
    let mut last: Option<(Vec<Workload>, Vec<SimReport>)> = None;
    let passes = run_passes(opts, tr, |tr, traced| {
        last = None;
        let start = Instant::now();
        let root = tr.enter("pass");
        let built = tr.enter("setup");
        let workloads: Vec<Workload> = DATASETS
            .iter()
            .map(|&id| {
                tr.time("workload.build", || {
                    Workload::build(id, cfg.scale, network, cfg.seed)
                })
            })
            .collect();
        let build_s = tr.exit(built);
        setup.push(start.elapsed().as_secs_f64());

        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let sims = tr.enter("simulate");
        let mut reports = Vec::with_capacity(workloads.len() * models.len());
        for wl in &workloads {
            for m in &models {
                reports.push(tr.time("accel.simulate", || m.simulate(black_box(wl), &hw)));
            }
        }
        let sim_s = tr.exit(sims);
        let wall = t0.elapsed().as_secs_f64();
        let cpu = cpu_seconds() - cpu0;
        tr.exit(root);

        let mut digest = Digest::new();
        for r in &reports {
            digest.add_debug(r);
        }
        attempted += reports.len() as u64;
        if !cycles_nonzero(&reports) {
            failed += 1;
        }
        // Every pass simulates the same inputs, so it must reproduce the
        // first pass's statistics bit for bit.
        if *first_digest.get_or_insert(digest.value()) != digest.value() {
            failed += 1;
        }
        if traced {
            samples.push("workload.build_s", build_s);
            samples.push("accel.sim_s", sim_s);
        }
        let n = reports.len() as u64;
        last = Some((workloads, reports));
        Pass {
            wall,
            total: start.elapsed().as_secs_f64(),
            cpu,
            sims: n,
            requests: n,
            traced,
        }
    });
    let peak_rss_mb = peak_rss_mb();
    let (workloads, reports) = last.expect("at least one pass ran");

    let mut layers = Layers::new();
    if opts.trace {
        samples.into_medians(&mut layers);
        layers.insert("accel.sims", reports.len() as f64);
        let edge_layers: u64 = workloads
            .iter()
            .map(|wl| (wl.graph().num_edges() * wl.network.layers) as u64)
            .sum::<u64>()
            * models.len() as u64;
        let per_pass_durations = tr.durations("accel.simulate");
        let traced_passes = passes.iter().filter(|p| p.traced).count().max(1) as u64;
        add_sim_times(
            &mut layers,
            &per_pass_durations,
            edge_layers * traced_passes,
        );
        add_sim_counts(&mut layers, &reports);

        // Probes after the measured passes: split Workload::build into
        // graph synthesis and the rest (input features + trace synthesis),
        // and time the BEICSR encode the SGCN simulation performs.
        tr.set_on(true);
        let probe = tr.enter("probe");
        let synth: f64 = DATASETS
            .iter()
            .map(|&id| {
                let span = tr.enter("graph.synthesize");
                black_box(Dataset::synthesize(id, cfg.scale, Normalization::Symmetric));
                tr.exit(span)
            })
            .sum();
        layers.insert("graph.synth_s", synth);
        layers.insert(
            "model.trace_s",
            layers.get("workload.build_s").copied().unwrap_or(0.0) - synth,
        );
        encode_probe(tr, workloads.iter(), &mut layers);
        tr.exit(probe);
        tr.set_on(false);
    }
    Outcome {
        setup,
        passes,
        peak_rss_mb,
        attempted,
        failed,
        digest: first_digest.expect("at least one pass ran"),
        layers,
    }
}

/// Encodes every layer boundary of `workloads` in the SGCN model's BEICSR
/// configuration — the encode an SGCN simulation performs once per
/// workload — and records its time, the bytes a full read of every row
/// fetches (cache-line rounded), and that size against dense rows.
pub fn encode_probe<'a>(
    tr: &mut Tracer,
    workloads: impl Iterator<Item = &'a Workload>,
    layers: &mut Layers,
) {
    let FeatureStorage::Beicsr(config) = AccelModel::sgcn().storage else {
        panic!("the SGCN model stores features in BEICSR");
    };
    let (mut seconds, mut encoded, mut dense) = (0.0, 0u64, 0u64);
    for wl in workloads {
        for b in 1..=wl.network.layers {
            let x = wl.trace.layer_features(b);
            let span = tr.enter("formats.encode");
            let enc = black_box(Beicsr::encode(x, config));
            seconds += tr.exit(span);
            for row in 0..x.rows() {
                encoded += enc.row_read_bytes(row);
                dense += x.row_read_bytes(row);
            }
        }
    }
    layers.insert("formats.encode_s", seconds);
    layers.insert("formats.encoded_bytes", encoded as f64);
    layers.insert("formats.beicsr_ratio", encoded as f64 / dense.max(1) as f64);
}
