//! The cache engine must be invisible in the results: running any
//! accelerator model through the one simulator path on the flat-array
//! cache ([`CacheEngine::Flat`]) must produce a [`sgcn::SimReport`]
//! **bit-identical** to the recency-list reference engine
//! ([`CacheEngine::List`], whose DRAM side replays per burst) — same
//! cycles, hits, misses, evictions, DRAM bytes, energy, everything.

use sgcn::accel::AccelModel;
use sgcn::experiments::ExperimentConfig;
use sgcn::workload::Workload;
use sgcn_graph::datasets::DatasetId;
use sgcn_mem::CacheEngine;

/// Runs one model on one quick-config dataset under both engines and
/// demands identical reports.
fn assert_engines_agree(model: &AccelModel, id: DatasetId) {
    let cfg = ExperimentConfig::quick();
    let wl = Workload::build(id, cfg.scale, cfg.network(), cfg.seed);
    let flat = model.simulate(&wl, &cfg.hw().with_cache_engine(CacheEngine::Flat));
    let list = model.simulate(&wl, &cfg.hw().with_cache_engine(CacheEngine::List));
    assert_eq!(
        flat,
        list,
        "{} on {}: Flat engine diverged from the List reference engine",
        model.name,
        id.abbrev()
    );
}

#[test]
fn fig11_lineup_is_bit_identical_on_quick_config() {
    // The full lineup covers every dataflow: tiled/untiled, agg/comb
    // first, column product (psum banks), DAVC pinning, islandization,
    // and BEICSR compressed storage.
    for model in AccelModel::fig11_lineup() {
        assert_engines_agree(&model, DatasetId::Cora);
    }
}

#[test]
fn second_dataset_and_policies_are_bit_identical() {
    use sgcn_mem::ReplacementPolicy;
    assert_engines_agree(&AccelModel::sgcn(), DatasetId::PubMed);
    // Replacement-policy ablation paths too.
    let cfg = ExperimentConfig::quick();
    let wl = Workload::build(DatasetId::Cora, cfg.scale, cfg.network(), cfg.seed);
    for policy in [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Bip,
    ] {
        let hw = cfg.hw().with_cache_policy(policy);
        let flat = AccelModel::sgcn().simulate(&wl, &hw.with_cache_engine(CacheEngine::Flat));
        let list = AccelModel::sgcn().simulate(&wl, &hw.with_cache_engine(CacheEngine::List));
        assert_eq!(flat, list, "{policy:?}: Flat engine diverged from List");
    }
}

#[test]
fn serving_requests_are_bit_identical() {
    use sgcn::serving::queueing::prepare;
    use sgcn::serving::{ServingConfig, ServingContext};
    use sgcn_graph::sampling::Fanouts;
    let cfg = ExperimentConfig::quick();
    let ctx = ServingContext::new(ServingConfig {
        dataset: DatasetId::Cora,
        scale: cfg.scale,
        fanouts: Fanouts::new(vec![8, 4]),
        width: cfg.width,
        seed: cfg.seed,
    });
    let requests = ctx.request_stream(6);
    for model in [AccelModel::sgcn(), AccelModel::gcnax()] {
        let run = |engine| prepare(&ctx, &requests, &model, &cfg.hw().with_cache_engine(engine));
        let (flat, list) = (run(CacheEngine::Flat), run(CacheEngine::List));
        for (f, l) in flat.iter().zip(&list) {
            assert_eq!(
                f, l,
                "{} on request {}: Flat engine diverged from List",
                model.name, f.request.index
            );
        }
    }
}

#[test]
fn format_study_is_bit_identical() {
    use sgcn::accel::sim::run_format_study;
    use sgcn_formats::FormatKind;
    let cfg = ExperimentConfig::quick();
    let wl = Workload::build(DatasetId::Cora, cfg.scale, cfg.network(), cfg.seed);
    for kind in [
        FormatKind::Dense,
        FormatKind::Csr,
        FormatKind::Beicsr,
        FormatKind::Coo,
    ] {
        let flat = run_format_study(kind, &wl, &cfg.hw().with_cache_engine(CacheEngine::Flat));
        let list = run_format_study(kind, &wl, &cfg.hw().with_cache_engine(CacheEngine::List));
        assert_eq!(flat, list, "{kind:?}: Flat engine diverged from List");
    }
}

/// The queue simulator's `exp_affinity` scenario cell: a quick-config
/// PubMed hotspot stream of 120 requests (20 hot seeds), exponential
/// arrivals at load 0.8, cache-affinity routing over a `mixed-steal`
/// fleet of 4 engines and a 20,000-cycle SLO. Returns the rendered
/// summary JSON.
fn exp_affinity_cell(engine: CacheEngine) -> String {
    use sgcn::serving::queueing::{
        feature_row_bytes, prepare_for, simulate_queue, FleetSpec, QueueConfig, SchedPolicy,
        SloConfig, TrafficModel,
    };
    use sgcn::serving::{ServingConfig, ServingContext};
    use sgcn_graph::sampling::Fanouts;
    let cfg = ExperimentConfig::quick();
    let ctx = ServingContext::new(ServingConfig {
        dataset: DatasetId::PubMed,
        scale: cfg.scale,
        fanouts: Fanouts::new(vec![10, 5]),
        width: cfg.width,
        seed: cfg.seed,
    });
    let stream = ctx.hotspot_stream(120, 20);
    let fleet = FleetSpec::parse("mixed-steal", 4).expect("mixed-steal is a fleet");
    let qcfg = QueueConfig::new(4, SchedPolicy::CacheAffinity, 0.8, cfg.seed)
        .with_traffic(TrafficModel::Exponential)
        .with_fleet(fleet)
        .with_slo(SloConfig::shedding(20_000));
    let hw = cfg.hw().with_cache_engine(engine);
    let prepared = prepare_for(&ctx, &stream, &AccelModel::sgcn(), &hw, &qcfg);
    let out = simulate_queue(&prepared, &qcfg, &hw, feature_row_bytes(&ctx));
    out.summary.to_json("PM exp_affinity")
}

/// Cache-affinity routing reads per-row residency counters that each
/// cache engine maintains on its own fill and eviction paths: the List
/// engine's counters must route exactly like the Flat engine's. The
/// event loop is serial and prepare is thread-count invariant, so the
/// comparison holds at any worker count.
#[test]
fn cache_affinity_queue_cell_is_byte_identical_across_engines() {
    let flat = exp_affinity_cell(CacheEngine::Flat);
    let list = exp_affinity_cell(CacheEngine::List);
    assert_eq!(flat, list, "exp_affinity: Flat engine diverged from List");
}
