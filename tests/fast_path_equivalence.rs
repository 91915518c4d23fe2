//! The cache model must be invisible in the results: running any
//! accelerator model through the one simulator path on the flat-array
//! [`Cache`] must produce a [`sgcn::SimReport`] **bit-identical** to the
//! recency-list reference [`ListCache`] (run through
//! [`AccelModel::simulate_on`], so every run replay is the per-line
//! default of [`sgcn_mem::CacheModel`]) — same cycles, hits, misses,
//! evictions, DRAM bytes, energy, everything.
//!
//! Serving has no cache-model choice: its engine caches are
//! `RowCache<Cache>`, and `RowCache<ListCache>` is checked against the
//! simulator's hierarchy in `proptest_row_cache`.

use sgcn::accel::AccelModel;
use sgcn::experiments::ExperimentConfig;
use sgcn::workload::Workload;
use sgcn::HwConfig;
use sgcn_formats::FormatKind;
use sgcn_graph::datasets::DatasetId;
use sgcn_mem::{Cache, ListCache};

/// Runs `model` on `wl` on both cache models and demands identical
/// reports.
fn assert_models_agree(
    model: &AccelModel,
    wl: &Workload,
    hw: &HwConfig,
    format: Option<FormatKind>,
) {
    let flat = model.simulate_on::<Cache>(wl, hw, format);
    let list = model.simulate_on::<ListCache>(wl, hw, format);
    assert_eq!(
        flat, list,
        "{} on {} ({format:?}): Cache diverged from the ListCache reference",
        model.name, wl.dataset.spec.abbrev
    );
}

/// A quick-config workload on `id`.
fn quick(id: DatasetId) -> (Workload, HwConfig) {
    let cfg = ExperimentConfig::quick();
    (
        Workload::build(id, cfg.scale, cfg.network(), cfg.seed),
        cfg.hw(),
    )
}

#[test]
fn fig11_lineup_is_bit_identical_on_quick_config() {
    // The full lineup covers every dataflow: tiled/untiled, agg/comb
    // first, column product (psum banks), DAVC pinning, islandization,
    // and BEICSR compressed storage.
    let (wl, hw) = quick(DatasetId::Cora);
    for model in AccelModel::fig11_lineup() {
        assert_models_agree(&model, &wl, &hw, None);
    }
}

#[test]
fn second_dataset_and_policies_are_bit_identical() {
    use sgcn_mem::ReplacementPolicy;
    let (wl, hw) = quick(DatasetId::PubMed);
    assert_models_agree(&AccelModel::sgcn(), &wl, &hw, None);
    // Replacement-policy ablation paths too.
    let (wl, hw) = quick(DatasetId::Cora);
    for policy in [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Bip,
    ] {
        assert_models_agree(
            &AccelModel::sgcn(),
            &wl,
            &hw.with_cache_policy(policy),
            None,
        );
    }
}

#[test]
fn format_study_is_bit_identical() {
    // The Fig. 3 study runs GCNAX with its boundary storage overridden
    // on `Cache`; the same model and override on `ListCache` must agree.
    let (wl, hw) = quick(DatasetId::Cora);
    for kind in [
        FormatKind::Dense,
        FormatKind::Csr,
        FormatKind::Beicsr,
        FormatKind::Coo,
    ] {
        let mut model = AccelModel::gcnax();
        model.name = kind.label();
        assert_eq!(
            sgcn::accel::sim::run_format_study(kind, &wl, &hw),
            model.simulate_on::<ListCache>(&wl, &hw, Some(kind)),
            "{kind:?}: the format study diverged from its ListCache run"
        );
    }
}
