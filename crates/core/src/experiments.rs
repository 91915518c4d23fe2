//! Experiment drivers — one per table/figure of the paper's evaluation.
//!
//! Every driver returns a [`Grid`] (row × column matrix of named values)
//! that the `sgcn-bench` binaries print; tests assert the *shape* claims
//! (who wins, roughly by how much) on scaled-down configurations.
//!
//! # Deterministic parallelism
//!
//! Every simulation a driver issues is a pure function of its
//! `(model, workload, hw)` inputs, so the drivers fan independent
//! `(dataset × model)` runs out over [`sgcn_par::par_map`] and fill the
//! grid from the ordered result vector. Grids are **bit-identical** to a
//! serial run at any thread count (`SGCN_THREADS=1` to force serial).

use std::fmt;

use sgcn_formats::FormatKind;
use sgcn_graph::datasets::{DatasetId, SynthScale};
use sgcn_mem::{HbmGeneration, Traffic};
use sgcn_model::{GcnVariant, NetworkConfig};
use sgcn_par::par_map;

use crate::accel::AccelModel;
use crate::config::HwConfig;
use crate::metrics::GeoMean;
use crate::serving::queueing::{
    feature_row_bytes, prepare, prepare_degraded, prepare_for, simulate_queue, ArrivalTrace,
    ClassPolicy, DegradePolicy, EngineLineup, FailureModel, FleetSpec, FormatPolicy,
    PreparedRequest, QueueConfig, QueueSummary, RequestClass, RetryPolicy, ScalePolicy,
    SchedPolicy, ServeFormat, ShardPlan, SloConfig, TrafficModel,
};
use crate::serving::{Request, ServingConfig, ServingContext};

/// Scale knobs shared by all experiment drivers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Dataset synthesis scale.
    pub scale: SynthScale,
    /// Network depth (paper: 28).
    pub layers: usize,
    /// Intermediate feature width (paper: 256).
    pub width: usize,
    /// Global cache capacity in KiB. The graphs are scaled down, so the
    /// cache scales with them to preserve the paper's regime of feature
    /// working sets far exceeding the cache (Reddit's full-scale feature
    /// matrix is ~465× the 512 KB cache; 2048 vertices × 1 KB rows against
    /// 64 KB keeps a 32× ratio).
    pub cache_kib: u64,
    /// RNG seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper-shaped configuration (28 × 256) on scaled-down graphs
    /// with a proportionally scaled cache.
    pub fn paper() -> Self {
        ExperimentConfig {
            scale: SynthScale {
                max_vertices: 2048,
                max_avg_degree: 24.0,
                max_input_features: 2048,
            },
            layers: 28,
            width: 256,
            cache_kib: 64,
            seed: 2023,
        }
    }

    /// A fast configuration for tests and smoke runs.
    pub fn quick() -> Self {
        ExperimentConfig {
            scale: SynthScale::tiny(),
            layers: 6,
            width: 192,
            cache_kib: 16,
            seed: 2023,
        }
    }

    /// The network this config describes.
    pub fn network(&self) -> NetworkConfig {
        NetworkConfig::deep_residual(self.layers, self.width)
    }

    /// The hardware platform this config describes (Table III with the
    /// scaled cache).
    pub fn hw(&self) -> HwConfig {
        HwConfig::default().with_cache_kib(self.cache_kib)
    }
}

/// A named row × column matrix of experiment results.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    /// Title printed above the table.
    pub title: String,
    /// Column names.
    pub cols: Vec<String>,
    /// Row names.
    pub rows: Vec<String>,
    /// Row-major values.
    pub values: Vec<Vec<f64>>,
}

impl Grid {
    /// Creates an empty grid with the given shape labels.
    pub fn new(title: impl Into<String>, cols: Vec<String>, rows: Vec<String>) -> Self {
        let (r, c) = (rows.len(), cols.len());
        Grid {
            title: title.into(),
            cols,
            rows,
            values: vec![vec![0.0; c]; r],
        }
    }

    /// Looks up a value by names.
    ///
    /// # Panics
    ///
    /// Panics if either name is unknown.
    pub fn get(&self, row: &str, col: &str) -> f64 {
        let r = self
            .rows
            .iter()
            .position(|x| x == row)
            .unwrap_or_else(|| panic!("unknown row {row:?}; have {:?}", self.rows));
        let c = self
            .cols
            .iter()
            .position(|x| x == col)
            .unwrap_or_else(|| panic!("unknown col {col:?}; have {:?}", self.cols));
        self.values[r][c]
    }

    /// Sets a value by names.
    ///
    /// # Panics
    ///
    /// Panics if either name is unknown.
    pub fn set(&mut self, row: &str, col: &str, v: f64) {
        let r = self
            .rows
            .iter()
            .position(|x| x == row)
            .unwrap_or_else(|| panic!("unknown row {row:?}"));
        let c = self
            .cols
            .iter()
            .position(|x| x == col)
            .unwrap_or_else(|| panic!("unknown col {col:?}"));
        self.values[r][c] = v;
    }
}

impl fmt::Display for Grid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {}", self.title)?;
        let w = self.rows.iter().map(|r| r.len()).max().unwrap_or(4).max(4) + 2;
        write!(f, "{:w$}", "")?;
        for c in &self.cols {
            write!(f, "{c:>10}")?;
        }
        writeln!(f)?;
        for (r, row) in self.rows.iter().zip(&self.values) {
            write!(f, "{r:<w$}")?;
            for v in row {
                write!(f, "{v:>10.3}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

fn dataset_cols(datasets: &[DatasetId]) -> Vec<String> {
    datasets.iter().map(|d| d.abbrev().to_string()).collect()
}

/// Workload and report memoization for the fast driver path.
///
/// The figures re-use the same `(dataset, network, seed)` workloads and
/// re-simulate the same `(model, workload, hw)` points many times across
/// the suite (the Fig. 12 baseline is Fig. 11's GCNAX, Fig. 13's lineup
/// is a subset of Fig. 11's, the Fig. 15b sweep revisits the default
/// cache size, …). Both constructions are pure functions of their
/// inputs, so memoizing them returns **bit-identical** values; the keys
/// are the `Debug` rendering of every input (f64s print
/// shortest-roundtrip, so distinct configs cannot collide). The bounded
/// tables themselves live in [`sgcn_par::BoundedMemo`], where the
/// eviction behaviour is unit-tested.
mod memo {
    use std::sync::{Arc, OnceLock};

    use sgcn_formats::FormatKind;
    use sgcn_graph::datasets::{DatasetId, SynthScale};
    use sgcn_model::NetworkConfig;
    use sgcn_par::BoundedMemo;

    use crate::accel::sim::run_format_study;
    use crate::accel::AccelModel;
    use crate::config::HwConfig;
    use crate::metrics::SimReport;
    use crate::workload::Workload;

    /// A memoized workload plus the key that identifies it.
    #[derive(Clone)]
    pub(super) struct CachedWorkload {
        key: Arc<str>,
        wl: Arc<Workload>,
    }

    impl std::ops::Deref for CachedWorkload {
        type Target = Workload;
        fn deref(&self) -> &Workload {
            &self.wl
        }
    }

    /// Entry caps keep a paper-scale run's memory bounded. Workloads are
    /// large (a full per-layer dense feature trace each), so past the cap
    /// new ones are simply not cached ([`BoundedMemo::insert_if_room`]) —
    /// the early, cross-figure standard workloads stay hot while
    /// sweep-specific variants are rebuilt on demand, exactly like the
    /// original driver. Reports are small and re-derivable, so their
    /// table clears at the cap ([`BoundedMemo::get_or_insert`]).
    const WORKLOAD_CAP: usize = 12;
    const REPORT_CAP: usize = 8192;

    static WORKLOADS: OnceLock<BoundedMemo<Arc<Workload>>> = OnceLock::new();
    static REPORTS: OnceLock<BoundedMemo<SimReport>> = OnceLock::new();

    /// Builds (or recalls) a workload.
    pub(super) fn workload(
        id: DatasetId,
        scale: SynthScale,
        network: NetworkConfig,
        seed: u64,
        uniform_sparsity: Option<f64>,
    ) -> CachedWorkload {
        let key = format!("{id:?}|{scale:?}|{network:?}|{seed}|{uniform_sparsity:?}");
        let build = || match uniform_sparsity {
            None => Workload::build(id, scale, network, seed),
            Some(sp) => Workload::build_with_uniform_sparsity(id, scale, network, sp, seed),
        };
        let memo = WORKLOADS.get_or_init(|| BoundedMemo::new(WORKLOAD_CAP));
        let wl = match memo.get(&key) {
            Some(wl) => wl,
            None => {
                let wl = Arc::new(build());
                memo.insert_if_room(key.clone(), Arc::clone(&wl));
                wl
            }
        };
        CachedWorkload {
            key: key.as_str().into(),
            wl,
        }
    }

    fn recall_or(key: String, run: impl FnOnce() -> SimReport, name: &'static str) -> SimReport {
        let memo = REPORTS.get_or_init(|| BoundedMemo::new(REPORT_CAP));
        // Only the display name can differ between callers of the same
        // simulation point (Fig. 12 renames its baseline), so it is
        // restamped on both the recall and build paths.
        let mut r = memo.get_or_insert(key, run);
        r.accelerator = name;
        r
    }

    /// Simulates (or recalls) one `(model, workload, hw)` point.
    pub(super) fn simulate(model: &AccelModel, wl: &CachedWorkload, hw: &HwConfig) -> SimReport {
        let mut anon = model.clone();
        anon.name = "";
        recall_or(
            format!("{}|{anon:?}|{hw:?}", wl.key),
            || model.simulate(wl, hw),
            model.name,
        )
    }

    /// Runs (or recalls) one Fig. 3-style format study point.
    pub(super) fn format_study(kind: FormatKind, wl: &CachedWorkload, hw: &HwConfig) -> SimReport {
        recall_or(
            format!("fmt|{kind:?}|{}|{hw:?}", wl.key),
            || run_format_study(kind, wl, hw),
            kind.label(),
        )
    }
}

use memo::CachedWorkload;

/// Builds the standard workload for every dataset, in parallel (memoized
/// across drivers on the fast path).
fn build_workloads(
    cfg: &ExperimentConfig,
    datasets: &[DatasetId],
    network: NetworkConfig,
) -> Vec<CachedWorkload> {
    par_map(datasets.to_vec(), |id| {
        memo::workload(id, cfg.scale, network, cfg.seed, None)
    })
}

/// The cross product `0..a × 0..b` in row-major order — the job list for
/// a two-axis parallel sweep.
fn cross(a: usize, b: usize) -> Vec<(usize, usize)> {
    (0..a).flat_map(|i| (0..b).map(move |j| (i, j))).collect()
}

/// Fig. 1 / Fig. 2a-b: average intermediate sparsity of traditional vs
/// modern (residual) GCNs across depths, and the per-layer trajectory.
pub fn fig01_sparsity_vs_layers(cfg: &ExperimentConfig, depths: &[usize]) -> Grid {
    let datasets = [DatasetId::Cora, DatasetId::CiteSeer, DatasetId::PubMed];
    let mut rows = Vec::new();
    for d in &datasets {
        rows.push(format!("{} modern", d.abbrev()));
        rows.push(format!("{} traditional", d.abbrev()));
    }
    let cols: Vec<String> = depths.iter().map(|d| format!("L{d}")).collect();
    let mut grid = Grid::new("Fig 1: avg intermediate sparsity (%) vs depth", cols, rows);
    let per_dataset = par_map(datasets.to_vec(), |id| {
        let ds = sgcn_graph::datasets::Dataset::synthesize(
            id,
            cfg.scale,
            sgcn_graph::builder::Normalization::Symmetric,
        );
        depths
            .iter()
            .map(|&l| {
                let modern: f64 =
                    (0..l).map(|i| ds.intermediate_sparsity(i, l)).sum::<f64>() / l as f64;
                let trad: f64 =
                    (0..l).map(|i| ds.traditional_sparsity(i, l)).sum::<f64>() / l as f64;
                (modern, trad)
            })
            .collect::<Vec<_>>()
    });
    for (id, values) in datasets.iter().zip(&per_dataset) {
        for (&l, &(modern, trad)) in depths.iter().zip(values) {
            grid.set(
                &format!("{} modern", id.abbrev()),
                &format!("L{l}"),
                modern * 100.0,
            );
            grid.set(
                &format!("{} traditional", id.abbrev()),
                &format!("L{l}"),
                trad * 100.0,
            );
        }
    }
    grid
}

/// Fig. 2b: per-layer sparsity of the 28-layer residual network, all nine
/// datasets.
pub fn fig02_per_layer_sparsity(cfg: &ExperimentConfig) -> Grid {
    let cols: Vec<String> = (0..cfg.layers).map(|l| format!("{l}")).collect();
    let rows: Vec<String> = DatasetId::ALL
        .iter()
        .map(|d| d.abbrev().to_string())
        .collect();
    let mut grid = Grid::new(
        format!(
            "Fig 2b: per-layer intermediate sparsity (%), {}-layer residual GCN",
            cfg.layers
        ),
        cols,
        rows,
    );
    let per_dataset = par_map(DatasetId::ALL.to_vec(), |id| {
        let ds = sgcn_graph::datasets::Dataset::synthesize(
            id,
            cfg.scale,
            sgcn_graph::builder::Normalization::Symmetric,
        );
        (0..cfg.layers)
            .map(|l| ds.intermediate_sparsity(l, cfg.layers))
            .collect::<Vec<_>>()
    });
    for (id, sparsities) in DatasetId::ALL.iter().zip(&per_dataset) {
        for (l, &s) in sparsities.iter().enumerate() {
            grid.set(id.abbrev(), &format!("{l}"), s * 100.0);
        }
    }
    grid
}

/// Fig. 3: normalized off-chip memory access and speedup per feature
/// format. Returns `(normalized_traffic, speedup)` grids, both normalized
/// to Dense.
pub fn fig03_format_comparison(cfg: &ExperimentConfig, datasets: &[DatasetId]) -> (Grid, Grid) {
    let hw = cfg.hw();
    let formats = [
        FormatKind::Dense,
        FormatKind::Csr,
        FormatKind::Coo,
        FormatKind::Bsr,
        FormatKind::BlockedEllpack,
    ];
    let mut row_names: Vec<String> = formats.iter().map(|f| f.label().to_string()).collect();
    row_names.push("BEICSR".into());
    row_names.push("BEICSR+SAC".into());
    let mut traffic = Grid::new(
        "Fig 3: off-chip memory access normalized to Dense",
        dataset_cols(datasets),
        row_names.clone(),
    );
    let mut speedup = Grid::new(
        "Fig 3: speedup over Dense",
        dataset_cols(datasets),
        row_names,
    );
    // Per dataset: the five study formats plus the two SGCN variants, all
    // independent given the workload.
    let workloads = build_workloads(cfg, datasets, cfg.network());
    let variants = formats.len() + 2;
    let reports = par_map(cross(datasets.len(), variants), |(di, vi)| {
        let wl = &workloads[di];
        if vi < formats.len() {
            memo::format_study(formats[vi], wl, &hw)
        } else if vi == formats.len() {
            memo::simulate(&AccelModel::sgcn_no_sac(), wl, &hw)
        } else {
            memo::simulate(&AccelModel::sgcn(), wl, &hw)
        }
    });
    for (di, &id) in datasets.iter().enumerate() {
        let block = &reports[di * variants..(di + 1) * variants];
        let dense = &block[0];
        for (fi, kind) in formats.iter().enumerate() {
            traffic.set(kind.label(), id.abbrev(), block[fi].traffic_vs(dense));
            speedup.set(kind.label(), id.abbrev(), block[fi].speedup_over(dense));
        }
        let beicsr = &block[formats.len()];
        traffic.set("BEICSR", id.abbrev(), beicsr.traffic_vs(dense));
        speedup.set("BEICSR", id.abbrev(), beicsr.speedup_over(dense));
        let sac = &block[formats.len() + 1];
        traffic.set("BEICSR+SAC", id.abbrev(), sac.traffic_vs(dense));
        speedup.set("BEICSR+SAC", id.abbrev(), sac.speedup_over(dense));
    }
    (traffic, speedup)
}

/// Runs a lineup on datasets, returning speedups normalized to the first
/// model in the lineup (the paper normalizes to GCNAX), with a trailing
/// "Geomean" column.
fn speedup_grid(
    title: &str,
    lineup: &[AccelModel],
    cfg: &ExperimentConfig,
    datasets: &[DatasetId],
    network: NetworkConfig,
    hw: &HwConfig,
) -> Grid {
    let mut cols = dataset_cols(datasets);
    cols.push("Geomean".into());
    let rows: Vec<String> = lineup.iter().map(|m| m.name.to_string()).collect();
    let mut grid = Grid::new(title, cols, rows);
    // Every (dataset, model) sim is independent; fan them all out and fill
    // the grid from the ordered results (row 0 of each dataset block is
    // the normalization baseline).
    let workloads = build_workloads(cfg, datasets, network);
    let reports = par_map(cross(datasets.len(), lineup.len()), |(di, mi)| {
        memo::simulate(&lineup[mi], &workloads[di], hw)
    });
    let mut geo: Vec<GeoMean> = vec![GeoMean::new(); lineup.len()];
    for (di, &id) in datasets.iter().enumerate() {
        let baseline = &reports[di * lineup.len()];
        for (mi, m) in lineup.iter().enumerate() {
            let s = reports[di * lineup.len() + mi].speedup_over(baseline);
            grid.set(m.name, id.abbrev(), s);
            geo[mi].push(s);
        }
    }
    for (mi, m) in lineup.iter().enumerate() {
        grid.set(m.name, "Geomean", geo[mi].value());
    }
    grid
}

/// Fig. 11: performance of all six accelerators, normalized to GCNAX.
pub fn fig11_performance(cfg: &ExperimentConfig, datasets: &[DatasetId]) -> Grid {
    speedup_grid(
        "Fig 11: speedup over GCNAX",
        &AccelModel::fig11_lineup(),
        cfg,
        datasets,
        cfg.network(),
        &cfg.hw(),
    )
}

/// Fig. 12: ablation — baseline, non-sliced BEICSR, sliced BEICSR,
/// BEICSR + SAC.
pub fn fig12_ablation(cfg: &ExperimentConfig, datasets: &[DatasetId]) -> Grid {
    let mut baseline = AccelModel::gcnax();
    baseline.name = "Baseline";
    let mut full = AccelModel::sgcn();
    full.name = "BEICSR+SAC";
    let mut no_sac = AccelModel::sgcn_no_sac();
    no_sac.name = "BEICSR";
    speedup_grid(
        "Fig 12: ablation (speedup over baseline)",
        &[baseline, AccelModel::sgcn_non_sliced(), no_sac, full],
        cfg,
        datasets,
        cfg.network(),
        &cfg.hw(),
    )
}

/// Fig. 13: energy breakdown (compute / cache / DRAM / static) normalized
/// to GCNAX's total per dataset, plus a TDP column (watts).
pub fn fig13_energy(cfg: &ExperimentConfig, datasets: &[DatasetId]) -> Grid {
    let hw = cfg.hw();
    let lineup = [
        AccelModel::gcnax(),
        AccelModel::hygcn(),
        AccelModel::awb_gcn(),
        AccelModel::sgcn(),
    ];
    let mut cols = dataset_cols(datasets);
    cols.push("TDP(W)".into());
    let mut rows = Vec::new();
    for m in &lineup {
        for part in ["compute", "cache", "dram", "total"] {
            rows.push(format!("{}/{part}", m.name));
        }
    }
    let mut grid = Grid::new("Fig 13: energy normalized to GCNAX total", cols, rows);
    // GCNAX (lineup[0]) doubles as the normalization baseline; the sims
    // are deterministic, so reusing its report is exact.
    let workloads = build_workloads(cfg, datasets, cfg.network());
    let reports = par_map(cross(datasets.len(), lineup.len()), |(di, mi)| {
        memo::simulate(&lineup[mi], &workloads[di], &hw)
    });
    for (di, &id) in datasets.iter().enumerate() {
        let block = &reports[di * lineup.len()..(di + 1) * lineup.len()];
        let base_total = block[0].energy.total_pj();
        for (mi, m) in lineup.iter().enumerate() {
            let r = &block[mi];
            grid.set(
                &format!("{}/compute", m.name),
                id.abbrev(),
                r.energy.compute_pj / base_total,
            );
            grid.set(
                &format!("{}/cache", m.name),
                id.abbrev(),
                r.energy.cache_pj / base_total,
            );
            grid.set(
                &format!("{}/dram", m.name),
                id.abbrev(),
                r.energy.dram_pj / base_total,
            );
            grid.set(
                &format!("{}/total", m.name),
                id.abbrev(),
                r.energy.total_pj() / base_total,
            );
        }
    }
    for (mi, m) in lineup.iter().enumerate() {
        // TDP does not depend on the dataset; reuse the first dataset's
        // reports.
        grid.set(
            &format!("{}/total", m.name),
            "TDP(W)",
            reports[mi].tdp_watts,
        );
    }
    grid
}

/// Fig. 14: off-chip access breakdown (topology / feature-in / feature-out
/// / partials) on one dataset, normalized to GCNAX's total.
pub fn fig14_memory_breakdown(cfg: &ExperimentConfig, id: DatasetId) -> Grid {
    let hw = cfg.hw();
    let lineup = AccelModel::fig11_lineup();
    let cols: Vec<String> = vec![
        "topology".into(),
        "feature-in".into(),
        "feature-out".into(),
        "partials".into(),
        "total".into(),
    ];
    let rows: Vec<String> = lineup.iter().map(|m| m.name.to_string()).collect();
    let mut grid = Grid::new(
        format!(
            "Fig 14: memory access breakdown on {} (normalized to GCNAX)",
            id.abbrev()
        ),
        cols,
        rows,
    );
    let wl = memo::workload(id, cfg.scale, cfg.network(), cfg.seed, None);
    let reports = par_map(lineup.to_vec(), |m| memo::simulate(&m, &wl, &hw));
    let base = reports[0].dram_bytes() as f64;
    for (m, r) in lineup.iter().zip(&reports) {
        grid.set(
            m.name,
            "topology",
            r.dram_bytes_for(Traffic::Topology) as f64 / base,
        );
        grid.set(
            m.name,
            "feature-in",
            r.dram_bytes_for(Traffic::FeatureRead) as f64 / base,
        );
        grid.set(
            m.name,
            "feature-out",
            r.dram_bytes_for(Traffic::FeatureWrite) as f64 / base,
        );
        grid.set(
            m.name,
            "partials",
            r.dram_bytes_for(Traffic::PartialSum) as f64 / base,
        );
        grid.set(m.name, "total", r.dram_bytes() as f64 / base);
    }
    grid
}

/// Fig. 15a: geomean speedup (vs GCNAX) across CR/CS/PM as depth varies.
pub fn fig15a_layer_sensitivity(cfg: &ExperimentConfig, depths: &[usize]) -> Grid {
    let datasets = [DatasetId::Cora, DatasetId::CiteSeer, DatasetId::PubMed];
    let lineup = AccelModel::fig11_lineup();
    let cols: Vec<String> = depths.iter().map(|d| format!("L{d}")).collect();
    let rows: Vec<String> = lineup.iter().map(|m| m.name.to_string()).collect();
    let mut grid = Grid::new("Fig 15a: geomean speedup vs depth", cols, rows);
    let hw = cfg.hw();
    for &depth in depths {
        let network = NetworkConfig::deep_residual(depth, cfg.width);
        let sub = speedup_grid("", &lineup, cfg, &datasets, network, &hw);
        for m in &lineup {
            grid.set(m.name, &format!("L{depth}"), sub.get(m.name, "Geomean"));
        }
    }
    grid
}

/// Fig. 15b: geomean speedup (vs GCNAX at the same cache size) as the
/// global cache scales.
pub fn fig15b_cache_sensitivity(
    cfg: &ExperimentConfig,
    cache_kib: &[u64],
    datasets: &[DatasetId],
) -> Grid {
    let lineup = AccelModel::fig11_lineup();
    let cols: Vec<String> = cache_kib.iter().map(|k| format!("{k}K")).collect();
    let rows: Vec<String> = lineup.iter().map(|m| m.name.to_string()).collect();
    let mut grid = Grid::new("Fig 15b: geomean speedup vs cache size", cols, rows);
    for &kib in cache_kib {
        let hw = HwConfig::default().with_cache_kib(kib);
        let sub = speedup_grid("", &lineup, cfg, datasets, cfg.network(), &hw);
        for m in &lineup {
            grid.set(m.name, &format!("{kib}K"), sub.get(m.name, "Geomean"));
        }
    }
    grid
}

/// Fig. 16: performance on GINConv / GraphSAGE variants.
pub fn fig16_variants(cfg: &ExperimentConfig, datasets: &[DatasetId], variant: GcnVariant) -> Grid {
    speedup_grid(
        &format!("Fig 16: speedup over GCNAX ({})", variant.label()),
        &AccelModel::fig11_lineup(),
        cfg,
        datasets,
        cfg.network().with_variant(variant),
        &cfg.hw(),
    )
}

/// Fig. 17: SGCN off-chip access sensitivity to the unit slice size,
/// normalized per dataset to `C = 96`.
pub fn fig17_slice_sensitivity(
    cfg: &ExperimentConfig,
    slices: &[usize],
    datasets: &[DatasetId],
) -> Grid {
    let hw = cfg.hw();
    let cols = dataset_cols(datasets);
    let rows: Vec<String> = slices.iter().map(|c| format!("Slice {c}")).collect();
    let mut grid = Grid::new(
        "Fig 17: off-chip access vs slice size (C=96 = 1.0)",
        cols,
        rows,
    );
    // Sweep points plus the C=96 normalization base per dataset (reused
    // from the sweep when 96 is a requested point).
    let mut points: Vec<usize> = slices.to_vec();
    let base_at = match slices.iter().position(|&c| c == 96) {
        Some(i) => i,
        None => {
            points.push(96);
            points.len() - 1
        }
    };
    let workloads = build_workloads(cfg, datasets, cfg.network());
    let bytes = par_map(cross(datasets.len(), points.len()), |(di, ci)| {
        memo::simulate(
            &AccelModel::sgcn_with_slice(points[ci]),
            &workloads[di],
            &hw,
        )
        .dram_bytes()
    });
    for (di, &id) in datasets.iter().enumerate() {
        let block = &bytes[di * points.len()..(di + 1) * points.len()];
        let base = block[base_at] as f64;
        for (ci, &c) in slices.iter().enumerate() {
            grid.set(&format!("Slice {c}"), id.abbrev(), block[ci] as f64 / base);
        }
    }
    grid
}

/// Fig. 18: SGCN scalability with engine count on HBM1/HBM2 — speedup over
/// the 1-engine HBM2 point plus bandwidth utilization (%).
pub fn fig18_scalability(cfg: &ExperimentConfig, engines: &[usize], id: DatasetId) -> Grid {
    let cols: Vec<String> = engines.iter().map(|e| format!("E{e}")).collect();
    let rows = vec![
        "HBM2 speedup".to_string(),
        "HBM1 speedup".to_string(),
        "HBM2 util%".to_string(),
        "HBM1 util%".to_string(),
    ];
    let mut grid = Grid::new("Fig 18: SGCN scalability (vs 1 engine on HBM2)", cols, rows);
    let wl = memo::workload(id, cfg.scale, cfg.network(), cfg.seed, None);
    let gens = [
        (HbmGeneration::Hbm2, "HBM2 speedup", "HBM2 util%"),
        (HbmGeneration::Hbm1, "HBM1 speedup", "HBM1 util%"),
    ];
    // The (engine, generation) sweep; the 1-engine HBM2 normalization
    // baseline is reused from the sweep when E=1 is a requested point
    // (HBM2 is gens[0]) and appended as one extra job otherwise.
    let mut jobs: Vec<HwConfig> = Vec::new();
    for &e in engines {
        for (gen, _, _) in gens {
            jobs.push(cfg.hw().with_engines(e).with_hbm(gen));
        }
    }
    let base_at = match engines.iter().position(|&e| e == 1) {
        Some(ei) => ei * gens.len(),
        None => {
            jobs.push(cfg.hw().with_engines(1));
            jobs.len() - 1
        }
    };
    let reports = par_map(jobs.clone(), |hw| {
        memo::simulate(&AccelModel::sgcn(), &wl, &hw)
    });
    let base = reports[base_at].cycles as f64;
    for (ei, &e) in engines.iter().enumerate() {
        for (gi, (_, label_s, label_u)) in gens.iter().enumerate() {
            let idx = ei * gens.len() + gi;
            let r = &reports[idx];
            grid.set(label_s, &format!("E{e}"), base / r.cycles as f64);
            grid.set(
                label_u,
                &format!("E{e}"),
                100.0 * r.mem.dram.total_bytes() as f64
                    / (jobs[idx].dram.peak_bytes_per_cycle * r.cycles as f64),
            );
        }
    }
    grid
}

/// Fig. 19: speedup vs uniform synthetic feature sparsity, for Dense,
/// CSR and SGCN (normalized to Dense at each sparsity level).
pub fn fig19_sparsity_sweep(cfg: &ExperimentConfig, sparsities_pct: &[u32], id: DatasetId) -> Grid {
    let hw = cfg.hw();
    let cols: Vec<String> = sparsities_pct.iter().map(|s| format!("{s}%")).collect();
    let rows = vec!["Dense".to_string(), "CSR".to_string(), "SGCN".to_string()];
    let mut grid = Grid::new(
        "Fig 19: speedup vs feature sparsity (Dense = 1.0)",
        cols,
        rows,
    );
    // One job per sparsity point (workload build + three sims).
    let results = par_map(sparsities_pct.to_vec(), |pct| {
        let wl = memo::workload(
            id,
            cfg.scale,
            cfg.network(),
            cfg.seed,
            Some(pct as f64 / 100.0),
        );
        let dense = memo::format_study(FormatKind::Dense, &wl, &hw);
        let csr = memo::format_study(FormatKind::Csr, &wl, &hw);
        let sgcn = memo::simulate(&AccelModel::sgcn(), &wl, &hw);
        (csr.speedup_over(&dense), sgcn.speedup_over(&dense))
    });
    for (&pct, &(csr, sgcn)) in sparsities_pct.iter().zip(&results) {
        grid.set("Dense", &format!("{pct}%"), 1.0);
        grid.set("CSR", &format!("{pct}%"), csr);
        grid.set("SGCN", &format!("{pct}%"), sgcn);
    }
    grid
}

/// Table II: the dataset catalog (full-scale stats and synthesized scale).
pub fn table02_datasets(cfg: &ExperimentConfig) -> Grid {
    let cols = vec![
        "Vertices".to_string(),
        "Edges".to_string(),
        "InFeats".to_string(),
        "FeatSpars%".to_string(),
        "SynthV".to_string(),
        "SynthE".to_string(),
        "Scale".to_string(),
    ];
    let rows: Vec<String> = DatasetId::ALL
        .iter()
        .map(|d| d.abbrev().to_string())
        .collect();
    let mut grid = Grid::new(
        "Table II: dataset catalog (full-scale vs synthesized)",
        cols,
        rows,
    );
    let synthesized = par_map(DatasetId::ALL.to_vec(), |id| {
        sgcn_graph::datasets::Dataset::synthesize(
            id,
            cfg.scale,
            sgcn_graph::builder::Normalization::Symmetric,
        )
    });
    for (id, ds) in DatasetId::ALL.into_iter().zip(&synthesized) {
        let spec = id.spec();
        grid.set(id.abbrev(), "Vertices", spec.vertices as f64);
        grid.set(id.abbrev(), "Edges", spec.edges as f64);
        grid.set(id.abbrev(), "InFeats", spec.input_features as f64);
        grid.set(id.abbrev(), "FeatSpars%", spec.feature_sparsity * 100.0);
        grid.set(id.abbrev(), "SynthV", ds.graph.num_vertices() as f64);
        grid.set(id.abbrev(), "SynthE", ds.graph.num_edges() as f64);
        grid.set(id.abbrev(), "Scale", ds.vertex_scale);
    }
    grid
}

/// Design ablation (`docs/ARCHITECTURE.md`, "Substitutions"): BEICSR's
/// two structural choices measured in isolation — embedded-in-place (the
/// paper's format) vs a separate bitmap-index array vs packed
/// variable-length rows. Returns DRAM bytes normalized to the
/// embedded-in-place variant (lower = better).
pub fn ablation_beicsr_design(cfg: &ExperimentConfig, datasets: &[DatasetId]) -> Grid {
    let hw = cfg.hw();
    let variants = [
        FormatKind::BeicsrNonSliced, // embedded + in place (non-sliced base)
        FormatKind::SeparateBitmap,  // − embedded
        FormatKind::PackedBeicsr,    // − in place
    ];
    let rows: Vec<String> = variants.iter().map(|v| v.label().to_string()).collect();
    let mut grid = Grid::new(
        "Ablation: BEICSR design choices (DRAM bytes vs embedded in-place)",
        dataset_cols(datasets),
        rows,
    );
    // variants[0] is the embedded-in-place base; reuse its run for the
    // normalization (the sims are deterministic).
    let workloads = build_workloads(cfg, datasets, cfg.network());
    let bytes = par_map(cross(datasets.len(), variants.len()), |(di, vi)| {
        memo::format_study(variants[vi], &workloads[di], &hw).dram_bytes()
    });
    for (di, &id) in datasets.iter().enumerate() {
        let block = &bytes[di * variants.len()..(di + 1) * variants.len()];
        let base = block[0] as f64;
        for (vi, v) in variants.iter().enumerate() {
            grid.set(v.label(), id.abbrev(), block[vi] as f64 / base);
        }
    }
    grid
}

/// Design ablation (`docs/ARCHITECTURE.md`, "Substitutions"): SAC
/// strip-height sweep around the paper's default of 32, speedups vs
/// GCNAX.
pub fn ablation_sac_strip(
    cfg: &ExperimentConfig,
    strips: &[usize],
    datasets: &[DatasetId],
) -> Grid {
    let hw = cfg.hw();
    let rows: Vec<String> = strips.iter().map(|s| format!("strip {s}")).collect();
    let mut cols = dataset_cols(datasets);
    cols.push("Geomean".into());
    let mut grid = Grid::new(
        "Ablation: SAC strip height (speedup over GCNAX)",
        cols,
        rows,
    );
    let mut geo: Vec<GeoMean> = vec![GeoMean::new(); strips.len()];
    // Jobs per dataset: the GCNAX baseline (index 0) then one SGCN run per
    // strip height.
    let workloads = build_workloads(cfg, datasets, cfg.network());
    let reports = par_map(cross(datasets.len(), strips.len() + 1), |(di, ji)| {
        if ji == 0 {
            memo::simulate(&AccelModel::gcnax(), &workloads[di], &hw)
        } else {
            let mut m = AccelModel::sgcn();
            m.strip_height = strips[ji - 1];
            memo::simulate(&m, &workloads[di], &hw)
        }
    });
    for (di, &id) in datasets.iter().enumerate() {
        let block = &reports[di * (strips.len() + 1)..(di + 1) * (strips.len() + 1)];
        let base = &block[0];
        for (si, &strip) in strips.iter().enumerate() {
            let s = block[si + 1].speedup_over(base);
            grid.set(&format!("strip {strip}"), id.abbrev(), s);
            geo[si].push(s);
        }
    }
    for (si, &strip) in strips.iter().enumerate() {
        grid.set(&format!("strip {strip}"), "Geomean", geo[si].value());
    }
    grid
}

/// Design ablation: cache replacement policy (LRU per Table III vs FIFO
/// vs thrash-resistant BIP) for the baseline and SGCN.
pub fn ablation_cache_policy(cfg: &ExperimentConfig, datasets: &[DatasetId]) -> Grid {
    use sgcn_mem::ReplacementPolicy;
    let policies = [
        ("LRU", ReplacementPolicy::Lru),
        ("FIFO", ReplacementPolicy::Fifo),
        ("BIP", ReplacementPolicy::Bip),
    ];
    let mut rows = Vec::new();
    for m in ["GCNAX", "SGCN"] {
        for (p, _) in &policies {
            rows.push(format!("{m}/{p}"));
        }
    }
    let mut grid = Grid::new(
        "Ablation: cache replacement policy (cycles normalized to GCNAX/LRU)",
        dataset_cols(datasets),
        rows,
    );
    // Job order per dataset: GCNAX×{LRU,FIFO,BIP} then SGCN×{…};
    // GCNAX/LRU (index 0) is the normalization baseline.
    let models = [("GCNAX", AccelModel::gcnax()), ("SGCN", AccelModel::sgcn())];
    let workloads = build_workloads(cfg, datasets, cfg.network());
    let cycles = par_map(
        cross(datasets.len(), models.len() * policies.len()),
        |(di, ji)| {
            let (_, model) = &models[ji / policies.len()];
            let (_, policy) = policies[ji % policies.len()];
            memo::simulate(model, &workloads[di], &cfg.hw().with_cache_policy(policy)).cycles
        },
    );
    let per_dataset = models.len() * policies.len();
    for (di, &id) in datasets.iter().enumerate() {
        let block = &cycles[di * per_dataset..(di + 1) * per_dataset];
        let base = block[0] as f64;
        for (mi, (mname, _)) in models.iter().enumerate() {
            for (pi, (pname, _)) in policies.iter().enumerate() {
                grid.set(
                    &format!("{mname}/{pname}"),
                    id.abbrev(),
                    block[mi * policies.len() + pi] as f64 / base,
                );
            }
        }
    }
    grid
}

/// Serving scenario (beyond the paper): latency-cycle percentiles and
/// throughput of SGCN over a seeded stream of sampled-subgraph requests,
/// one row per fanout schedule. Latencies are reported in kilocycles,
/// throughput in krequests/s at 1 GHz.
pub fn serving_fanout_sweep(
    cfg: &ExperimentConfig,
    id: DatasetId,
    fanout_sets: &[Vec<usize>],
    requests: usize,
) -> Grid {
    use crate::serving::{ServeSummary, ServingConfig, ServingContext};
    use sgcn_graph::sampling::Fanouts;

    let cols: Vec<String> = ["p50(kcyc)", "p95(kcyc)", "p99(kcyc)", "krps", "verts"]
        .map(String::from)
        .to_vec();
    let fanouts: Vec<Fanouts> = fanout_sets
        .iter()
        .map(|caps| Fanouts::new(caps.clone()))
        .collect();
    let rows: Vec<String> = fanouts
        .iter()
        .map(|f| format!("fanout {}", f.label()))
        .collect();
    let mut grid = Grid::new(
        format!(
            "Serving: SGCN sampled-subgraph latency/throughput on {} ({requests} requests)",
            id.abbrev()
        ),
        cols,
        rows,
    );
    if fanouts.is_empty() {
        return grid;
    }
    let hw = cfg.hw();
    // Graph synthesis and X¹ generation are fanout-independent: build
    // one context and derive the per-schedule variants from it.
    let base = ServingContext::new(ServingConfig {
        dataset: id,
        scale: cfg.scale,
        fanouts: fanouts[0].clone(),
        width: cfg.width,
        seed: cfg.seed,
    });
    for f in &fanouts {
        let ctx = base.with_fanouts(f.clone());
        let stream = ctx.request_stream(requests);
        let batch = prepare(&ctx, &stream, &AccelModel::sgcn(), &hw);
        let s = ServeSummary::from_reports(&batch);
        let row = format!("fanout {}", f.label());
        grid.set(&row, "p50(kcyc)", s.p50_cycles as f64 / 1e3);
        grid.set(&row, "p95(kcyc)", s.p95_cycles as f64 / 1e3);
        grid.set(&row, "p99(kcyc)", s.p99_cycles as f64 / 1e3);
        grid.set(&row, "krps", s.throughput_rps / 1e3);
        grid.set(&row, "verts", s.avg_vertices);
    }
    grid
}

/// Serving scenario: the full Fig. 11 accelerator lineup replaying the
/// same request stream — per-model p50/p99 latency (kilocycles) and
/// throughput (krequests/s), the SLO view of the paper's comparison.
pub fn serving_lineup(cfg: &ExperimentConfig, id: DatasetId, requests: usize) -> Grid {
    use crate::serving::{ServeSummary, ServingConfig, ServingContext};
    use sgcn_graph::sampling::Fanouts;

    let lineup = AccelModel::fig11_lineup();
    let cols: Vec<String> = ["p50(kcyc)", "p99(kcyc)", "krps"]
        .map(String::from)
        .to_vec();
    let rows: Vec<String> = lineup.iter().map(|m| m.name.to_string()).collect();
    let mut grid = Grid::new(
        format!(
            "Serving: accelerator lineup on {} sampled requests ({})",
            requests,
            id.abbrev()
        ),
        cols,
        rows,
    );
    let ctx = ServingContext::new(ServingConfig {
        dataset: id,
        scale: cfg.scale,
        fanouts: Fanouts::new(vec![10, 5]),
        width: cfg.width,
        seed: cfg.seed,
    });
    let stream = ctx.request_stream(requests);
    let hw = cfg.hw();
    for m in &lineup {
        let batch = prepare(&ctx, &stream, m, &hw);
        let s = ServeSummary::from_reports(&batch);
        grid.set(m.name, "p50(kcyc)", s.p50_cycles as f64 / 1e3);
        grid.set(m.name, "p99(kcyc)", s.p99_cycles as f64 / 1e3);
        grid.set(m.name, "krps", s.throughput_rps / 1e3);
    }
    grid
}

/// Serving scenario: microbatch size sweep — one engine serves the
/// stream in fixed-size batches that amortize the per-layer weight
/// stream (requests after a batch's first find the weights on chip; see
/// [`crate::serving::amortized_batch_latencies`]). Latencies in
/// kilocycles, throughput in krequests/s, plus the mean latency saving
/// over batch = 1 in percent.
pub fn serving_batch_sweep(
    cfg: &ExperimentConfig,
    id: DatasetId,
    batch_sizes: &[usize],
    requests: usize,
) -> Grid {
    use crate::serving::{amortized_batch_latencies, ServeSummary, ServingConfig, ServingContext};
    use sgcn_graph::sampling::Fanouts;

    let cols: Vec<String> = ["p50(kcyc)", "p99(kcyc)", "krps", "saved%"]
        .map(String::from)
        .to_vec();
    let rows: Vec<String> = batch_sizes.iter().map(|b| format!("batch {b}")).collect();
    let mut grid = Grid::new(
        format!(
            "Serving: weight-stream amortization vs batch size on {} ({requests} requests)",
            id.abbrev()
        ),
        cols,
        rows,
    );
    let hw = cfg.hw();
    let ctx = ServingContext::new(ServingConfig {
        dataset: id,
        scale: cfg.scale,
        fanouts: Fanouts::new(vec![10, 5]),
        width: cfg.width,
        seed: cfg.seed,
    });
    let stream = ctx.request_stream(requests);
    // The cold replay is batch-size independent: prepare once, then
    // apply each batching schedule to the same reports.
    let batch = prepare(&ctx, &stream, &AccelModel::sgcn(), &hw);
    let cold = ServeSummary::from_reports(&batch);
    for &b in batch_sizes {
        let latencies = amortized_batch_latencies(&batch, b, &hw);
        let s = ServeSummary::from_reports_with_latencies(&batch, latencies);
        let row = format!("batch {b}");
        grid.set(&row, "p50(kcyc)", s.p50_cycles as f64 / 1e3);
        grid.set(&row, "p99(kcyc)", s.p99_cycles as f64 / 1e3);
        grid.set(&row, "krps", s.throughput_rps / 1e3);
        let saved = if cold.mean_cycles > 0.0 {
            100.0 * (1.0 - s.mean_cycles / cold.mean_cycles)
        } else {
            0.0
        };
        grid.set(&row, "saved%", saved);
    }
    grid
}

/// Shared setup for the queueing grids: a serving context on one dataset
/// with a hotspot request stream (shared neighborhoods are what warm
/// reuse and affinity routing act on), that stream prepared once on the
/// native platform — the prepared reports are policy/load/engine-count
/// independent, so every cell replays the same prepared vector through
/// the serial event loop — and the platform and feature-row size every
/// cell simulates with.
struct QueueingSetup {
    cfg: ExperimentConfig,
    id: DatasetId,
    ctx: ServingContext,
    stream: Vec<Request>,
    prepared: Vec<PreparedRequest>,
    hw: HwConfig,
    row_bytes: u64,
}

/// One queueing-grid cell: its row label and the run it renders.
pub type QueueCell = (String, QueueConfig);

impl QueueingSetup {
    fn new(cfg: &ExperimentConfig, id: DatasetId, requests: usize) -> Self {
        use sgcn_graph::sampling::Fanouts;

        let ctx = ServingContext::new(ServingConfig {
            dataset: id,
            scale: cfg.scale,
            fanouts: Fanouts::new(vec![10, 5]),
            width: cfg.width,
            seed: cfg.seed,
        });
        // A hot pool of ~1/6 of the stream: realistic skew (trending seeds)
        // with enough distinct neighborhoods to keep the schedulers honest.
        let stream = ctx.hotspot_stream(requests, (requests / 6).max(2));
        let hw = cfg.hw();
        let prepared = prepare(&ctx, &stream, &AccelModel::sgcn(), &hw);
        let row_bytes = feature_row_bytes(&ctx);
        QueueingSetup {
            cfg: *cfg,
            id,
            ctx,
            stream,
            prepared,
            hw,
            row_bytes,
        }
    }

    /// The one queueing-grid driver: one row per cell, each cell's run
    /// simulated over `prepared`, every column filled through
    /// [`queue_column`].
    fn render(
        &self,
        title: String,
        cols: &[&str],
        prepared: &[PreparedRequest],
        cells: Vec<QueueCell>,
    ) -> Grid {
        let rows = cells.iter().map(|(row, _)| row.clone()).collect();
        let mut grid = Grid::new(title, cols.iter().map(|c| c.to_string()).collect(), rows);
        for ((_, qcfg), values) in cells.iter().zip(&mut grid.values) {
            let s = simulate_queue(prepared, qcfg, &self.hw, self.row_bytes).summary;
            for (v, col) in values.iter_mut().zip(cols) {
                *v = queue_column(col, &s);
            }
        }
        grid
    }
}

/// The queueing grids' column table: a column label → the
/// [`QueueSummary`] value it shows (cycles in kilocycles, rates in
/// percent).
///
/// # Panics
///
/// Panics on an unknown label.
fn queue_column(col: &str, s: &QueueSummary) -> f64 {
    let ratio = |n: f64, d: f64| if d == 0.0 { 0.0 } else { n / d };
    let iv = RequestClass::Interactive.idx();
    match col {
        "p50w(kc)" => s.p50_wait_cycles as f64 / 1e3,
        "p50e(kc)" => s.p50_e2e_cycles as f64 / 1e3,
        "p99e(kc)" => s.p99_e2e_cycles as f64 / 1e3,
        "mksp(kc)" => s.makespan_cycles as f64 / 1e3,
        "util%" => s.utilization * 100.0,
        "warm%" => s.warm_hit_rate * 100.0,
        "shed%" => s.shed_rate * 100.0,
        "viol%" => s.violation_rate * 100.0,
        "cost" => s.cost_units,
        "err%" => s.format_pred_err * 100.0,
        "done%" => ratio(s.completed as f64, s.requests as f64) * 100.0,
        "fail%" => s.failed_rate * 100.0,
        "avail%" => s.availability * 100.0,
        "ishd%" => {
            let offered = s.class_completed[iv] + s.class_shed[iv] + s.class_failed[iv];
            ratio(s.class_shed[iv] as f64, offered as f64) * 100.0
        }
        "ip99(kc)" => s.class_p99_e2e[iv] as f64 / 1e3,
        "bp99(kc)" => s.class_p99_e2e[RequestClass::Batch.idx()] as f64 / 1e3,
        "pre" => s.preemptions as f64,
        "deg%" => ratio(s.degraded as f64, s.completed as f64) * 100.0,
        "netKB" => s.net_bytes as f64 / 1e3,
        "netkc" => s.net_cycles as f64 / 1e3,
        "rem%" => s.remote_rate * 100.0,
        _ => panic!("unknown queueing column {col:?}"),
    }
}

/// Renders the nine queueing grids (beyond the paper) in suite order off
/// one shared preparation — the expensive half (sampling + cold
/// simulation of the stream) is identical for every cell of every grid:
///
/// 1. policy × offered load (`loads`),
/// 2. engine-count scaling under cache affinity (`engine_counts`),
/// 3. traffic model × policy under an SLO deadline,
/// 4. heterogeneous fleets with and without work stealing,
/// 5. hardware lineup × routing policy ([`lineup_cells`]),
/// 6. serving-format dispatch on the mixed lineup ([`format_cells`]),
/// 7. failure drills: fault intensity × policy × retry budget,
/// 8. deadline classes & brownout capacity ([`CapacityScenario`]),
/// 9. sharded store × routing ([`shard_cells`]).
///
/// Every grid but the engine sweep runs `engines` engines at offered
/// load `load`.
#[allow(clippy::too_many_arguments)]
pub fn queueing_grids(
    cfg: &ExperimentConfig,
    id: DatasetId,
    engines: usize,
    loads: &[f64],
    engine_counts: &[usize],
    load: f64,
    requests: usize,
) -> Vec<Grid> {
    let setup = QueueingSetup::new(cfg, id, requests);
    vec![
        policy_grid(&setup, engines, loads),
        engine_grid(&setup, engine_counts, load),
        traffic_grid(&setup, engines, load),
        fleet_grid(&setup, engines, load),
        lineup_grid(&setup, engines, load),
        format_grid(&setup, engines, load),
        failure_grid(&setup, engines, load),
        class_grid(&setup, engines, load),
        shard_grid(&setup, engines, load),
    ]
}

/// Policy × offered load. Rows are `policy @ load`; columns report the
/// SLO view (p50 queueing delay, p99 end-to-end latency), fleet
/// utilization, and the warm-cache hit rate — the cold-vs-warm reuse
/// measurement.
fn policy_grid(s: &QueueingSetup, engines: usize, loads: &[f64]) -> Grid {
    let cells = SchedPolicy::ALL
        .iter()
        .flat_map(|&policy| {
            loads.iter().map(move |&load| {
                (
                    format!("{} @{load:.2}", policy.label()),
                    QueueConfig::new(engines, policy, load, s.cfg.seed),
                )
            })
        })
        .collect();
    s.render(
        format!(
            "Queueing: policy × offered load on {} ({} requests, {engines} engines)",
            s.id.abbrev(),
            s.stream.len()
        ),
        &["p50w(kc)", "p99e(kc)", "util%", "warm%"],
        &s.prepared,
        cells,
    )
}

/// Engine-count sweep under the cache-affinity policy at a fixed offered
/// load — how co-scheduling scales the fleet (latency, makespan,
/// utilization, warm reuse).
fn engine_grid(s: &QueueingSetup, engine_counts: &[usize], load: f64) -> Grid {
    let cells = engine_counts
        .iter()
        .map(|&e| {
            let qcfg = QueueConfig::new(e, SchedPolicy::CacheAffinity, load, s.cfg.seed);
            (format!("E{e}"), qcfg)
        })
        .collect();
    s.render(
        format!(
            "Queueing: engine-count sweep on {} (cache-affinity, load {load:.2}, {} requests)",
            s.id.abbrev(),
            s.stream.len()
        ),
        &["p50e(kc)", "p99e(kc)", "mksp(kc)", "util%", "warm%"],
        &s.prepared,
        cells,
    )
}

/// Traffic & SLO: arrival model × policy under a deadline of three mean
/// cold services with load shedding on. The closed loop is sized at
/// twice the engine count so clients outnumber engines without
/// trivially saturating them. Rows are `traffic / policy`; columns
/// report median queueing delay and p99 end-to-end latency over
/// completed requests, the shed and violation rates, and the warm-cache
/// hit rate — where bursty/diurnal/closed-loop load separates the
/// schedulers that the Poisson sweep cannot.
fn traffic_grid(s: &QueueingSetup, engines: usize, load: f64) -> Grid {
    // Deadline: three mean cold services — tight enough that bursts and
    // peaks shed, loose enough that the off-peak stream flows.
    let mean_service = if s.prepared.is_empty() {
        0
    } else {
        s.prepared.iter().map(|p| p.report.cycles).sum::<u64>() / s.prepared.len() as u64
    };
    let slo = SloConfig::shedding((3 * mean_service).max(1));
    let traffics = [
        TrafficModel::Exponential,
        TrafficModel::bursty_default(),
        TrafficModel::diurnal_default(),
        TrafficModel::ClosedLoop {
            clients: engines * 2,
        },
    ];
    let cells = traffics
        .iter()
        .flat_map(|&traffic| {
            SchedPolicy::ALL.iter().map(move |&policy| {
                (
                    format!("{} / {}", traffic.label(), policy.label()),
                    QueueConfig::new(engines, policy, load, s.cfg.seed)
                        .with_traffic(traffic)
                        .with_slo(slo),
                )
            })
        })
        .collect();
    s.render(
        format!(
            "Queueing: traffic model × policy under SLO on {} ({} requests, {engines} engines, load {load:.2})",
            s.id.abbrev(),
            s.stream.len()
        ),
        &["p50w(kc)", "p99e(kc)", "shed%", "viol%", "warm%"],
        &s.prepared,
        cells,
    )
}

/// Heterogeneous fleets: uniform vs mixed fast/slow fleets with and
/// without cross-engine work stealing, under bursty traffic and
/// cache-affinity routing — how much a slow engine class costs and how
/// much stealing claws back.
fn fleet_grid(s: &QueueingSetup, engines: usize, load: f64) -> Grid {
    let fleets = [
        FleetSpec::uniform(engines),
        FleetSpec::uniform(engines).with_work_stealing(),
        FleetSpec::mixed(engines, 1.5),
        FleetSpec::mixed(engines, 1.5).with_work_stealing(),
    ];
    let cells = fleets
        .into_iter()
        .map(|fleet| {
            (
                fleet.label(),
                QueueConfig::new(engines, SchedPolicy::CacheAffinity, load, s.cfg.seed)
                    .with_traffic(TrafficModel::bursty_default())
                    .with_fleet(fleet),
            )
        })
        .collect();
    s.render(
        format!(
            "Queueing: fleet lineup on {} (cache-affinity, bursty, load {load:.2}, {} requests, {engines} engines)",
            s.id.abbrev(),
            s.stream.len()
        ),
        &["p50e(kc)", "p99e(kc)", "mksp(kc)", "util%", "warm%"],
        &s.prepared,
        cells,
    )
}

/// The hardware lineup × routing-policy cells shared by the suite's
/// lineup grid and `queue_sim`'s `BENCH_lineup.json` sweep: uniform vs
/// mixed lineups (`ref` = the base hardware, `eco` = half the engine
/// arrays on HBM1 at 0.45 cost units) × {least-loaded, cache-affinity,
/// cost-aware} under bursty traffic. Rows are `lineup / policy`. The
/// last cell (mixed, cost-aware) carries both hardware classes, so
/// preparing for it serves every cell.
pub fn lineup_cells(cfg: &ExperimentConfig, engines: usize, load: f64) -> Vec<QueueCell> {
    let hw = cfg.hw();
    let policies = [
        SchedPolicy::LeastLoaded,
        SchedPolicy::CacheAffinity,
        SchedPolicy::CostAware,
    ];
    [
        EngineLineup::uniform(engines, hw),
        EngineLineup::mixed(engines, hw),
    ]
    .iter()
    .flat_map(|lineup| {
        policies.map(|policy| {
            (
                format!("{} / {}", lineup.label(), policy.label()),
                QueueConfig::new(engines, policy, load, cfg.seed)
                    .with_traffic(TrafficModel::bursty_default())
                    .with_lineup(lineup.clone()),
            )
        })
    })
    .collect()
}

/// Heterogeneous-lineup capacity planning over [`lineup_cells`]: each
/// engine runs its own accelerator platform with per-class cold reports
/// and per-class warm-savings pricing; the `cost-aware` policy routes on
/// a [`crate::serving::queueing::CostModel`] fitted from those reports.
/// Columns report the p50 / p99 end-to-end latency, makespan, warm-hit
/// rate, and the lineup's price in cost units — the "what lineup serves
/// this traffic at the cheapest p99?" planning view.
fn lineup_grid(s: &QueueingSetup, engines: usize, load: f64) -> Grid {
    let cells = lineup_cells(&s.cfg, engines, load);
    let (_, widest) = cells.last().expect("a sweep has cells");
    let prepared = prepare_for(&s.ctx, &s.stream, &AccelModel::sgcn(), &s.hw, widest);
    s.render(
        format!(
            "Queueing: hardware lineup × routing policy on {} (bursty, load {load:.2}, {} requests, {engines} engines)",
            s.id.abbrev(),
            s.stream.len()
        ),
        &["p50e(kc)", "p99e(kc)", "mksp(kc)", "warm%", "cost"],
        &prepared,
        cells,
    )
}

/// The serving-format cells shared by the suite's format grid and
/// `queue_sim`'s `BENCH_format.json` sweep: every palette format pinned
/// ([`FormatPolicy::Fixed`]) and then `adaptive`, on the mixed lineup,
/// routed `cost-aware` under bursty traffic. Rows are the format-policy
/// labels; the last cell is the adaptive one, which needs (and is
/// prepared for) the whole palette.
pub fn format_cells(cfg: &ExperimentConfig, engines: usize, load: f64) -> Vec<QueueCell> {
    let lineup = EngineLineup::mixed(engines, cfg.hw());
    ServeFormat::PALETTE
        .iter()
        .map(|&f| FormatPolicy::Fixed(f))
        .chain(std::iter::once(FormatPolicy::Adaptive))
        .map(|policy| {
            (
                policy.label(),
                QueueConfig::new(engines, SchedPolicy::CostAware, load, cfg.seed)
                    .with_traffic(TrafficModel::bursty_default())
                    .with_lineup(lineup.clone())
                    .with_format(policy),
            )
        })
        .collect()
}

/// Per-request format dispatch (the paper's Fig. 3 axis turned into a
/// serving decision) over [`format_cells`]: each fixed row pins every
/// request to one palette format; the `adaptive` row lets the cost model
/// pick the `(engine, format)` pair with the smallest predicted
/// completion per request. Columns report p50 / p99 end-to-end latency,
/// makespan, warm-hit rate, and the dispatcher's mean relative
/// prediction error — the "does adaptive beat the best single format?"
/// view.
fn format_grid(s: &QueueingSetup, engines: usize, load: f64) -> Grid {
    let cells = format_cells(&s.cfg, engines, load);
    let (_, widest) = cells.last().expect("a sweep has cells");
    let prepared = prepare_for(&s.ctx, &s.stream, &AccelModel::sgcn(), &s.hw, widest);
    s.render(
        format!(
            "Queueing: serving-format policy on the mixed lineup on {} (cost-aware, bursty, load {load:.2}, {} requests, {engines} engines)",
            s.id.abbrev(),
            s.stream.len()
        ),
        &["p50e(kc)", "p99e(kc)", "mksp(kc)", "warm%", "err%"],
        &prepared,
        cells,
    )
}

/// Failure drills: fault intensity × scheduler policy × retry budget
/// under bursty traffic, with elastic autoscaling holding a floor of
/// half the fleet. Rows are `fault / policy rN`; columns report the
/// completion and failure rates, fleet availability, p99 end-to-end
/// latency over completed requests, and the warm-cache hit rate — how
/// gracefully the fleet degrades when engines crash, and what the retry
/// budget buys back.
fn failure_grid(s: &QueueingSetup, engines: usize, load: f64) -> Grid {
    let faults = [
        ("none", FailureModel::None),
        (
            "mtbf",
            FailureModel::Mtbf {
                mtbf_services: 12.0,
                mttr_services: 4.0,
                incidents_per_engine: 2,
            },
        ),
        (
            "harsh",
            FailureModel::Mtbf {
                mtbf_services: 8.0,
                mttr_services: 4.0,
                incidents_per_engine: 3,
            },
        ),
    ];
    let policies = [SchedPolicy::FifoRoundRobin, SchedPolicy::CacheAffinity];
    let retries = [RetryPolicy::new(1, 0), RetryPolicy::new(3, 0)];
    let floor = (engines / 2).max(1);
    let mut cells = Vec::new();
    for (name, fault) in &faults {
        for policy in policies {
            for retry in retries {
                cells.push((
                    format!("{name} / {} {}", policy.label(), retry.label()),
                    QueueConfig::new(engines, policy, load, s.cfg.seed)
                        .with_traffic(TrafficModel::bursty_default())
                        .with_faults(fault.clone())
                        .with_retry(retry)
                        .with_autoscale(ScalePolicy::with_floor(floor)),
                ));
            }
        }
    }
    s.render(
        format!(
            "Queueing: failure drills on {} (bursty, autoscale floor {floor}, load {load:.2}, {} requests, {engines} engines)",
            s.id.abbrev(),
            s.stream.len()
        ),
        &["done%", "fail%", "avail%", "p99e(kc)", "warm%"],
        &s.prepared,
        cells,
    )
}

/// The drills-on overload shared by the suite's deadline-class grid and
/// `queue_sim`'s `BENCH_capacity.json` plan: cost-aware adaptive
/// dispatch on the mixed lineup under bursty traffic at ρ ≥ 1.2 with
/// MTBF faults and the default retry budget. The arrival timeline is
/// recorded once at the base fleet and replayed into every cell, so a
/// larger fleet actually drains the same offered traffic instead of
/// seeing it re-normalized to its own capacity.
pub struct CapacityScenario {
    rho: f64,
    seed: u64,
    hw: HwConfig,
    prepared: Vec<PreparedRequest>,
    trace: ArrivalTrace,
}

impl CapacityScenario {
    /// The interactive-class mixes both callers sweep; the base-fleet
    /// timeline is recorded under the first.
    pub const MIXES: [f64; 2] = [0.3, 0.6];

    /// Prepares `stream` once for every capacity cell — per-class,
    /// full-palette and lite (brownout) reports on the mixed lineup,
    /// whose hardware classes are engine-count independent — and
    /// records the offered timeline at the base fleet of `engines`
    /// engines. Capacity is an overload question: ρ is `load` raised to
    /// at least 1.2 so the protection mechanisms (shed, preempt,
    /// brownout) actually bite.
    pub fn new(
        cfg: &ExperimentConfig,
        ctx: &ServingContext,
        stream: &[Request],
        engines: usize,
        load: f64,
    ) -> Self {
        let (rho, hw) = (load.max(1.2), cfg.hw());
        let prepared = prepare_degraded(
            ctx,
            stream,
            &AccelModel::sgcn(),
            &EngineLineup::mixed(engines.max(2), hw),
            &ServeFormat::PALETTE,
        );
        let base = capacity_base(engines, rho, cfg.seed, hw)
            .with_classes(ClassPolicy::mix(Self::MIXES[0]));
        let trace = simulate_queue(&prepared, &base, &hw, feature_row_bytes(ctx)).arrival_trace();
        CapacityScenario {
            rho,
            seed: cfg.seed,
            hw,
            prepared,
            trace,
        }
    }

    /// The prepared stream every cell replays.
    pub fn prepared(&self) -> &[PreparedRequest] {
        &self.prepared
    }

    /// The offered load every cell runs at.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// An unprotected `e`-engine cell on the recorded timeline: class
    /// deadlines only, no preemption, no brownout.
    pub fn plain(&self, e: usize, mix: f64) -> QueueConfig {
        capacity_base(e, self.rho, self.seed, self.hw)
            .with_trace(self.trace.clone())
            .with_classes(ClassPolicy::mix(mix))
    }

    /// A guarded `e`-engine cell on the recorded timeline: class
    /// deadlines with preemption plus the brownout ladder.
    pub fn guarded(&self, e: usize, mix: f64) -> QueueConfig {
        capacity_base(e, self.rho, self.seed, self.hw)
            .with_trace(self.trace.clone())
            .with_classes(ClassPolicy::mix(mix).with_preemption())
            .with_degrade(DegradePolicy::default())
    }
}

/// The drills-on base configuration of an `e`-engine capacity fleet.
fn capacity_base(e: usize, rho: f64, seed: u64, hw: HwConfig) -> QueueConfig {
    QueueConfig::new(e, SchedPolicy::CostAware, rho, seed)
        .with_traffic(TrafficModel::bursty_default())
        .with_lineup(EngineLineup::mixed(e, hw))
        .with_format(FormatPolicy::Adaptive)
        .with_faults(FailureModel::mtbf_default())
        .with_retry(RetryPolicy::default())
}

/// Deadline-class capacity over a [`CapacityScenario`]: fleet size ×
/// interactive mix. Each mix gets an unprotected baseline row at the
/// base fleet, then guarded rows across fleet sizes. Columns report the
/// interactive shed rate, per-class p99 end-to-end latency, the
/// preemption count, and the degraded-completion share.
fn class_grid(s: &QueueingSetup, engines: usize, load: f64) -> Grid {
    let scenario = CapacityScenario::new(&s.cfg, &s.ctx, &s.stream, engines, load);
    let mut cells = Vec::new();
    for mix in CapacityScenario::MIXES {
        cells.push((
            format!("mix {mix:.1} plain x{engines}"),
            scenario.plain(engines, mix),
        ));
        for e in [2usize, 4, 8] {
            cells.push((format!("mix {mix:.1} guard x{e}"), scenario.guarded(e, mix)));
        }
    }
    s.render(
        format!(
            "Queueing: deadline classes & brownout capacity on {} (cost-aware, bursty, mtbf drills, load {:.2}, {} requests)",
            s.id.abbrev(),
            scenario.rho(),
            s.stream.len()
        ),
        &["ishd%", "ip99(kc)", "bp99(kc)", "pre", "deg%"],
        scenario.prepared(),
        cells,
    )
}

/// The sharded-store cells shared by the suite's shard grid and
/// `queue_sim`'s `BENCH_shard.json` sweep: every shard count × hub
/// replication plan over `graph`, each under shard-oblivious
/// (`least-loaded`) then shard-locality (`shard-affinity`) routing,
/// bursty traffic. Rows are `<shards>sh <hubs>hub / <policy>`. A shard
/// plan changes routing and the network bill, not the work, so one
/// native preparation (the last cell's) serves every cell.
pub fn shard_cells(
    cfg: &ExperimentConfig,
    graph: &sgcn_graph::csr::CsrGraph,
    engines: usize,
    load: f64,
    shard_counts: &[usize],
    hub_counts: &[usize],
) -> Vec<QueueCell> {
    let mut cells = Vec::new();
    for &sh in shard_counts {
        for &hubs in hub_counts {
            let plan = ShardPlan::from_graph(graph, sh, hubs);
            for policy in [SchedPolicy::LeastLoaded, SchedPolicy::ShardAffinity] {
                cells.push((
                    format!("{sh}sh {hubs}hub / {}", policy.label()),
                    QueueConfig::new(engines, policy, load, cfg.seed)
                        .with_traffic(TrafficModel::bursty_default())
                        .with_sharding(plan.clone()),
                ));
            }
        }
    }
    cells
}

/// Sharded-store serving (the million-vertex scale-out axis, scaled to
/// the suite dataset) over [`shard_cells`]: columns report cross-shard
/// kilobytes and network kilocycles, the remote-row rate, p99
/// end-to-end latency and makespan — the "does locality routing pay for
/// itself?" view. The prepared stream is shard-plan independent: only
/// routing and the network bill change per cell.
fn shard_grid(s: &QueueingSetup, engines: usize, load: f64) -> Grid {
    let cells = shard_cells(
        &s.cfg,
        &s.ctx.dataset.graph,
        engines,
        load,
        &[2, 4],
        &[0, 16],
    );
    s.render(
        format!(
            "Queueing: sharded store × routing on {} (bursty, load {load:.2}, {} requests, {engines} engines)",
            s.id.abbrev(),
            s.stream.len()
        ),
        &["netKB", "netkc", "rem%", "p99e(kc)", "mksp(kc)"],
        &s.prepared,
        cells,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: [DatasetId; 2] = [DatasetId::Cora, DatasetId::PubMed];

    #[test]
    fn fig01_modern_above_traditional() {
        let g = fig01_sparsity_vs_layers(&ExperimentConfig::quick(), &[3, 10]);
        for ds in ["CR", "CS", "PM"] {
            for depth in ["L3", "L10"] {
                assert!(
                    g.get(&format!("{ds} modern"), depth)
                        > g.get(&format!("{ds} traditional"), depth) + 15.0,
                    "{ds} {depth}"
                );
            }
        }
    }

    #[test]
    fn fig02_band_is_40_to_80() {
        let g = fig02_per_layer_sparsity(&ExperimentConfig::quick());
        for row in &g.values {
            for &v in row {
                assert!((40.0..=80.0).contains(&v), "{v}");
            }
        }
    }

    #[test]
    fn fig11_sgcn_beats_baselines() {
        let g = fig11_performance(&ExperimentConfig::quick(), &SMALL);
        let sgcn = g.get("SGCN", "Geomean");
        assert!(sgcn > 1.1, "SGCN geomean {sgcn}");
        for other in ["GCNAX", "HyGCN", "AWB-GCN", "EnGN", "I-GCN"] {
            assert!(sgcn > g.get(other, "Geomean"), "SGCN vs {other}");
        }
    }

    #[test]
    fn fig12_ablation_is_monotone() {
        let g = fig12_ablation(&ExperimentConfig::quick(), &SMALL);
        let base = g.get("Baseline", "Geomean");
        let non_sliced = g.get("Non-sliced BEICSR", "Geomean");
        let beicsr = g.get("BEICSR", "Geomean");
        let sac = g.get("BEICSR+SAC", "Geomean");
        assert!((base - 1.0).abs() < 1e-9);
        assert!(non_sliced > base, "non-sliced {non_sliced}");
        // At tiny test scale the sliced/non-sliced gap can be within noise;
        // require the sliced variant not to regress materially (the full
        // paper-scale ordering is exercised by the fig12 bench harness).
        assert!(
            beicsr > non_sliced * 0.97,
            "beicsr {beicsr} vs non-sliced {non_sliced}"
        );
        assert!(sac >= beicsr * 0.95, "sac {sac} vs beicsr {beicsr}");
        assert!(sac > base, "sac {sac} vs baseline");
    }

    #[test]
    fn fig13_sgcn_saves_energy() {
        let g = fig13_energy(&ExperimentConfig::quick(), &SMALL);
        for ds in ["CR", "PM"] {
            assert!((g.get("GCNAX/total", ds) - 1.0).abs() < 1e-9);
            assert!(g.get("SGCN/total", ds) < 1.0, "{ds}");
        }
        let tdp = g.get("SGCN/total", "TDP(W)");
        assert!(tdp > 5.0 && tdp < 8.0, "TDP {tdp}");
        assert!(g.get("HyGCN/total", "TDP(W)") < tdp);
    }

    #[test]
    fn fig19_crossover_shapes() {
        let g = fig19_sparsity_sweep(&ExperimentConfig::quick(), &[10, 50, 90], DatasetId::Cora);
        // CSR loses at low/mid sparsity, approaches or beats dense at 90%.
        assert!(g.get("CSR", "10%") < 1.0);
        assert!(g.get("CSR", "90%") > g.get("CSR", "10%"));
        // SGCN wins from mid sparsity on.
        assert!(g.get("SGCN", "50%") > 1.0);
        assert!(g.get("SGCN", "90%") > 1.0);
    }

    #[test]
    fn table02_has_all_datasets() {
        let g = table02_datasets(&ExperimentConfig::quick());
        assert_eq!(g.rows.len(), 9);
        assert_eq!(g.get("RD", "Vertices"), 232_965.0);
        assert!(g.get("RD", "Scale") > 100.0);
    }

    #[test]
    fn fig14_components_sum_to_total() {
        let g = fig14_memory_breakdown(&ExperimentConfig::quick(), DatasetId::Cora);
        for accel in ["GCNAX", "HyGCN", "AWB-GCN", "EnGN", "I-GCN", "SGCN"] {
            let sum = g.get(accel, "topology")
                + g.get(accel, "feature-in")
                + g.get(accel, "feature-out")
                + g.get(accel, "partials");
            let total = g.get(accel, "total");
            // Weights are the only class not plotted; their share can be
            // sizable when the feature traffic is small (SGCN at quick
            // scale).
            assert!(sum <= total + 1e-9, "{accel}: {sum} vs {total}");
            assert!(sum > total * 0.55, "{accel}: {sum} vs {total}");
        }
        // GCNAX is the normalization basis.
        assert!((g.get("GCNAX", "total") - 1.0).abs() < 1e-9);
        // SGCN's total is the smallest.
        for other in ["GCNAX", "HyGCN", "AWB-GCN", "EnGN", "I-GCN"] {
            assert!(g.get("SGCN", "total") < g.get(other, "total"), "{other}");
        }
    }

    #[test]
    fn fig15a_speedup_stable_across_depths() {
        let g = fig15a_layer_sensitivity(&ExperimentConfig::quick(), &[3, 6]);
        for depth in ["L3", "L6"] {
            assert!((g.get("GCNAX", depth) - 1.0).abs() < 1e-9);
            assert!(g.get("SGCN", depth) > 1.0, "{depth}");
        }
    }

    #[test]
    fn fig15b_sgcn_wins_across_cache_sizes() {
        let g = fig15b_cache_sensitivity(&ExperimentConfig::quick(), &[8, 32], &SMALL);
        for cache in ["8K", "32K"] {
            assert!(g.get("SGCN", cache) > 1.0, "{cache}");
        }
    }

    #[test]
    fn fig16_variants_keep_sgcn_on_top() {
        for variant in [
            GcnVariant::GinConv { eps: 0.0 },
            GcnVariant::GraphSage { sample: 4 },
        ] {
            let g = fig16_variants(&ExperimentConfig::quick(), &SMALL, variant);
            assert!(
                g.get("SGCN", "Geomean") > 1.05,
                "{}: {}",
                variant.label(),
                g.get("SGCN", "Geomean")
            );
        }
    }

    #[test]
    fn fig17_small_slices_cost_more() {
        let g = fig17_slice_sensitivity(&ExperimentConfig::quick(), &[32, 96], &SMALL);
        for ds in ["CR", "PM"] {
            assert!((g.get("Slice 96", ds) - 1.0).abs() < 1e-9);
            assert!(
                g.get("Slice 32", ds) > 1.1,
                "{ds}: {}",
                g.get("Slice 32", ds)
            );
        }
    }

    #[test]
    fn fig18_more_engines_speed_up_to_saturation() {
        let g = fig18_scalability(&ExperimentConfig::quick(), &[1, 4], DatasetId::Cora);
        assert!((g.get("HBM2 speedup", "E1") - 1.0).abs() < 1e-9);
        assert!(g.get("HBM2 speedup", "E4") > 1.5);
        // HBM1 never beats HBM2 at the same engine count.
        for e in ["E1", "E4"] {
            assert!(
                g.get("HBM1 speedup", e) <= g.get("HBM2 speedup", e) + 1e-9,
                "{e}"
            );
        }
        // Utilization is a valid percentage.
        for row in ["HBM2 util%", "HBM1 util%"] {
            for e in ["E1", "E4"] {
                let u = g.get(row, e);
                assert!((0.0..=100.0).contains(&u), "{row} {e}: {u}");
            }
        }
    }

    #[test]
    fn fig03_beicsr_cuts_traffic_everywhere() {
        let (traffic, speedup) = fig03_format_comparison(&ExperimentConfig::quick(), &SMALL);
        for ds in ["CR", "PM"] {
            assert!((traffic.get("Dense", ds) - 1.0).abs() < 1e-9);
            assert!(traffic.get("BEICSR", ds) < 0.8, "{ds}");
            assert!(speedup.get("BEICSR", ds) > 1.0, "{ds}");
            assert!(speedup.get("Blocked Ellpack", ds) < 0.7, "{ds}");
        }
    }

    #[test]
    fn ablation_beicsr_design_penalizes_variants() {
        let g = ablation_beicsr_design(&ExperimentConfig::quick(), &SMALL);
        for ds in ["CR", "PM"] {
            assert!((g.get("Non-sliced BEICSR", ds) - 1.0).abs() < 1e-9);
            // Geometric mean over the two datasets: the variants should
            // not beat the paper's layout.
            let sep = g.get("Separate-bitmap", ds);
            let packed = g.get("Packed BEICSR", ds);
            assert!(sep > 0.95, "{ds} separate {sep}");
            assert!(packed > 0.95, "{ds} packed {packed}");
        }
    }

    #[test]
    fn ablation_sac_strip_covers_requested_heights() {
        let g = ablation_sac_strip(&ExperimentConfig::quick(), &[16, 32], &SMALL);
        assert!(g.get("strip 32", "Geomean") > 0.8);
        assert!(g.get("strip 16", "Geomean") > 0.8);
    }

    #[test]
    fn ablation_cache_policy_lru_is_reference() {
        let g = ablation_cache_policy(&ExperimentConfig::quick(), &SMALL);
        for ds in ["CR", "PM"] {
            assert!((g.get("GCNAX/LRU", ds) - 1.0).abs() < 1e-9);
            // SGCN faster than GCNAX under its Table III policy.
            assert!(g.get("SGCN/LRU", ds) < 1.0, "{ds}");
        }
    }

    #[test]
    fn serving_fanout_sweep_larger_fanouts_cost_more() {
        let g = serving_fanout_sweep(
            &ExperimentConfig::quick(),
            DatasetId::Cora,
            &[vec![4, 2], vec![12, 8]],
            24,
        );
        // Bigger neighborhoods mean more vertices and higher latency.
        assert!(g.get("fanout 12x8", "verts") > g.get("fanout 4x2", "verts"));
        assert!(g.get("fanout 12x8", "p50(kcyc)") >= g.get("fanout 4x2", "p50(kcyc)"));
        // Percentiles are ordered within a row.
        for row in ["fanout 4x2", "fanout 12x8"] {
            assert!(g.get(row, "p99(kcyc)") >= g.get(row, "p50(kcyc)"), "{row}");
            assert!(g.get(row, "krps") > 0.0, "{row}");
        }
    }

    #[test]
    fn serving_lineup_reports_all_models() {
        let g = serving_lineup(&ExperimentConfig::quick(), DatasetId::Cora, 16);
        for m in ["GCNAX", "HyGCN", "AWB-GCN", "EnGN", "I-GCN", "SGCN"] {
            assert!(g.get(m, "p50(kcyc)") > 0.0, "{m}");
            assert!(g.get(m, "krps") > 0.0, "{m}");
        }
    }

    /// The queueing grids' shared setup at unit-test scale.
    fn cora_setup() -> QueueingSetup {
        QueueingSetup::new(&ExperimentConfig::quick(), DatasetId::Cora, 30)
    }

    #[test]
    fn policy_grid_affinity_wins_warm_reuse() {
        let g = policy_grid(&cora_setup(), 3, &[0.5, 0.9]);
        for load in ["@0.50", "@0.90"] {
            let aff = g.get(&format!("cache-affinity {load}"), "warm%");
            let fifo = g.get(&format!("fifo-rr {load}"), "warm%");
            assert!(aff >= fifo, "{load}: affinity {aff} < fifo {fifo}");
            for policy in ["fifo-rr", "least-loaded", "cache-affinity"] {
                let row = format!("{policy} {load}");
                let util = g.get(&row, "util%");
                assert!((0.0..=100.0).contains(&util), "{row}: util {util}");
                assert!(g.get(&row, "p99e(kc)") > 0.0, "{row}");
            }
        }
        // Heavier offered load cannot shrink queueing delay (same policy).
        assert!(g.get("least-loaded @0.90", "p50w(kc)") >= g.get("least-loaded @0.50", "p50w(kc)"));
    }

    #[test]
    fn engine_grid_more_engines_cut_makespan() {
        let g = engine_grid(&cora_setup(), &[1, 4], 0.8);
        assert!(g.get("E4", "mksp(kc)") <= g.get("E1", "mksp(kc)"));
        for e in ["E1", "E4"] {
            let util = g.get(e, "util%");
            assert!((0.0..=100.0).contains(&util), "{e}: {util}");
            assert!(g.get(e, "p50e(kc)") > 0.0, "{e}");
            assert!(g.get(e, "p99e(kc)") >= g.get(e, "p50e(kc)"), "{e}");
        }
    }

    #[test]
    fn traffic_grid_sheds_under_pressure_and_stays_sane() {
        use crate::serving::queueing::SchedPolicy;
        let g = traffic_grid(&cora_setup(), 2, 0.9);
        let traffics = ["exponential", "bursty", "diurnal", "closed:4"];
        let mut total_shed = 0.0;
        for t in traffics {
            for p in SchedPolicy::ALL {
                let row = format!("{t} / {}", p.label());
                let shed = g.get(&row, "shed%");
                let viol = g.get(&row, "viol%");
                assert!((0.0..=100.0).contains(&shed), "{row}: shed {shed}");
                assert!((0.0..=100.0).contains(&viol), "{row}: viol {viol}");
                assert!(g.get(&row, "warm%") >= 0.0, "{row}");
                total_shed += shed;
            }
        }
        // At 0.9ρ with a 3-mean-service deadline, *somewhere* in the
        // sweep admission control fires (bursts at minimum).
        assert!(total_shed > 0.0, "no cell shed anything");
    }

    #[test]
    fn fleet_grid_orders_fleets_sensibly() {
        let g = fleet_grid(&cora_setup(), 4, 0.8);
        for row in ["uniform", "uniform+steal", "mixed", "mixed+steal"] {
            let util = g.get(row, "util%");
            assert!((0.0..=100.0).contains(&util), "{row}: util {util}");
            assert!(g.get(row, "p99e(kc)") >= g.get(row, "p50e(kc)"), "{row}");
            assert!(g.get(row, "mksp(kc)") > 0.0, "{row}");
        }
        // A slow engine class cannot shrink the makespan, and stealing
        // cannot grow it.
        assert!(g.get("mixed", "mksp(kc)") >= g.get("uniform", "mksp(kc)") * 0.999);
        assert!(g.get("mixed+steal", "mksp(kc)") <= g.get("mixed", "mksp(kc)") * 1.001);
    }

    #[test]
    fn failure_grid_degrades_gracefully() {
        let g = failure_grid(&cora_setup(), 4, 0.8);
        for fault in ["none", "mtbf", "harsh"] {
            for cell in [
                "fifo-rr r1",
                "fifo-rr r3",
                "cache-affinity r1",
                "cache-affinity r3",
            ] {
                let row = format!("{fault} / {cell}");
                let done = g.get(&row, "done%");
                let fail = g.get(&row, "fail%");
                let avail = g.get(&row, "avail%");
                assert!((0.0..=100.0).contains(&done), "{row}: done {done}");
                assert!((0.0..=100.0).contains(&fail), "{row}: fail {fail}");
                assert!((0.0..=100.0).contains(&avail), "{row}: avail {avail}");
                assert!(g.get(&row, "warm%") >= 0.0, "{row}");
                if fault == "none" {
                    assert_eq!(fail, 0.0, "{row}: failures without faults");
                }
            }
        }
        // Drills actually bite: the harsh MTBF cells lose availability
        // relative to the fault-free ones.
        assert!(
            g.get("harsh / fifo-rr r3", "avail%") < g.get("none / fifo-rr r3", "avail%"),
            "harsh drill did not dent availability"
        );
        // A bigger retry budget never completes fewer requests.
        for fault in ["mtbf", "harsh"] {
            for policy in ["fifo-rr", "cache-affinity"] {
                assert!(
                    g.get(&format!("{fault} / {policy} r3"), "done%")
                        >= g.get(&format!("{fault} / {policy} r1"), "done%"),
                    "{fault}/{policy}: retries lost work"
                );
            }
        }
    }

    #[test]
    fn lineup_grid_prices_each_lineup_on_every_row() {
        let g = lineup_grid(&cora_setup(), 4, 0.8);
        assert_eq!(g.rows.len(), 6);
        for row in &g.rows {
            // ref engines cost 1.0, eco engines 0.45: 4 × ref vs 2 + 2.
            let want = if row.starts_with("lineup-uniform / ") {
                4.0
            } else {
                assert!(row.starts_with("lineup-mixed / "), "{row}");
                2.9
            };
            let cost = g.get(row, "cost");
            assert!((cost - want).abs() < 1e-9, "{row}: cost {cost}");
        }
    }

    #[test]
    fn format_grid_has_one_row_per_palette_format_plus_adaptive() {
        use crate::serving::queueing::{FormatPolicy, ServeFormat};
        let g = format_grid(&cora_setup(), 4, 0.8);
        let want: Vec<String> = ServeFormat::PALETTE
            .iter()
            .map(|&f| FormatPolicy::Fixed(f).label())
            .chain(std::iter::once(FormatPolicy::Adaptive.label()))
            .collect();
        assert_eq!(g.rows, want);
    }

    #[test]
    fn class_grid_plain_rows_never_preempt_or_degrade() {
        let g = class_grid(&cora_setup(), 4, 0.8);
        let plain: Vec<&String> = g.rows.iter().filter(|r| r.contains(" plain ")).collect();
        assert_eq!(plain.len(), CapacityScenario::MIXES.len());
        for row in plain {
            assert_eq!(g.get(row, "pre"), 0.0, "{row}");
            assert_eq!(g.get(row, "deg%"), 0.0, "{row}");
        }
    }

    #[test]
    fn queueing_grid_percentages_stay_in_range() {
        let grids = queueing_grids(
            &ExperimentConfig::quick(),
            DatasetId::Cora,
            4,
            &[0.5, 0.9],
            &[1, 4],
            0.8,
            30,
        );
        assert_eq!(grids.len(), 9);
        for g in &grids {
            for col in g.cols.iter().filter(|c| c.ends_with('%')) {
                for row in &g.rows {
                    let v = g.get(row, col);
                    assert!((0.0..=100.0).contains(&v), "{}: {row} {col} {v}", g.title);
                }
            }
        }
    }

    #[test]
    fn grid_display_renders() {
        let mut g = Grid::new("t", vec!["a".into()], vec!["r".into()]);
        g.set("r", "a", 1.5);
        let s = g.to_string();
        assert!(s.contains("1.500"));
        assert!(s.contains("## t"));
    }
}
