//! The SGCN paper's evaluation as one table, [`FIGURES`], and the shared
//! scaffolding of the harness binaries.
//!
//! Each [`Figure`] regenerates one table or figure of the paper's
//! evaluation (or one beyond-the-paper serving study). `sgcn_fig <id>`
//! renders one entry and `sgcn_fig all` renders [`run_suite`], the fold
//! over the whole table that the golden suite pins. Set `SGCN_QUICK=1`
//! to run on the fast test-scale configuration instead of the
//! paper-scale one.

use sgcn::accel::{AccelModel, FeatureStorage, PhaseOrder, TilingPolicy};
use sgcn::experiments::{self as exp, ExperimentConfig, Grid};
use sgcn::serving::{Request, ServingConfig, ServingContext};
use sgcn_graph::builder::Normalization;
use sgcn_graph::datasets::{Dataset, DatasetId};
use sgcn_graph::sampling::Fanouts;
use sgcn_model::GcnVariant;

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

/// The knobs every binary reads: the problem scale and the worker count.
const GLOBAL_KNOBS: &[&str] = &["SGCN_QUICK", "SGCN_THREADS"];

/// The `SGCN_*` names among `vars` that neither `reads` nor
/// [`GLOBAL_KNOBS`] lists, sorted.
fn unread_knobs(vars: impl IntoIterator<Item = String>, reads: &[&str]) -> Vec<String> {
    let mut unread: Vec<String> = vars
        .into_iter()
        .filter(|k| k.starts_with("SGCN_"))
        .filter(|k| !reads.contains(&k.as_str()) && !GLOBAL_KNOBS.contains(&k.as_str()))
        .collect();
    unread.sort();
    unread
}

/// The `SGCN_*` knobs one harness run reads. Every read goes through
/// it, so the mode's read list is exactly what its parser reads, and
/// [`Knobs::reject_unread`] can abort on any other set variable.
#[derive(Default)]
pub struct Knobs {
    read: Vec<&'static str>,
}

impl Knobs {
    /// The raw value of `key`, if set.
    pub fn var(&mut self, key: &'static str) -> Option<String> {
        self.read.push(key);
        std::env::var(key).ok()
    }

    /// Reads a numeric knob: unset means `default`; a set value that
    /// does not parse as `T` aborts with the key, the raw value and the
    /// expected type — never a silent fallback to the default.
    pub fn number<T: std::str::FromStr>(&mut self, key: &'static str, default: T) -> T {
        self.var(key).map_or(default, |v| {
            v.trim().parse().unwrap_or_else(|_| {
                panic!(
                    "{key}={v:?} is not a valid value — expected a {}",
                    std::any::type_name::<T>()
                )
            })
        })
    }

    /// Reads an enum-valued knob: unset means `default`, and a value
    /// `parse` rejects aborts with the `valid` spellings.
    pub fn choice<T>(
        &mut self,
        key: &'static str,
        valid: &str,
        default: T,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> T {
        self.var(key).map_or(default, |v| {
            parse(&v).unwrap_or_else(|| panic!("unknown {key} {v:?} — valid values: {valid}"))
        })
    }

    /// Aborts when a set `SGCN_*` variable is neither read so far nor
    /// global. A typo, a retired spelling or another mode's knob would
    /// otherwise silently re-run the default scenario.
    pub fn reject_unread(&self, mode: &str) {
        let unread = unread_knobs(std::env::vars().map(|(k, _)| k), &self.read);
        assert!(
            unread.is_empty(),
            "{} set but not read by {mode} — a typo, a retired spelling or another mode's knob \
             (docs/KNOBS.md); {mode} reads {}",
            unread.join(", "),
            self.read.join(", ")
        );
    }
}

/// The PubMed serving context both serving harnesses use, its
/// request stream (`hotspot` hot seeds; uniform when `hotspot` is 0),
/// and the `dataset fanout … SGCN` label prefix of every JSON it writes.
pub fn serving(
    cfg: &ExperimentConfig,
    requests: usize,
    hotspot: usize,
) -> (ServingContext, Vec<Request>, String) {
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
    let stream = if hotspot == 0 {
        ctx.request_stream(requests)
    } else {
        ctx.hotspot_stream(requests, hotspot)
    };
    (ctx, stream, label)
}

/// The evaluation datasets: all nine in the paper's order, or CR/PM/GH
/// in quick mode.
pub fn selected_datasets() -> Vec<DatasetId> {
    if quick_mode() {
        vec![DatasetId::Cora, DatasetId::PubMed, DatasetId::Github]
    } else {
        DatasetId::ALL.to_vec()
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

/// One table or figure of the evaluation.
pub struct Figure {
    /// The name `sgcn_fig` selects the entry by.
    pub id: &'static str,
    /// The banner title `sgcn_fig <id>` prints.
    pub title: &'static str,
    /// The expected shape, printed after the rendered grids.
    pub note: &'static str,
    /// Renders the entry's grids for `(config, datasets, quick)`. The
    /// quick and paper-scale parameters live inside the runner.
    pub run: fn(&ExperimentConfig, &[DatasetId], bool) -> String,
}

/// Every table and figure of the evaluation, in suite order.
pub static FIGURES: &[Figure] = &[
    Figure {
        id: "table01",
        title: "Table I: accelerator comparison",
        note: "Paper Table I additionally notes target depths (all baselines 1–3\n\
               layers, SGCN >5) and residual support (SGCN only).",
        run: |_, _, _| table01_accelerators(),
    },
    Figure {
        id: "fig01",
        title: "Fig 1: sparsity vs #layers",
        note: "Paper shape: traditional GCNs stay ≤30% sparsity at any depth; residual\n\
               GCNs jump above 50% as soon as the residual connection is added and rise\n\
               with depth toward ~70%.",
        run: |cfg, _, quick| {
            let depths: &[usize] = if quick {
                &[1, 3, 5, 10]
            } else {
                &[1, 3, 5, 10, 28, 56, 112]
            };
            render([exp::fig01_sparsity_vs_layers(cfg, depths)])
        },
    },
    Figure {
        id: "fig02",
        title: "Fig 2: sparsity profiles",
        note: "Paper shape: adding the residual connection lifts sparsity above 50%\n\
               even at 3 layers; per-layer sparsity sits in the 40–80% band and rises\n\
               toward the output layer.",
        run: |cfg, _, _| render([fig02a_sparsity(cfg), exp::fig02_per_layer_sparsity(cfg)]),
    },
    Figure {
        id: "fig03",
        title: "Fig 3: format comparison",
        note: "Paper shape: CSR/COO *increase* traffic at 40–70% sparsity (index\n\
               overhead ≥ payload saving); blocked formats pay for non-empty blocks;\n\
               only BEICSR converts the sparsity into a traffic reduction, and SAC\n\
               adds on top.",
        run: |cfg, datasets, _| {
            let (traffic, speedup) = exp::fig03_format_comparison(cfg, datasets);
            render([traffic, speedup])
        },
    },
    Figure {
        id: "table02",
        title: "Table II: datasets",
        note: "Full-scale columns come from the paper's Table II; SynthV/SynthE are\n\
               the scaled synthetic graphs (see docs/ARCHITECTURE.md, Substitutions)\n\
               and Scale is the vertex scale factor.",
        run: |cfg, _, _| render([exp::table02_datasets(cfg)]),
    },
    Figure {
        id: "table03",
        title: "Table III: system configuration",
        note: "",
        run: |cfg, _, _| table03_config(cfg),
    },
    Figure {
        id: "fig11",
        title: "Fig 11: accelerator performance",
        note: "Paper shape: SGCN wins on every dataset — 1.66× over GCNAX, ~2.7× over\n\
               HyGCN in geometric mean; all baselines sit at or below the GCNAX line.",
        run: |cfg, datasets, _| render([exp::fig11_performance(cfg, datasets)]),
    },
    Figure {
        id: "fig12",
        title: "Fig 12: ablation study",
        note: "Paper shape: non-sliced BEICSR ≈ +21%, sliced BEICSR ≈ +39%, adding SAC\n\
               reaches 1.66× geomean; SAC gains most on clustered graphs (DB, PM, RD).",
        run: |cfg, datasets, _| render([exp::fig12_ablation(cfg, datasets)]),
    },
    Figure {
        id: "fig13",
        title: "Fig 13: energy",
        note: "Paper shape: SGCN consumes ~44% less energy than GCNAX (DRAM component\n\
               dominates and shrinks with the traffic); TDP ordering HyGCN < SGCN <\n\
               AWB-GCN < GCNAX (5.94 / 6.74 / 7.03 / 7.16 W).",
        run: |cfg, datasets, _| render([exp::fig13_energy(cfg, datasets)]),
    },
    Figure {
        id: "fig14",
        title: "Fig 14: memory access breakdown (Reddit)",
        note: "Paper shape: HyGCN is dominated by duplicate feature reads; AWB-GCN by\n\
               partial-sum spills; GCNAX/I-GCN are balanced; SGCN cuts feature traffic\n\
               by ~54% via the sparse representation.",
        run: |cfg, _, _| render([exp::fig14_memory_breakdown(cfg, DatasetId::Reddit)]),
    },
    Figure {
        id: "fig15",
        title: "Fig 15: depth and cache sensitivity",
        note: "Paper shape: the speedup holds across depths (sparsity is depth-stable)\n\
               and across cache sizes; SAC's margin narrows at very small caches and\n\
               the gap persists at large ones until everything fits.",
        run: |cfg, datasets, quick| {
            let depths: &[usize] = if quick { &[4, 8] } else { &[7, 14, 28, 56] };
            // The cache sweep scales with the scaled-down graphs: the paper
            // sweeps 256K..4M around its 512K default; this sweeps the same
            // ×0.5..×8 ratios around the scaled default.
            let base = cfg.cache_kib;
            let caches = [base / 2, base, base * 2, base * 4, base * 8];
            render([
                exp::fig15a_layer_sensitivity(cfg, depths),
                exp::fig15b_cache_sensitivity(cfg, &caches, &subset(datasets, quick)),
            ])
        },
    },
    Figure {
        id: "fig16",
        title: "Fig 16: GCN variants",
        note: "Paper shape: GINConv (no edge weights → feature traffic dominates more)\n\
               slightly raises SGCN's edge to 1.69×; GraphSAGE's edge sampling shrinks\n\
               aggregation and softens it to 1.53×, still a clear win.",
        run: |cfg, datasets, _| {
            render([
                exp::fig16_variants(cfg, datasets, GcnVariant::GinConv { eps: 0.0 }),
                exp::fig16_variants(cfg, datasets, GcnVariant::GraphSage { sample: 8 }),
            ])
        },
    },
    Figure {
        id: "fig17",
        title: "Fig 17: slice-size sensitivity",
        note: "Paper shape: performance is flat within C = 32..256 with the best point\n\
               around C = 96; bad choices still beat the dense baseline.",
        run: |cfg, datasets, _| {
            render([exp::fig17_slice_sensitivity(
                cfg,
                &[32, 64, 96, 128, 256],
                datasets,
            )])
        },
    },
    Figure {
        id: "fig18",
        title: "Fig 18: scalability",
        note: "Paper shape: near-linear scaling to ~8 engines, saturating around 16 as\n\
               the memory module's bandwidth limit is reached; HBM1 saturates earlier\n\
               and at roughly half the speedup.",
        run: |cfg, _, _| {
            render([exp::fig18_scalability(
                cfg,
                &[1, 2, 4, 8, 16, 32],
                DatasetId::Reddit,
            )])
        },
    },
    Figure {
        id: "fig19",
        title: "Fig 19: sparsity sweep",
        note: "Paper shape: Dense wins only below ~5% sparsity; SGCN wins essentially\n\
               everywhere above; CSR breaks even only beyond ~90% where its column\n\
               indices finally undercut the bitmap.",
        run: |cfg, _, quick| {
            let pts: Vec<u32> = if quick {
                vec![10, 50, 90]
            } else {
                (1..=19).map(|i| i * 5).collect()
            };
            render([exp::fig19_sparsity_sweep(cfg, &pts, DatasetId::PubMed)])
        },
    },
    Figure {
        id: "ablation_beicsr",
        title: "Ablation: BEICSR design choices",
        note: "Expected shape: moving the bitmap to a separate array or packing rows\n\
               variable-length both increase DRAM traffic relative to the paper's\n\
               embedded in-place layout (rows ≥ 1.0).",
        run: |cfg, datasets, quick| {
            render([exp::ablation_beicsr_design(cfg, &subset(datasets, quick))])
        },
    },
    Figure {
        id: "ablation_sac",
        title: "Ablation: SAC strip height",
        note: "Expected shape: a broad plateau around the paper's strip height of 32;\n\
               very tall strips degenerate toward the conventional split.",
        run: |cfg, datasets, quick| {
            render([exp::ablation_sac_strip(
                cfg,
                &[8, 16, 32, 64, 128],
                &subset(datasets, quick),
            )])
        },
    },
    Figure {
        id: "ablation_cache",
        title: "Ablation: cache replacement policy",
        note: "Expected shape: LRU (Table III) is competitive; BIP narrows the gap in\n\
               thrash-heavy configurations (the pathology SAC addresses at the\n\
               scheduling level instead).",
        run: |cfg, datasets, quick| {
            render([exp::ablation_cache_policy(cfg, &subset(datasets, quick))])
        },
    },
    Figure {
        id: "serving",
        title: "Serving: sampled-subgraph requests",
        note: "Beyond the paper: per-request sampled-subgraph replay on a small\n\
               stream; serve_sim is the full-stream harness.",
        run: |cfg, _, quick| {
            let requests = if quick { 48 } else { 256 };
            let fanouts = [vec![5, 3], vec![10, 5], vec![15, 10]];
            let pm = DatasetId::PubMed;
            render([
                exp::serving_fanout_sweep(cfg, pm, &fanouts, requests),
                exp::serving_lineup(cfg, pm, requests),
                exp::serving_batch_sweep(cfg, pm, &[1, 4, 16, 64], requests),
            ])
        },
    },
    Figure {
        id: "queueing",
        title: "Queueing: online serving with multi-engine co-scheduling",
        note: "Beyond the paper: the sampled-request serving path behind live\n\
               traffic, nine grids over one prepared stream; queue_sim is the\n\
               full-stream harness.",
        run: |cfg, _, quick| {
            // All nine grids share one prepared stream: the preparation is
            // traffic, policy, load and fleet independent.
            let requests = if quick { 36 } else { 192 };
            render(exp::queueing_grids(
                cfg,
                DatasetId::PubMed,
                4,
                &[0.5, 0.9],
                &[1, 2, 4, 8],
                0.8,
                requests,
            ))
        },
    },
];

/// The usage line of `sgcn_fig`, naming every valid id.
pub fn usage() -> String {
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    format!("usage: sgcn_fig <id|all>, id one of: {}", ids.join(", "))
}

/// The [`FIGURES`] entry named `id`; the error names every valid id.
pub fn figure(id: &str) -> Result<&'static Figure, String> {
    FIGURES
        .iter()
        .find(|f| f.id == id)
        .ok_or_else(|| format!("unknown figure id {id:?}\n{}", usage()))
}

/// Renders every table and figure of the evaluation into one string —
/// the body of `sgcn_fig all` and of the golden suite. The output is
/// deterministic: bit-identical across thread counts and driver
/// memoization.
pub fn run_suite(cfg: &ExperimentConfig, datasets: &[DatasetId], quick: bool) -> String {
    FIGURES
        .iter()
        .map(|f| (f.run)(cfg, datasets, quick))
        .collect()
}

/// Each grid followed by a blank line.
fn render(grids: impl IntoIterator<Item = Grid>) -> String {
    grids.into_iter().map(|g| format!("{g}\n")).collect()
}

/// The datasets of the costlier sweeps: all selected ones in quick mode,
/// a representative CR/PM/GH subset at paper scale to bound runtime.
fn subset(datasets: &[DatasetId], quick: bool) -> Vec<DatasetId> {
    if quick {
        datasets.to_vec()
    } else {
        vec![DatasetId::Cora, DatasetId::PubMed, DatasetId::Github]
    }
}

/// Table I: the qualitative design choices of the Fig. 11 lineup.
fn table01_accelerators() -> String {
    let mut out = String::from("## Table I: accelerator comparison\n");
    out += &format!(
        "{:<12} {:>20} {:>12} {:>12} {:>10} {:>8}\n",
        "Accelerator", "Compressed feature?", "Order", "Tiling", "Reorder", "SAC"
    );
    for m in AccelModel::fig11_lineup() {
        let feat = match m.storage {
            FeatureStorage::Dense => "no (dense)",
            FeatureStorage::Beicsr(_) => "BEICSR",
        };
        let order = match m.order {
            PhaseOrder::AggFirst => "Aggr. first",
            PhaseOrder::CombFirst => "Comb. first",
        };
        let tiling = match m.tiling {
            TilingPolicy::None => "none",
            TilingPolicy::CacheSized { .. } => "cache-sized",
        };
        out += &format!(
            "{:<12} {:>20} {:>12} {:>12} {:>10} {:>8}\n",
            m.name,
            feat,
            order,
            tiling,
            format!("{:?}", m.reorder),
            if m.sac { "yes" } else { "no" },
        );
    }
    out + "\n"
}

/// Fig. 2a: traditional (3/5-layer) vs modern (3/5/28-layer residual)
/// average sparsity on every dataset.
fn fig02a_sparsity(cfg: &ExperimentConfig) -> Grid {
    let cols = ["trad3", "trad5", "mod3", "mod5", "mod28"].map(String::from);
    let rows = DatasetId::ALL.iter().map(|d| d.abbrev().to_string());
    let mut grid = Grid::new(
        "Fig 2a: avg sparsity (%), traditional vs residual",
        cols.to_vec(),
        rows.collect(),
    );
    for id in DatasetId::ALL {
        let ds = Dataset::synthesize(id, cfg.scale, Normalization::Symmetric);
        let avg = |l: usize, modern: bool| -> f64 {
            (0..l)
                .map(|i| {
                    if modern {
                        ds.intermediate_sparsity(i, l)
                    } else {
                        ds.traditional_sparsity(i, l)
                    }
                })
                .sum::<f64>()
                / l as f64
                * 100.0
        };
        grid.set(id.abbrev(), "trad3", avg(3, false));
        grid.set(id.abbrev(), "trad5", avg(5, false));
        grid.set(id.abbrev(), "mod3", avg(3, true));
        grid.set(id.abbrev(), "mod5", avg(5, true));
        grid.set(id.abbrev(), "mod28", avg(28, true));
    }
    grid
}

/// Table III: the evaluated system configuration, with the cache
/// capacity the experiments scale it to.
fn table03_config(cfg: &ExperimentConfig) -> String {
    let hw = sgcn::config::HwConfig::default();
    let scaled = cfg.hw();
    [
        "## Table III: system configuration".to_string(),
        "Accelerator engine".to_string(),
        format!(
            "  frequency            : {} GHz",
            hw.frequency_hz as f64 / 1e9
        ),
        format!(
            "  combination          : {}× {}x{} systolic array",
            hw.combination_engines, hw.systolic.rows, hw.systolic.cols
        ),
        format!(
            "  aggregation          : {}× {}-way SIMD",
            hw.aggregation_engines, hw.simd_lanes
        ),
        "Global cache".to_string(),
        format!(
            "  capacity             : {} KB ({} KB scaled for experiments)",
            hw.cache.capacity_bytes / 1024,
            scaled.cache.capacity_bytes / 1024
        ),
        format!("  ways                 : {}", hw.cache.ways),
        "  replacement          : LRU".to_string(),
        "Off-chip memory".to_string(),
        "  spec                 : HBM2".to_string(),
        format!(
            "  peak bandwidth       : {} GB/s ({}% achievable)",
            hw.dram.peak_bytes_per_cycle as u64,
            (hw.dram.efficiency * 100.0) as u64
        ),
        format!("  channels             : {}", hw.dram.channels),
        format!(
            "  banks                : {} per channel (4×4)",
            hw.dram.banks_per_channel
        ),
    ]
    .join("\n")
        + "\n\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unread_knobs_names_set_sgcn_vars_outside_the_read_list() {
        let set = [
            "SGCN_POLICY",
            "SGCN_REQUESTS",
            "SGCN_THREADS",
            "HOME",
            "SGCN_LOAD",
        ];
        assert_eq!(
            unread_knobs(set.map(String::from), &["SGCN_REQUESTS"]),
            ["SGCN_LOAD", "SGCN_POLICY"],
            "global knobs and non-SGCN variables always pass"
        );
        assert!(unread_knobs(
            set.map(String::from),
            &["SGCN_POLICY", "SGCN_REQUESTS", "SGCN_LOAD"]
        )
        .is_empty());
    }

    #[test]
    fn figure_ids_are_unique() {
        let mut ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), FIGURES.len(), "duplicate id in FIGURES");
    }

    #[test]
    fn every_id_resolves_to_its_entry() {
        for f in FIGURES {
            let found = figure(f.id).unwrap_or_else(|e| panic!("{e}"));
            assert!(std::ptr::eq(found, f), "{} resolved to {}", f.id, found.id);
        }
    }

    #[test]
    fn unknown_id_error_names_every_valid_id() {
        let err = figure("bogus").err().expect("bogus is not a figure id");
        assert!(err.contains("\"bogus\""), "{err}");
        for f in FIGURES {
            assert!(err.contains(f.id), "{err} does not name {}", f.id);
        }
        assert!(usage().contains("fig11"));
    }
}
