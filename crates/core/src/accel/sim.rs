//! The shared dataflow simulator.
//!
//! Executes an [`AccelModel`] over a [`Workload`] on the common substrate:
//! every feature access the dataflow implies is materialized as byte spans
//! (via the storage format) and driven through the cache + HBM model; MAC
//! work is charged to the SIMD aggregation lanes and the systolic
//! combination arrays; aggregation and combination overlap through a
//! two-stage pipeline across destination tiles; each layer's latency is
//! the maximum of its pipelined compute time and its DRAM service time
//! (the paper's aggregation phase is "extremely memory intensive", §IV).
//!
//! # Steady-state layer replay
//!
//! From layer 3 on, every dense design (GCNAX, HyGCN, AWB-GCN, EnGN,
//! I-GCN) makes the same global-cache ops, with the same hits, as the
//! layer two before it: the feature regions alternate by parity and
//! only the weights move. In a net of four layers or more, every layer
//! from 1 on therefore runs in a [`MemorySystem`] epoch keyed by layer
//! parity, opened right after the layer's weight read and closed when
//! the layer ends. Opening it declares the weights of layers `0..=l`
//! dead; the memory system panics if a later op touches them. An epoch
//! whose entry cache state equals its key's template, with dead tags
//! compared as anonymous, answers each cache op from the template's log
//! after checking it is the template's op; anything else falls back to
//! the cache exactly (see `MemorySystem`'s epoch memo). The weight
//! stride shrinks with depth past 64 layers (`weight_stride`), so every
//! layer's weights, and so every dead range, stay inside the weight
//! region. DRAM walks, per-class accounting, uncached reads, AWB-GCN's
//! layer-local partial-sum banks and every line of simulator logic still
//! run, so reports stay bit-identical and the `ListCache` reference, which
//! never replays, checks it. The memo does not engage on SGCN, whose
//! per-layer BEICSR streams differ (each parity's first replay diverges
//! at once and stops its recording), under BIP, whose insertion counter
//! grows with every miss, or on nets of fewer than four layers, which
//! open no epoch. Simulate cost then grows with the number of distinct
//! layers, not with depth.

use std::sync::Arc;

use sgcn_engines::{two_stage_pipeline, SystolicArray};
use sgcn_formats::{Beicsr, ColRange, CsrFeatures, DenseMatrix, FeatureFormat, LineRun};
use sgcn_graph::reorder::{islandize, top_degree_vertices};
use sgcn_graph::{CsrGraph, Tiling};
use sgcn_mem::{Cache, CacheModel, EnergyModel, MemorySystem, Traffic};

use crate::accel::{AccelModel, FeatureStorage, PhaseOrder, ReorderPolicy, TilingPolicy};
use crate::config::HwConfig;
use crate::cooperation::tile_order;
use crate::metrics::SimReport;
use crate::workload::{CachedFormat, FormatKey, Workload};

/// Region stride in the simulated physical address space: regions can
/// never collide.
const REGION: u64 = 1 << 36;
const TOPOLOGY_BASE: u64 = 0;
const FEATURE_A_BASE: u64 = REGION;
const FEATURE_B_BASE: u64 = 2 * REGION;
const WEIGHT_BASE: u64 = 3 * REGION;
const PARTIAL_BASE: u64 = 4 * REGION;
const INPUT_BASE: u64 = 5 * REGION;
const SCRATCH_BASE: u64 = 6 * REGION;

/// Distance between consecutive layers' weights in the weight region:
/// a 64th of the region for nets of up to 64 layers, and the region split
/// over the next power of two of the depth beyond that, so the last
/// layer's weights still end at or below `PARTIAL_BASE`.
fn weight_stride(layers: usize) -> u64 {
    REGION / layers.next_power_of_two().max(64) as u64
}

/// Destination-tile height (rows buffered on chip for combination).
const DST_TILE_ROWS: usize = 1024;

/// Chunk size used to pipeline the column-product path.
const COLUMN_CHUNK: usize = 256;

/// Dense bit-set over vertex ids — constant-time membership for the
/// DAVC pinned/loaded sets (`HashSet`'s per-lookup hashing dominated the
/// EnGN aggregation sweep).
struct VertexSet {
    words: Vec<u64>,
    count: usize,
}

impl VertexSet {
    fn new(vertices: usize) -> Self {
        VertexSet {
            words: vec![0; vertices.div_ceil(64)],
            count: 0,
        }
    }

    #[inline]
    fn contains(&self, v: u32) -> bool {
        (self.words[v as usize / 64] >> (v % 64)) & 1 == 1
    }

    /// Inserts `v`; returns `true` if it was newly added.
    fn insert(&mut self, v: u32) -> bool {
        let (w, b) = (v as usize / 64, v % 64);
        let fresh = (self.words[w] >> b) & 1 == 0;
        self.words[w] |= 1 << b;
        self.count += fresh as usize;
        fresh
    }

    fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// `ceil(work / lanes)` with the divide precomputed to a shift when the
/// lane count is a power of two — this runs once per (edge, slice).
/// Deliberately separate from `sgcn_mem`'s crate-private `FastDiv`: that
/// helper is floor div/rem over `u64` addresses, this is ceiling
/// division over `usize` work counts.
#[derive(Clone, Copy)]
struct LaneDiv {
    lanes: usize,
    shift: Option<u32>,
}

impl LaneDiv {
    fn new(lanes: usize) -> Self {
        LaneDiv {
            lanes,
            shift: lanes.is_power_of_two().then(|| lanes.trailing_zeros()),
        }
    }

    #[inline]
    fn div_ceil(self, work: usize) -> usize {
        match self.shift {
            Some(s) => (work + self.lanes - 1) >> s,
            None => work.div_ceil(self.lanes),
        }
    }
}

struct LayerTally {
    agg_cycles: u64,
    comb_cycles: u64,
    macs: u64,
    compute_cycles: u64,
}

/// Runs `model` on `workload` with the memory hierarchy on cache model
/// `C` (see [`AccelModel::simulate_on`]), booking the host time to the
/// simulate timer.
pub(crate) fn run<C: CacheModel>(
    model: &AccelModel,
    workload: &Workload,
    hw: &HwConfig,
    format_override: Option<sgcn_formats::FormatKind>,
) -> SimReport {
    let t0 = std::time::Instant::now();
    let report = run_untimed::<C>(model, workload, hw, format_override);
    crate::metrics::timing::add_simulate_nanos(t0.elapsed().as_nanos() as u64);
    report
}

fn run_untimed<C: CacheModel>(
    model: &AccelModel,
    workload: &Workload,
    hw: &HwConfig,
    format_override: Option<sgcn_formats::FormatKind>,
) -> SimReport {
    // I-GCN's islandization renumbers vertices before execution.
    let reordered;
    let graph: &CsrGraph = match model.reorder {
        ReorderPolicy::None => workload.graph(),
        ReorderPolicy::Islandize => {
            reordered = islandize(workload.graph()).apply(workload.graph());
            &reordered
        }
    };

    // EnGN's degree-aware vertex cache carves a fraction of the cache for
    // pinned high-degree vertices.
    let mut cache_cfg = hw.cache;
    let width = workload.network.width;
    let mut pinned = VertexSet::new(graph.num_vertices());
    if model.davc_fraction > 0.0 {
        let set_bytes = cache_cfg.ways as u64 * cache_cfg.line_bytes;
        let keep = ((cache_cfg.capacity_bytes as f64 * (1.0 - model.davc_fraction)) as u64
            / set_bytes)
            .max(1)
            * set_bytes;
        let davc_bytes = cache_cfg.capacity_bytes - keep;
        cache_cfg.capacity_bytes = keep;
        let rows = (davc_bytes / (width as u64 * 4)).max(1) as usize;
        for v in top_degree_vertices(graph, rows) {
            pinned.insert(v);
        }
    }

    let mut mem = MemorySystem::<C>::new(cache_cfg, hw.dram);
    let systolic = SystolicArray::new(hw.systolic);
    let energy_model = EnergyModel::default();

    let layers = workload.network.layers;
    let mut total_cycles = 0u64;
    let mut agg_cycles_total = 0u64;
    let mut comb_cycles_total = 0u64;
    let mut macs_total = 0u64;
    let mut davc_hits = 0u64;
    let mut mem_cycles_total = 0u64;
    let mut layer_reports = Vec::with_capacity(layers);

    // Encode each boundary matrix once up front: layer `l`'s output
    // matrix *is* layer `l + 1`'s input, and the storage encoding is a
    // pure function of (matrix, format).
    let boundary_formats: Vec<LayerFormat> = (1..=layers)
        .map(|b| boundary_format(model, workload, b, format_override))
        .collect();

    // Layers from 1 on run in memory-system epochs keyed by parity (see
    // the module doc); a net of fewer than four layers has no layer to
    // replay and opens none.
    let memo = layers >= 4;
    let stride = weight_stride(layers);
    for l in 0..layers {
        let x_in = workload.trace.layer_features(l);
        let x_out = workload.trace.layer_features(l + 1);
        let in_base = if l == 0 {
            INPUT_BASE
        } else if l % 2 == 1 {
            FEATURE_A_BASE
        } else {
            FEATURE_B_BASE
        };
        let out_base = if l % 2 == 0 {
            FEATURE_A_BASE
        } else {
            FEATURE_B_BASE
        };

        let mem_before = mem.elapsed_dram_cycles();
        // Weights stream once per layer (they fit on chip / in cache).
        let weights = WEIGHT_BASE + l as u64 * stride;
        let weight_bytes = (x_in.cols() * x_out.cols() * 4) as u64;
        assert!(
            weight_bytes <= stride,
            "layer {l}'s {weight_bytes} weight bytes overflow the {stride}-byte weight stride"
        );
        mem.read_span(weights, weight_bytes, Traffic::Weight);
        // No later op touches the weights of layers 0..=l.
        let epoch = memo && l >= 1;
        if epoch {
            mem.open_epoch(l % 2, WEIGHT_BASE..weights + stride);
        }
        let tally = simulate_layer(
            model,
            workload,
            hw,
            graph,
            &systolic,
            &mut mem,
            &pinned,
            &mut davc_hits,
            l,
            x_in,
            x_out,
            in_base,
            out_base,
            format_override,
            &boundary_formats,
        );
        if epoch {
            crate::metrics::memo::add(mem.close_epoch());
        }
        let mem_delta = mem.elapsed_dram_cycles() - mem_before;

        total_cycles += tally.compute_cycles.max(mem_delta);
        agg_cycles_total += tally.agg_cycles;
        comb_cycles_total += tally.comb_cycles;
        macs_total += tally.macs;
        mem_cycles_total += mem_delta;
        layer_reports.push(crate::metrics::LayerReport {
            layer: l,
            cycles: tally.compute_cycles.max(mem_delta),
            compute_cycles: tally.compute_cycles,
            mem_cycles: mem_delta,
            agg_cycles: tally.agg_cycles,
            comb_cycles: tally.comb_cycles,
            macs: tally.macs,
        });
    }

    let report = mem.report();
    let cache_accesses = report.cache.accesses() + davc_hits;
    let energy = energy_model.breakdown(
        macs_total,
        cache_accesses,
        report.dram_total_bytes(),
        total_cycles,
    );

    // Peak-power estimate: platform constant calibrated per accelerator to
    // the paper's synthesis numbers (see AccelModel::tdp_factor docs).
    let engines = (hw.aggregation_engines + hw.combination_engines) as f64;
    let tdp_watts = model.tdp_factor
        * (2.0 + 0.2 * engines + 0.8 * (hw.cache.capacity_bytes as f64 / (512.0 * 1024.0)) + 1.0);

    SimReport {
        accelerator: model.name,
        workload: workload.dataset.spec.abbrev,
        cycles: total_cycles,
        agg_cycles: agg_cycles_total,
        comb_cycles: comb_cycles_total,
        mem_cycles: mem_cycles_total,
        macs: macs_total,
        mem: report,
        energy,
        tdp_watts,
        layers: layer_reports.into(),
    }
}

/// Per-layer feature storage built from the trace. Encoded variants are
/// `Arc`-shared with the workload's [`crate::workload::FormatCache`]
/// (encodings are pure, so sharing is invisible in the counters).
enum LayerFormat<'a> {
    Dense(&'a DenseMatrix),
    Beicsr(Arc<Beicsr>),
    Csr(Arc<CsrFeatures>),
    /// An arbitrary baseline format for the Fig. 3 / Fig. 19 format study.
    /// The accelerator datapath is unchanged (dense compute); only the
    /// storage/traffic differs — the paper's "naïvely supporting sparse
    /// features" scenario (§II-B).
    Generic(Arc<dyn FeatureFormat + Send + Sync>),
}

impl LayerFormat<'_> {
    fn as_format(&self) -> &dyn FeatureFormat {
        match self {
            LayerFormat::Dense(m) => *m,
            LayerFormat::Beicsr(b) => b.as_ref(),
            LayerFormat::Csr(c) => c.as_ref(),
            LayerFormat::Generic(f) => f.as_ref(),
        }
    }

    /// Aggregation lane work for columns `range` of `row`: non-zeros for
    /// sparse formats (the sparse aggregator multiplies only non-zeros,
    /// §V-D), full width for dense.
    fn lane_work(&self, row: usize, range: ColRange) -> usize {
        match self {
            LayerFormat::Dense(_) | LayerFormat::Generic(_) => range.len(),
            LayerFormat::Beicsr(b) => {
                // Non-zeros inside the window only: the prefix-sum unit
                // locates the window in the packed values; slots fully
                // covered contribute their slot nnz, partially covered
                // slots are counted via bitmap rank.
                let se = b.slice_elems();
                b.slices_covering(range)
                    .map(|s| {
                        let lo = range.start.saturating_sub(s * se);
                        let bm = b.slot_bitmap(row, s);
                        let hi = (range.end - s * se).min(bm.len());
                        if lo == 0 && hi == bm.len() {
                            b.slot_nnz(row, s)
                        } else {
                            bm.rank(hi) - bm.rank(lo.min(bm.len()))
                        }
                    })
                    .sum()
            }
            LayerFormat::Csr(c) => {
                let cols = c.row_cols(row);
                let lo = cols.partition_point(|&x| (x as usize) < range.start);
                let hi = cols.partition_point(|&x| (x as usize) < range.end);
                hi - lo
            }
        }
    }
}

/// Per-slice aggregation-work plan, hoisted out of the edge loop. The
/// column window is fixed for a whole slice pass, so the slot-coverage
/// arithmetic of [`LayerFormat::lane_work`] (slice divisions, partial-
/// vs-full window classification) is resolved once per (tile, slice);
/// each edge then pays only a per-row lookup. Produces the exact values
/// `lane_work` would.
enum SlicePlan<'f> {
    /// Dense compute: every edge works the full window.
    Fixed(usize),
    /// Sliced BEICSR whose window exactly covers slots `s0..s1`: the work
    /// is the sum of the precounted slot non-zeros.
    BeicsrFull { b: &'f Beicsr, s0: usize, s1: usize },
    /// Nothing to hoist (CSR searches, partial BEICSR windows): delegate
    /// to [`LayerFormat::lane_work`] per edge, exactly as before.
    Fallback {
        fmt: &'f LayerFormat<'f>,
        range: ColRange,
    },
}

impl<'f> SlicePlan<'f> {
    fn new(fmt: &'f LayerFormat<'f>, range: ColRange) -> Self {
        match fmt {
            LayerFormat::Dense(_) | LayerFormat::Generic(_) => SlicePlan::Fixed(range.len()),
            LayerFormat::Csr(_) => SlicePlan::Fallback { fmt, range },
            LayerFormat::Beicsr(arc) => {
                let b: &'f Beicsr = arc.as_ref();
                let se = b.slice_elems();
                let slots = b.slices_covering(range);
                // Bitmap lengths are a function of the slot alone, so the
                // full-coverage test is row-independent: the window must
                // start on the first slot's boundary and reach the last
                // slot's end.
                let full = b.rows() > 0
                    && !slots.is_empty()
                    && range.start <= slots.start * se
                    && range.end
                        >= slots.end.saturating_sub(1) * se + b.slot_bitmap(0, slots.end - 1).len();
                if full {
                    SlicePlan::BeicsrFull {
                        b,
                        s0: slots.start,
                        s1: slots.end,
                    }
                } else {
                    SlicePlan::Fallback { fmt, range }
                }
            }
        }
    }

    #[inline]
    fn lane_work(&self, row: usize) -> usize {
        match self {
            SlicePlan::Fixed(w) => *w,
            SlicePlan::BeicsrFull { b, s0, s1 } => (*s0..*s1).map(|s| b.slot_nnz(row, s)).sum(),
            SlicePlan::Fallback { fmt, range } => fmt.lane_work(row, *range),
        }
    }
}

/// Encodes a trace matrix in a study format.
fn encode_kind(
    kind: sgcn_formats::FormatKind,
    m: &DenseMatrix,
) -> Arc<dyn FeatureFormat + Send + Sync> {
    use sgcn_formats::{
        BeicsrConfig, BlockedEllpack, BsrFeatures, CooFeatures, FormatKind, PackedBeicsr,
        SeparateBitmapCsr,
    };
    match kind {
        FormatKind::Dense => Arc::new(m.clone()),
        FormatKind::Csr => Arc::new(CsrFeatures::encode(m)),
        FormatKind::Coo => Arc::new(CooFeatures::encode(m)),
        FormatKind::Bsr => Arc::new(BsrFeatures::encode(m)),
        FormatKind::BlockedEllpack => Arc::new(BlockedEllpack::encode(m)),
        FormatKind::BeicsrNonSliced => Arc::new(Beicsr::encode(m, BeicsrConfig::non_sliced())),
        FormatKind::Beicsr => Arc::new(Beicsr::encode(m, BeicsrConfig::default())),
        FormatKind::SeparateBitmap => Arc::new(SeparateBitmapCsr::encode(m)),
        FormatKind::PackedBeicsr => Arc::new(PackedBeicsr::encode(m)),
    }
}

/// Runs the Fig. 3 format study: a GCNAX-class tiled accelerator whose
/// intermediate features are stored in `kind`. Compute is dense (the
/// datapath does not exploit the format); only traffic changes.
pub fn run_format_study(
    kind: sgcn_formats::FormatKind,
    workload: &Workload,
    hw: &HwConfig,
) -> SimReport {
    let mut model = AccelModel::gcnax();
    model.name = kind.label();
    run::<Cache>(&model, workload, hw, Some(kind))
}

/// Pre-encodes one boundary matrix in a study format into the workload's
/// shared [`FormatCache`], so later per-class × per-format simulations
/// (and the parallel prepare phase that runs them) hit the cache instead
/// of re-encoding. Dense borrows the trace matrix directly and never
/// needs caching; callers skip it.
pub(crate) fn precache_boundary_kind(
    workload: &Workload,
    b: usize,
    kind: sgcn_formats::FormatKind,
) {
    debug_assert!(!matches!(kind, sgcn_formats::FormatKind::Dense));
    let x = workload.trace.layer_features(b);
    workload
        .format_cache
        .get_or_build(FormatKey::Kind(b, kind), || {
            CachedFormat::Generic(encode_kind(kind, x))
        });
}

/// Builds the storage format of a boundary matrix — the matrix at trace
/// index `b`, stored as layer `b - 1`'s output and read back as layer
/// `b`'s input. A pure function of `(model storage / override, matrix)`,
/// so each boundary is encoded once and shared through the workload's
/// [`FormatCache`] across simulations (hardware sweeps revisit the same
/// boundaries under many configs).
fn boundary_format<'a>(
    model: &AccelModel,
    workload: &'a Workload,
    b: usize,
    format_override: Option<sgcn_formats::FormatKind>,
) -> LayerFormat<'a> {
    let x = workload.trace.layer_features(b);
    if let Some(kind) = format_override {
        // The Dense study format is the trace matrix itself: borrow it
        // through the native dense path (identical spans and — the study
        // computes densely for every format — identical lane work)
        // instead of boxing a clone behind dynamic dispatch.
        if matches!(kind, sgcn_formats::FormatKind::Dense) {
            return LayerFormat::Dense(x);
        }
        let cached = workload
            .format_cache
            .get_or_build(FormatKey::Kind(b, kind), || {
                CachedFormat::Generic(encode_kind(kind, x))
            });
        let CachedFormat::Generic(f) = cached else {
            unreachable!("Kind key stores Generic");
        };
        return LayerFormat::Generic(f);
    }
    match model.storage {
        FeatureStorage::Dense => LayerFormat::Dense(x),
        FeatureStorage::Beicsr(cfg) => {
            let cached = workload
                .format_cache
                .get_or_build(FormatKey::Beicsr(b, cfg), || {
                    CachedFormat::Beicsr(Arc::new(Beicsr::encode(x, cfg)))
                });
            let CachedFormat::Beicsr(f) = cached else {
                unreachable!("Beicsr key stores Beicsr");
            };
            LayerFormat::Beicsr(f)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn simulate_layer<C: CacheModel>(
    model: &AccelModel,
    workload: &Workload,
    hw: &HwConfig,
    graph: &CsrGraph,
    systolic: &SystolicArray,
    mem: &mut MemorySystem<C>,
    pinned: &VertexSet,
    davc_hits: &mut u64,
    layer: usize,
    x_in: &DenseMatrix,
    x_out: &DenseMatrix,
    in_base: u64,
    out_base: u64,
    format_override: Option<sgcn_formats::FormatKind>,
    boundary_formats: &[LayerFormat<'_>],
) -> LayerTally {
    let w_in = x_in.cols();
    let w_out = x_out.cols();

    // Storage formats for this layer's input and output. Boundary
    // matrices come precomputed (see `run_untimed`); the layer-0 input is
    // special-cased below.
    // §V-F/§VII-B: the first-layer combination moves onto the sparse
    // aggregator only when the input is *extremely* sparse (one-hot-style,
    // NELL's 99.9%) — otherwise the systolic array's far higher peak wins.
    // The trace already measured each matrix's sparsity at synthesis.
    let sparse_input_layer =
        layer == 0 && model.sparse_first_layer && workload.trace.sparsity(layer) > 0.98;
    let in_holder;
    let in_fmt: &LayerFormat<'_> = if sparse_input_layer {
        let cached = workload
            .format_cache
            .get_or_build(FormatKey::Csr(layer), || {
                CachedFormat::Csr(Arc::new(CsrFeatures::encode(x_in)))
            });
        let CachedFormat::Csr(f) = cached else {
            unreachable!("Csr key stores Csr");
        };
        in_holder = LayerFormat::Csr(f);
        &in_holder
    } else if layer == 0
        || (format_override.is_none() && matches!(model.storage, FeatureStorage::Dense))
    {
        // Input features arrive from the dataset in dense form for the
        // baselines (they do not compress features), and dense storage
        // borrows the trace matrix directly — no encode to share.
        in_holder = LayerFormat::Dense(x_in);
        &in_holder
    } else {
        &boundary_formats[layer - 1]
    };
    let out_fmt = &boundary_formats[layer];

    // Layer-0 runs combination first on every design that performs
    // inter-layer optimization; HyGCN (agg-first, untiled) is the paper's
    // counterexample and keeps its order.
    let agg_first_untiled =
        matches!(model.order, PhaseOrder::AggFirst) && matches!(model.tiling, TilingPolicy::None);
    let order = if layer == 0 && !agg_first_untiled {
        PhaseOrder::CombFirst
    } else {
        model.order
    };

    if model.column_product {
        return column_product_layer(
            model, workload, hw, graph, systolic, mem, layer, in_fmt, w_in, w_out, in_base,
            out_base,
        );
    }

    match order {
        PhaseOrder::AggFirst => agg_first_layer(
            model, workload, hw, graph, systolic, mem, pinned, davc_hits, in_fmt, out_fmt, w_in,
            w_out, in_base, out_base,
        ),
        PhaseOrder::CombFirst => comb_first_layer(
            model,
            workload,
            hw,
            graph,
            systolic,
            mem,
            pinned,
            davc_hits,
            in_fmt,
            out_fmt,
            x_in,
            layer,
            w_in,
            w_out,
            in_base,
            out_base,
            sparse_input_layer,
        ),
    }
}

/// Scatters one partial row into AWB-GCN's on-chip partial-sum
/// accumulation banks (`banks`, a cache of the run's model): probes the
/// `lines` 64-byte lines of the row at `addr`; lines that spill (miss
/// the banks) fetch and write back through `mem`. The probe walk is
/// batched ([`CacheModel::probe_run`]) when the banks' line size matches
/// the seed's fixed 64-byte stride *and* the row base is 64-byte aligned
/// (an unaligned base would change which memory bytes the spill
/// touches); otherwise the seed loop replays per line. Both issue the
/// identical mem-operation sequence (ascending lines, read then write
/// per spilled line).
#[inline]
fn scatter_row<C: CacheModel>(banks: &mut C, addr: u64, lines: u64, mem: &mut MemorySystem<C>) {
    let spill = |mem: &mut MemorySystem<C>, line_addr: u64| {
        mem.read_uncached_span(line_addr, 64, Traffic::PartialSum);
        mem.write_span(line_addr, 64, Traffic::PartialSum);
    };
    if banks.config().line_bytes == 64 && addr.is_multiple_of(64) {
        banks.probe_run(addr / 64, lines, |miss_first, miss_count| {
            for line in miss_first..miss_first + miss_count {
                spill(mem, line * 64);
            }
        });
    } else {
        for i in 0..lines {
            let line_addr = addr + i * 64;
            if !banks.access(line_addr) {
                spill(mem, line_addr);
            }
        }
    }
}

/// Source-tile height under the model's tiling policy.
fn src_tile_rows(model: &AccelModel, hw: &HwConfig, vertices: usize, slice_bytes: u64) -> usize {
    match model.tiling {
        TilingPolicy::None => vertices.max(1),
        TilingPolicy::CacheSized {
            occupancy,
            expected_density,
        } => {
            let budget = hw.cache.capacity_bytes as f64 * occupancy;
            let per_row = slice_bytes as f64 * expected_density.max(0.05);
            ((budget / per_row) as usize).clamp(64, vertices.max(64))
        }
    }
}

/// Column-slice width of the aggregation sweep.
fn slice_width(model: &AccelModel, w: usize) -> usize {
    match model.tiling {
        // Untiled designs sweep whole rows.
        TilingPolicy::None => w.max(1),
        // Tiled dataflows (GCNAX-class) slice the feature matrix in
        // fixed-width column passes regardless of the storage format —
        // this is exactly where non-sliced BEICSR pays for its monolithic
        // bitmap: each pass re-reads the row-head bitmap and fetches an
        // unaligned value window (§V-B). Sliced BEICSR matches its unit
        // slice to the dataflow's.
        TilingPolicy::CacheSized { .. } => match model.storage {
            FeatureStorage::Beicsr(cfg) if cfg.is_sliced() => {
                cfg.resolve_slice_elems(w).min(w.max(1))
            }
            _ => 96.min(w.max(1)),
        },
    }
}

/// Inline run capacity of a [`RowSliceMemo`] entry — every native format
/// emits at most three runs per slice window (BEICSR slots coalesce,
/// CSR is index span + value window, BSR is pointer + index + block
/// window); pathological emitters fall back to the visitor.
const MEMO_RUNS: usize = 3;

/// One row's memoized slice read: its compacted line runs plus its lane
/// work, both pure in `(format, row, window)`. See the `run_memo`
/// construction in [`aggregation_sweep`].
#[derive(Clone, Copy, Default)]
struct RowSliceMemo {
    /// Pass stamp (`0` = never filled).
    gen: u64,
    /// Aggregation lane work of the window.
    work: u32,
    /// Valid runs, or `u8::MAX` when the row overflowed the inline array.
    nruns: u8,
    runs: [LineRun; MEMO_RUNS],
}

impl RowSliceMemo {
    /// Computes the entry for `row` under `range`, stamping it with `gen`.
    fn fill(
        &mut self,
        gen: u64,
        fmt: &LayerFormat<'_>,
        row: usize,
        range: ColRange,
        line_bytes: u64,
        plan: &SlicePlan<'_>,
    ) {
        self.gen = gen;
        self.work = plan.lane_work(row) as u32;
        let mut n = 0u8;
        let mut overflow = false;
        fmt.as_format()
            .for_each_slice_run(row, range, line_bytes, &mut |run| {
                if (n as usize) < MEMO_RUNS {
                    self.runs[n as usize] = run;
                    n += 1;
                } else {
                    overflow = true;
                }
            });
        self.nruns = if overflow { u8::MAX } else { n };
    }

    /// Replays the memoized read through the memory system (falling back
    /// to the visitor when the runs overflowed the inline array).
    fn replay<C: CacheModel>(
        &self,
        mem: &mut MemorySystem<C>,
        fmt: &LayerFormat<'_>,
        row: usize,
        range: ColRange,
        base: u64,
    ) {
        if self.nruns == u8::MAX {
            fmt.as_format()
                .for_each_slice_run(row, range, mem.line_bytes(), &mut |run| {
                    mem.access_lines(base, run, Traffic::FeatureRead);
                });
        } else {
            for run in &self.runs[..self.nruns as usize] {
                mem.access_lines(base, *run, Traffic::FeatureRead);
            }
        }
    }
}

/// GraphSAGE's sampled share of one destination's in-tile neighbor
/// window: at most `cap` of its `deg` neighbors survive overall (§VI-C),
/// so each tile keeps a proportional prefix. `None` keeps the window.
fn sampled_prefix(neigh: &[u32], deg: usize, cap: Option<usize>) -> &[u32] {
    match cap {
        Some(cap) => {
            let deg = deg.max(1);
            let keep = if deg <= cap {
                neigh.len()
            } else {
                (neigh.len() * cap).div_ceil(deg).min(neigh.len())
            };
            &neigh[..keep]
        }
        None => neigh,
    }
}

/// The aggregation sweep shared by the row-product paths: returns
/// per-destination-tile SIMD cycles and total MACs.
#[allow(clippy::too_many_arguments)]
fn aggregation_sweep<C: CacheModel>(
    model: &AccelModel,
    hw: &HwConfig,
    graph: &CsrGraph,
    mem: &mut MemorySystem<C>,
    pinned: &VertexSet,
    davc_hits: &mut u64,
    fmt: &LayerFormat<'_>,
    feature_base: u64,
    width: usize,
    variant: sgcn_model::GcnVariant,
) -> (Vec<u64>, u64, u64) {
    let vertices = graph.num_vertices();
    let slice_w = slice_width(model, width);
    // GraphSAGE samples at most `sample` neighbors per vertex (§VI-C):
    // per (dst, tile) we keep a proportional prefix of the in-range
    // neighbor list.
    let sample_cap = match variant {
        sgcn_model::GcnVariant::GraphSage { sample } => Some(sample + 1),
        _ => None,
    };
    let slice_bytes = (slice_w * 4) as u64 + (slice_w as u64).div_ceil(8);
    let src_rows = src_tile_rows(model, hw, vertices, slice_bytes);
    let tiling = Tiling::new(vertices, DST_TILE_ROWS.min(vertices.max(1)), src_rows);
    let nslices = width.div_ceil(slice_w);

    let has_pinned = !pinned.is_empty();
    let lane_div = LaneDiv::new(hw.simd_lanes);
    let mut per_tile_cycles: Vec<u64> = Vec::with_capacity(tiling.dst_tiles());
    let mut macs = 0u64;
    let mut lane_cycles_total = 0u64;
    let mut davc_loaded = VertexSet::new(vertices);
    let mut topo_offset = 0u64;
    // Per-destination neighbor windows, hoisted out of the slice loop and
    // reused across all `nslices` passes of one tile pair.
    let mut ordered_neighbors: Vec<&[u32]> = Vec::new();
    // Per-(tile, slice) memo of each source row's compacted line runs and
    // lane work: a row is re-read once per in-tile destination that names
    // it, and both quantities are pure in `(format, row, window)`, so the
    // first touch in a pass computes them and every repeat replays the
    // memo without re-deriving spans (or paying the format's dynamic
    // dispatch). `gen` stamps entries so a new pass invalidates the
    // table without clearing it.
    let mut run_memo = vec![RowSliceMemo::default(); src_rows.min(vertices.max(1))];
    let mut run_gen: u64 = 0;

    for di in 0..tiling.dst_tiles() {
        let dst_range = tiling.dst_range(di);
        let order = tile_order(
            dst_range,
            hw.aggregation_engines,
            model.sac,
            model.strip_height,
        );
        // Source tiles sweep in ascending vertex order and adjacency lists
        // are sorted, so each destination's in-tile window advances a
        // cursor over its full neighbor list — O(deg) amortized across
        // all source tiles instead of two binary searches per (dst, tile).
        let full_neighbors: Vec<&[u32]> = order
            .iter()
            .map(|&dst| graph.neighbors(dst as usize))
            .collect();
        let mut cursors: Vec<usize> = vec![0; order.len()];
        let mut tile_lane_cycles = 0u64;
        for sj in 0..tiling.src_tiles() {
            let src_range = tiling.src_range(sj);
            // The neighbor window (and GraphSAGE's sampled prefix) is a
            // function of (dst, src tile) only: computed once per tile
            // pair and reused by every slice pass.
            ordered_neighbors.clear();
            ordered_neighbors.extend((0..order.len()).map(|k| {
                let full = full_neighbors[k];
                let lo = cursors[k];
                let mut hi = lo;
                while hi < full.len() && (full[hi] as usize) < src_range.end {
                    hi += 1;
                }
                cursors[k] = hi;
                let neigh = sampled_prefix(&full[lo..hi], full.len(), sample_cap);
                debug_assert_eq!(
                    neigh,
                    sampled_prefix(
                        graph.neighbors_in(order[k] as usize, src_range).0,
                        graph.degree(order[k] as usize),
                        sample_cap,
                    ),
                    "cursor window of dst {} drifted from its in-range neighbors",
                    order[k]
                );
                neigh
            }));

            // Topology subtile streams once per tile pair. Without
            // sampling the windows already hold the full in-range
            // neighbor lists (`order` permutes `dst_range`), so their
            // lengths sum to the tile's edges without re-searching the CSR.
            let tile_edges: usize = if sample_cap.is_none() {
                ordered_neighbors.iter().map(|n| n.len()).sum()
            } else {
                dst_range
                    .iter()
                    .map(|v| graph.neighbors_in(v, src_range).0.len())
                    .sum()
            };
            let topo_bytes = tile_edges as u64 * 8 + dst_range.len() as u64 * 4;
            mem.read_uncached_span(TOPOLOGY_BASE + topo_offset, topo_bytes, Traffic::Topology);
            topo_offset += topo_bytes.div_ceil(64) * 64;

            for s in 0..nslices {
                let range = ColRange::new(s * slice_w, ((s + 1) * slice_w).min(width));
                // The window's slot-coverage arithmetic is edge-invariant:
                // resolve it once per slice pass.
                let plan = SlicePlan::new(fmt, range);
                run_gen += 1;
                let line_bytes = mem.line_bytes();
                for neigh in &ordered_neighbors {
                    for &src in *neigh {
                        let e = &mut run_memo[src as usize - src_range.start];
                        if e.gen != run_gen {
                            e.fill(run_gen, fmt, src as usize, range, line_bytes, &plan);
                        }
                        let work = e.work as usize;
                        macs += work as u64;
                        tile_lane_cycles += (lane_div.div_ceil(work) as u64).max(1);
                        if has_pinned && pinned.contains(src) {
                            *davc_hits += 1;
                            if !davc_loaded.insert(src) {
                                continue;
                            }
                        }
                        e.replay(mem, fmt, src as usize, range, feature_base);
                    }
                }
            }
        }
        lane_cycles_total += tile_lane_cycles;
        per_tile_cycles.push(tile_lane_cycles / hw.aggregation_engines as u64);
    }
    (
        per_tile_cycles,
        lane_cycles_total / hw.aggregation_engines as u64,
        macs,
    )
}

/// Reads a full row through the memory system: the format's
/// pre-coalesced line runs ([`FeatureFormat::for_each_row_run`] →
/// [`MemorySystem::access_lines`]: one batched probe/DRAM walk per run of
/// consecutive lines). Compaction is exact by construction (see
/// `sgcn_formats::runs`), so every counter matches a per-span replay bit
/// for bit.
#[inline]
fn read_row_spans<C: CacheModel>(
    mem: &mut MemorySystem<C>,
    fmt: &dyn FeatureFormat,
    row: usize,
    base: u64,
    kind: Traffic,
) {
    fmt.for_each_row_run(row, mem.line_bytes(), &mut |run| {
        mem.access_lines(base, run, kind);
    });
}

/// Writes a row back (see [`read_row_spans`]; write runs merge only
/// contiguous spans, keeping the streamed DRAM burst order intact).
#[inline]
fn write_row_spans<C: CacheModel>(
    mem: &mut MemorySystem<C>,
    fmt: &dyn FeatureFormat,
    row: usize,
    base: u64,
    kind: Traffic,
) {
    fmt.for_each_write_run(row, mem.line_bytes(), &mut |run| {
        mem.write_lines(base, run, kind);
    });
}

/// Aggregation-first layer (GCNAX intermediate layers, HyGCN, SGCN):
/// `H = Ã·X` per destination tile feeds the systolic `H·W` directly; the
/// activated output is written back (compressed for SGCN).
#[allow(clippy::too_many_arguments)]
fn agg_first_layer<C: CacheModel>(
    model: &AccelModel,
    workload: &Workload,
    hw: &HwConfig,
    graph: &CsrGraph,
    systolic: &SystolicArray,
    mem: &mut MemorySystem<C>,
    pinned: &VertexSet,
    davc_hits: &mut u64,
    in_fmt: &LayerFormat<'_>,
    out_fmt: &LayerFormat<'_>,
    w_in: usize,
    w_out: usize,
    in_base: u64,
    out_base: u64,
) -> LayerTally {
    let (per_tile_agg, agg_cycles, mut macs) = aggregation_sweep(
        model,
        hw,
        graph,
        mem,
        pinned,
        davc_hits,
        in_fmt,
        in_base,
        w_in,
        workload.network.variant,
    );

    // Combination + output write per destination tile.
    let vertices = graph.num_vertices();
    let tiles = per_tile_agg.len().max(1);
    let rows_per_tile = vertices.div_ceil(tiles);
    let mut pairs = Vec::with_capacity(tiles);
    let mut comb_cycles = 0u64;
    for (ti, &agg) in per_tile_agg.iter().enumerate() {
        let rows = rows_per_tile.min(vertices - (ti * rows_per_tile).min(vertices));
        let comb = systolic.gemm_cycles(rows, w_in, w_out) / hw.combination_engines as u64;
        macs += SystolicArray::gemm_macs(rows, w_in, w_out);
        comb_cycles += comb;
        pairs.push((agg, comb));
        for r in ti * rows_per_tile..(ti * rows_per_tile + rows).min(vertices) {
            write_row_spans(mem, out_fmt.as_format(), r, out_base, Traffic::FeatureWrite);
        }
    }
    LayerTally {
        agg_cycles,
        comb_cycles,
        macs,
        compute_cycles: two_stage_pipeline(&pairs),
    }
}

/// Combination-first layer (EnGN, I-GCN, and everyone's input layer):
/// `Y = X·W` streams the inputs once, `Ã·Y` aggregates the scratch matrix.
#[allow(clippy::too_many_arguments)]
fn comb_first_layer<C: CacheModel>(
    model: &AccelModel,
    workload: &Workload,
    hw: &HwConfig,
    graph: &CsrGraph,
    systolic: &SystolicArray,
    mem: &mut MemorySystem<C>,
    pinned: &VertexSet,
    davc_hits: &mut u64,
    in_fmt: &LayerFormat<'_>,
    out_fmt: &LayerFormat<'_>,
    x_in: &DenseMatrix,
    layer: usize,
    w_in: usize,
    w_out: usize,
    in_base: u64,
    out_base: u64,
    sparse_input: bool,
) -> LayerTally {
    let vertices = graph.num_vertices();
    let mut macs = 0u64;
    let mut comb_cycles = 0u64;

    // Combination pass: stream X rows once, write Y (dense, width w_out)
    // to scratch.
    let y = DenseMatrix::zeros(vertices, w_out);
    for r in 0..vertices {
        read_row_spans(mem, in_fmt.as_format(), r, in_base, Traffic::FeatureRead);
    }
    if sparse_input {
        // SGCN's §V-F option: the first-layer combination runs on the
        // sparse aggregator over CSR input — work ∝ input non-zeros.
        let nnz = x_in.count_nonzeros() as u64;
        macs += nnz * w_out as u64;
        comb_cycles +=
            (nnz * w_out as u64) / (hw.simd_lanes as u64 * hw.aggregation_engines as u64).max(1);
    } else {
        let dense_macs = SystolicArray::gemm_macs(vertices, w_in, w_out);
        let mut cycles =
            systolic.gemm_cycles(vertices, w_in, w_out) / hw.combination_engines as u64;
        if model.comb_zero_skip {
            // The trace pre-measured this matrix's sparsity.
            let density = (1.0 - workload.trace.sparsity(layer)).clamp(0.02, 1.0);
            cycles = (cycles as f64 * density) as u64;
            macs += (dense_macs as f64 * density) as u64;
        } else {
            macs += dense_macs;
        }
        comb_cycles += cycles;
    }
    for r in 0..vertices {
        write_row_spans(mem, &y, r, SCRATCH_BASE, Traffic::FeatureWrite);
    }

    // Aggregation pass over the dense scratch Y.
    let y_fmt = LayerFormat::Dense(&y);
    let (_, agg_cycles, agg_macs) = aggregation_sweep(
        model,
        hw,
        graph,
        mem,
        pinned,
        davc_hits,
        &y_fmt,
        SCRATCH_BASE,
        w_out,
        workload.network.variant,
    );
    macs += agg_macs;

    // Activated output written back in the accelerator's storage format.
    for r in 0..vertices {
        write_row_spans(mem, out_fmt.as_format(), r, out_base, Traffic::FeatureWrite);
    }

    LayerTally {
        agg_cycles,
        comb_cycles,
        macs,
        compute_cycles: two_stage_pipeline(&[(comb_cycles, agg_cycles)]),
    }
}

/// AWB-GCN's column-product layer: `Y = X·W` (zero-skipped), then for each
/// source vertex its Y row scatters into every destination's partial sum —
/// reads each input once, but partial-sum spills dominate traffic
/// (Fig. 14).
#[allow(clippy::too_many_arguments)]
fn column_product_layer<C: CacheModel>(
    model: &AccelModel,
    workload: &Workload,
    hw: &HwConfig,
    graph: &CsrGraph,
    systolic: &SystolicArray,
    mem: &mut MemorySystem<C>,
    layer: usize,
    in_fmt: &LayerFormat<'_>,
    w_in: usize,
    w_out: usize,
    in_base: u64,
    out_base: u64,
) -> LayerTally {
    let vertices = graph.num_vertices();
    let row_bytes = (w_out * 4) as u64;
    let mut macs = 0u64;

    // Topology streams once.
    mem.read_uncached_span(
        TOPOLOGY_BASE,
        workload.topology_bytes_per_layer(),
        Traffic::Topology,
    );

    // Combination: stream inputs once (dense storage — AWB keeps features
    // dense, §VI-B), zero-skipped compute.
    for r in 0..vertices {
        read_row_spans(mem, in_fmt.as_format(), r, in_base, Traffic::FeatureRead);
    }
    // The trace pre-measured this matrix's sparsity.
    let density = (1.0 - workload.trace.sparsity(layer)).clamp(0.02, 1.0);
    let dense_macs = SystolicArray::gemm_macs(vertices, w_in, w_out);
    let comb_cycles = if model.comb_zero_skip {
        macs += (dense_macs as f64 * density) as u64;
        (systolic.gemm_cycles(vertices, w_in, w_out) as f64 * density) as u64
            / hw.combination_engines as u64
    } else {
        macs += dense_macs;
        systolic.gemm_cycles(vertices, w_in, w_out) / hw.combination_engines as u64
    };

    // Column-product aggregation over chunks of source vertices; each
    // chunk's combination output feeds scatter-accumulation, so the two
    // stages pipeline. Partial rows live in AWB-GCN's distributed on-chip
    // accumulation banks (its task-queue PEs hold psums locally) — sized
    // well above the shared cache — and spill to DRAM only on overflow.
    let psum_config = sgcn_mem::CacheConfig {
        capacity_bytes: hw.cache.capacity_bytes * 16,
        ..hw.cache
    };
    let mut psum_banks = C::new(psum_config);
    let lane_cycles_per_row = (LaneDiv::new(hw.simd_lanes).div_ceil(w_out) as u64).max(1);
    let mut lane_cycles = 0u64;
    let mut pairs: Vec<(u64, u64)> = Vec::new();
    let chunks = vertices.div_ceil(COLUMN_CHUNK).max(1);
    let comb_per_chunk = comb_cycles / chunks as u64;
    let mut chunk_lane = 0u64;
    for src in 0..vertices {
        // The freshly combined Y row is produced on chip; scatter it into
        // every destination's partial row (spilled lines fetch and
        // eventually write back).
        for &dst in graph.neighbors(src) {
            let addr = PARTIAL_BASE + dst as u64 * row_bytes;
            scatter_row(&mut psum_banks, addr, row_bytes.div_ceil(64), mem);
            macs += w_out as u64;
            chunk_lane += lane_cycles_per_row;
        }
        if (src + 1) % COLUMN_CHUNK == 0 || src + 1 == vertices {
            lane_cycles += chunk_lane;
            pairs.push((comb_per_chunk, chunk_lane / hw.aggregation_engines as u64));
            chunk_lane = 0;
        }
    }
    let agg_cycles = lane_cycles / hw.aggregation_engines as u64;

    // Final activated output (dense) — the partial rows become X^(l+1).
    for r in 0..vertices {
        mem.write_span(
            out_base + r as u64 * row_bytes,
            row_bytes,
            Traffic::FeatureWrite,
        );
    }

    LayerTally {
        agg_cycles,
        comb_cycles,
        macs,
        compute_cycles: two_stage_pipeline(&pairs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::AccelModel;
    use sgcn_formats::{BeicsrConfig, Span};
    use sgcn_graph::datasets::{DatasetId, SynthScale};
    use sgcn_mem::{CacheConfig, DramConfig};
    use sgcn_model::NetworkConfig;
    use std::collections::HashSet;

    /// splitmix64 — a seeded, dependency-free stream for the oracles.
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// A `rows × cols` matrix with roughly 60% zeros, including some
    /// all-zero rows.
    fn sparse_matrix(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let data = (0..rows * cols)
            .map(|i| {
                let h = mix(seed ^ i as u64);
                let row_zero = (i / cols) % 7 == 3;
                if row_zero || h % 5 < 3 {
                    0.0
                } else {
                    (h % 97) as f32 + 1.0
                }
            })
            .collect();
        DenseMatrix::from_vec(rows, cols, data)
    }

    /// The storage formats whose lane work the sweep plans: sliced and
    /// non-sliced BEICSR, CSR and Dense.
    fn planned_formats(m: &DenseMatrix) -> Vec<LayerFormat<'_>> {
        vec![
            LayerFormat::Beicsr(Arc::new(Beicsr::encode(m, BeicsrConfig::sliced(8)))),
            LayerFormat::Beicsr(Arc::new(Beicsr::encode(m, BeicsrConfig::sliced(5)))),
            LayerFormat::Beicsr(Arc::new(Beicsr::encode(m, BeicsrConfig::non_sliced()))),
            LayerFormat::Csr(Arc::new(CsrFeatures::encode(m))),
            LayerFormat::Dense(m),
        ]
    }

    #[test]
    fn slice_plan_matches_per_edge_lane_work() {
        // Every non-empty window — full, partial inside one slot, slot
        // aligned and straddling slot boundaries — on every row.
        let m = sparse_matrix(12, 29, 5);
        for fmt in planned_formats(&m) {
            let name = fmt.as_format().format_name();
            for start in 0..m.cols() {
                for end in start + 1..=m.cols() {
                    let range = ColRange::new(start, end);
                    let plan = SlicePlan::new(&fmt, range);
                    for row in 0..m.rows() {
                        assert_eq!(
                            plan.lane_work(row),
                            fmt.lane_work(row, range),
                            "{name} row {row} window {range}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lane_div_matches_plain_div_ceil() {
        for lanes in 1..=33 {
            let div = LaneDiv::new(lanes);
            for w in 0..=512 {
                assert_eq!(div.div_ceil(w), w.div_ceil(lanes), "{w} / {lanes}");
            }
        }
    }

    #[test]
    fn vertex_set_agrees_with_hash_set() {
        let vertices = 1000;
        let mut set = VertexSet::new(vertices);
        let mut oracle: HashSet<u32> = HashSet::new();
        assert_eq!(set.is_empty(), oracle.is_empty());
        for i in 0..600u64 {
            // Skewed ids so repeats are common.
            let v = (mix(i) % if i % 3 == 0 { 40 } else { vertices as u64 }) as u32;
            assert_eq!(set.insert(v), oracle.insert(v), "insert {v}");
            assert_eq!(set.is_empty(), oracle.is_empty());
            if i % 50 == 0 {
                for u in 0..vertices as u32 {
                    assert_eq!(set.contains(u), oracle.contains(&u), "contains {u}");
                }
            }
        }
    }

    /// A generic format whose row `r` reads `r + 1` spans two lines apart,
    /// so rows from `MEMO_RUNS` on overflow a memo entry's inline runs.
    struct GappedSpans {
        rows: usize,
    }

    impl FeatureFormat for GappedSpans {
        fn format_name(&self) -> &'static str {
            "gapped"
        }
        fn rows(&self) -> usize {
            self.rows
        }
        fn cols(&self) -> usize {
            16
        }
        fn capacity_bytes(&self) -> u64 {
            self.rows as u64 * 4096
        }
        fn decode_row(&self, _row: usize) -> Vec<f32> {
            vec![0.0; 16]
        }
        fn for_each_row_span(&self, row: usize, f: &mut dyn FnMut(Span)) {
            let base = row as u64 * 4096;
            for k in 0..=row as u64 {
                f(Span::new(base + k * 192 + 8, 40));
            }
        }
        fn for_each_slice_span(&self, row: usize, _range: ColRange, f: &mut dyn FnMut(Span)) {
            self.for_each_row_span(row, f);
        }
    }

    /// Replays every row of `m` twice per window through a memoized and
    /// a direct run read on cache model `C`; returns how many rows
    /// overflowed the memo's inline run capacity.
    fn memo_replays_like_direct<C: CacheModel>(
        formats: &[LayerFormat<'_>],
        m: &DenseMatrix,
    ) -> usize {
        let small = || {
            MemorySystem::<C>::new(
                CacheConfig {
                    capacity_bytes: 2 * 1024,
                    ways: 4,
                    line_bytes: 64,
                    ..CacheConfig::default()
                },
                DramConfig::hbm2(),
            )
        };
        let mut spilled = 0;
        for fmt in formats {
            let name = fmt.as_format().format_name();
            let mut memoized = small();
            let mut direct = small();
            let line_bytes = memoized.line_bytes();
            let mut gen = 0;
            for range in [
                ColRange::new(0, 29),
                ColRange::new(3, 11),
                ColRange::new(8, 24),
            ] {
                gen += 1;
                let plan = SlicePlan::new(fmt, range);
                let mut memo = vec![RowSliceMemo::default(); m.rows()];
                // Each row twice, so the second read replays the memo.
                for row in (0..m.rows()).chain((0..m.rows()).rev()) {
                    let e = &mut memo[row];
                    if e.gen != gen {
                        e.fill(gen, fmt, row, range, line_bytes, &plan);
                        assert_eq!(e.work as usize, fmt.lane_work(row, range), "{name}");
                        spilled += usize::from(e.nruns == u8::MAX);
                    }
                    e.replay(&mut memoized, fmt, row, range, FEATURE_A_BASE);
                    fmt.as_format()
                        .for_each_slice_run(row, range, line_bytes, &mut |run| {
                            direct.access_lines(FEATURE_A_BASE, run, Traffic::FeatureRead);
                        });
                }
            }
            assert_eq!(memoized.report(), direct.report(), "{name}");
        }
        spilled
    }

    #[test]
    fn row_slice_memo_replays_like_direct_run_reads() {
        let m = sparse_matrix(10, 29, 9);
        let mut formats = planned_formats(&m);
        formats.push(LayerFormat::Generic(Arc::new(GappedSpans { rows: 10 })));
        let spilled = memo_replays_like_direct::<Cache>(&formats, &m)
            + memo_replays_like_direct::<sgcn_mem::ListCache>(&formats, &m);
        assert!(spilled > 0, "no row overflowed the inline run capacity");
    }

    fn tiny_workload(id: DatasetId) -> Workload {
        Workload::build(
            id,
            SynthScale::tiny(),
            NetworkConfig::deep_residual(4, 64),
            11,
        )
    }

    #[test]
    fn sgcn_moves_less_feature_traffic_than_gcnax() {
        let wl = tiny_workload(DatasetId::PubMed);
        let hw = HwConfig::default();
        let sgcn = AccelModel::sgcn().simulate(&wl, &hw);
        let gcnax = AccelModel::gcnax().simulate(&wl, &hw);
        assert!(
            sgcn.dram_bytes_for(Traffic::FeatureRead) < gcnax.dram_bytes_for(Traffic::FeatureRead),
            "sgcn {} vs gcnax {}",
            sgcn.dram_bytes_for(Traffic::FeatureRead),
            gcnax.dram_bytes_for(Traffic::FeatureRead)
        );
        assert!(
            sgcn.dram_bytes_for(Traffic::FeatureWrite)
                < gcnax.dram_bytes_for(Traffic::FeatureWrite)
        );
        assert!(sgcn.cycles < gcnax.cycles);
    }

    #[test]
    fn awb_partial_sums_dominate() {
        // The column-product's partial-sum working set (V × width) must
        // exceed the cache for the spills to show — the paper's regime on
        // the full-scale graphs. Shrink the cache accordingly.
        let wl = tiny_workload(DatasetId::Cora);
        let hw = HwConfig::default().with_cache_kib(32);
        let awb = AccelModel::awb_gcn().simulate(&wl, &hw);
        let partial = awb.dram_bytes_for(Traffic::PartialSum);
        let feat = awb.dram_bytes_for(Traffic::FeatureRead);
        assert!(partial > feat, "partial {partial} vs feature {feat}");
    }

    #[test]
    fn hygcn_feature_reads_dominate_untiled() {
        let wl = tiny_workload(DatasetId::Cora);
        let hygcn = AccelModel::hygcn().simulate(&wl, &HwConfig::default());
        let gcnax = AccelModel::gcnax().simulate(&wl, &HwConfig::default());
        assert!(hygcn.cycles >= gcnax.cycles, "HyGCN should not beat GCNAX");
    }

    #[test]
    fn graphsage_sampling_cuts_aggregation_traffic() {
        use sgcn_model::{GcnVariant, NetworkConfig};
        let hw = HwConfig::default().with_cache_kib(16);
        let gcn = Workload::build(
            DatasetId::Reddit,
            SynthScale::tiny(),
            NetworkConfig::deep_residual(4, 64),
            11,
        );
        let sage = Workload::build(
            DatasetId::Reddit,
            SynthScale::tiny(),
            NetworkConfig::deep_residual(4, 64).with_variant(GcnVariant::GraphSage { sample: 2 }),
            11,
        );
        let r_gcn = AccelModel::gcnax().simulate(&gcn, &hw);
        let r_sage = AccelModel::gcnax().simulate(&sage, &hw);
        // Cache dedup absorbs much of the traffic saving (distinct rows
        // are still touched once per pass), but access counts, aggregation
        // work and topology bytes all shrink with the sampled edge set.
        assert!(
            r_sage.mem.traffic(Traffic::FeatureRead).bytes_requested
                < r_gcn.mem.traffic(Traffic::FeatureRead).bytes_requested * 7 / 10,
            "sage requested {} vs gcn {}",
            r_sage.mem.traffic(Traffic::FeatureRead).bytes_requested,
            r_gcn.mem.traffic(Traffic::FeatureRead).bytes_requested
        );
        // Combination MACs (V·W²) dominate and are unaffected; the
        // aggregation side shrinks with the sampled edge set.
        assert!(
            r_sage.agg_cycles < r_gcn.agg_cycles * 7 / 10,
            "sage agg {} vs gcn {}",
            r_sage.agg_cycles,
            r_gcn.agg_cycles
        );
        assert!(r_sage.macs < r_gcn.macs);
    }

    #[test]
    fn reports_are_deterministic() {
        let wl = tiny_workload(DatasetId::Dblp);
        let hw = HwConfig::default();
        let a = AccelModel::sgcn().simulate(&wl, &hw);
        let b = AccelModel::sgcn().simulate(&wl, &hw);
        assert_eq!(a, b);
    }

    #[test]
    fn macs_are_positive_and_energy_consistent() {
        let wl = tiny_workload(DatasetId::Cora);
        let r = AccelModel::sgcn().simulate(&wl, &HwConfig::default());
        assert!(r.macs > 0);
        assert!(r.energy.total_pj() > 0.0);
        assert!(r.tdp_watts > 3.0 && r.tdp_watts < 12.0);
        assert!(r.cycles >= r.mem_cycles.min(r.agg_cycles));
    }

    #[test]
    fn layer_reports_sum_to_totals() {
        let wl = tiny_workload(DatasetId::PubMed);
        let r = AccelModel::sgcn().simulate(&wl, &HwConfig::default());
        assert_eq!(r.layers.len(), wl.network.layers);
        assert_eq!(r.layers.iter().map(|l| l.cycles).sum::<u64>(), r.cycles);
        assert_eq!(r.layers.iter().map(|l| l.macs).sum::<u64>(), r.macs);
        assert_eq!(
            r.layers.iter().map(|l| l.mem_cycles).sum::<u64>(),
            r.mem_cycles
        );
        // Layer indices are 0..L in order.
        for (i, l) in r.layers.iter().enumerate() {
            assert_eq!(l.layer, i);
        }
    }

    /// The epoch tally this thread's `run` adds.
    fn tally(run: impl FnOnce()) -> crate::metrics::memo::EpochCounts {
        let before = crate::metrics::memo::counts();
        run();
        let after = crate::metrics::memo::counts();
        crate::metrics::memo::EpochCounts {
            recorded: after.recorded - before.recorded,
            replayed: after.replayed - before.replayed,
            diverged: after.diverged - before.diverged,
            unrecorded: after.unrecorded - before.unrecorded,
        }
    }

    #[test]
    fn layer_epochs_replay_dense_layers_and_diverge_on_sgcn() {
        use crate::experiments::ExperimentConfig;
        use crate::metrics::memo::EpochCounts;
        // Six layers open epochs at layers 1–5: layers 1 and 2 record,
        // and layers 3–5 replay the layer two before on every dense
        // design. SGCN enters them in the same state but its BEICSR
        // streams differ per layer: layers 3 and 4 diverge at once,
        // which retires both keys, and layer 5 runs unlogged.
        let cfg = ExperimentConfig::quick();
        assert_eq!(cfg.layers, 6);
        let wl = Workload::build(DatasetId::Cora, cfg.scale, cfg.network(), cfg.seed);
        let hw = cfg.hw();
        for model in AccelModel::fig11_lineup() {
            let mut report = None;
            let counts = tally(|| report = Some(model.simulate(&wl, &hw)));
            let (replayed, diverged, unrecorded) = if model.name == "SGCN" {
                (0, 2, 1)
            } else {
                (3, 0, 0)
            };
            assert_eq!(
                counts,
                EpochCounts {
                    recorded: 2,
                    replayed,
                    diverged,
                    unrecorded
                },
                "{}",
                model.name
            );
            let mut oracle = None;
            let counts =
                tally(|| oracle = Some(model.simulate_on::<sgcn_mem::ListCache>(&wl, &hw, None)));
            assert_eq!(
                counts,
                EpochCounts {
                    unrecorded: 5,
                    ..EpochCounts::default()
                },
                "the ListCache oracle runs every epoch unlogged"
            );
            assert_eq!(report, oracle, "{}", model.name);
        }
    }

    #[test]
    fn weight_stride_keeps_every_layer_in_the_weight_region() {
        for layers in [1, 28, 64, 65, 112, 194, 1000] {
            let stride = weight_stride(layers);
            let last_end = WEIGHT_BASE + (layers as u64 - 1) * stride + stride;
            assert!(
                last_end <= PARTIAL_BASE,
                "{layers} layers end at {last_end:#x}"
            );
            if layers <= 64 {
                assert_eq!(stride, REGION / 64, "{layers} layers moved their weights");
            }
        }
    }

    #[test]
    fn deep_nets_open_every_epoch_and_match_the_oracle() {
        // AWB-GCN writes partial sums and the column-product designs write
        // the scratch region; with the weights of all 194 layers inside the
        // weight region, layers 1–193 all open epochs and every dead range
        // stays clear of those writes.
        let layers = 194;
        let wl = Workload::build(
            DatasetId::Cora,
            SynthScale::tiny(),
            NetworkConfig::deep_residual(layers, 16),
            11,
        );
        let hw = HwConfig::default();
        for model in AccelModel::fig11_lineup() {
            let mut report = None;
            let counts = tally(|| report = Some(model.simulate(&wl, &hw)));
            let opened = counts.recorded + counts.replayed + counts.diverged + counts.unrecorded;
            assert_eq!(opened, layers as u64 - 1, "{}", model.name);
            let oracle = model.simulate_on::<sgcn_mem::ListCache>(&wl, &hw, None);
            assert_eq!(report, Some(oracle), "{}", model.name);
        }
    }

    #[test]
    fn nets_under_four_layers_open_no_epoch() {
        let wl = Workload::build(
            DatasetId::Cora,
            SynthScale::tiny(),
            NetworkConfig::deep_residual(3, 64),
            11,
        );
        let counts = tally(|| {
            AccelModel::gcnax().simulate(&wl, &HwConfig::default());
        });
        assert_eq!(counts, crate::metrics::memo::EpochCounts::default());
    }
}
