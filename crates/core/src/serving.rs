//! Request-level mini-batch serving.
//!
//! The paper evaluates whole-graph inference; a production deployment
//! serves *requests*: each query names a seed vertex, a GraphSAGE-style
//! sampler extracts its bounded multi-hop neighborhood
//! ([`sgcn_graph::sampling`]), and the accelerator runs the layers over
//! that subgraph alone. This module packages one dataset's serving state
//! ([`ServingContext`]), turns sampled subgraphs into self-contained
//! [`Workload`]s (sliced input features + synthesized per-layer trace at
//! the dataset's sparsity trajectory), and aggregates per-request cold
//! reports into latency percentiles and throughput ([`ServeSummary`]).
//! The [`queueing`] submodule owns the one request pipeline:
//! [`queueing::prepare`] samples, builds and cold-simulates a stream
//! (each distinct seed vertex once), and both the offline batch view
//! here and the *online* view — a seeded open-loop arrival process and
//! an N-engine event-driven scheduler with pluggable policies, including
//! warm-cache affinity routing — read its [`queueing::PreparedRequest`]s.
//!
//! # Determinism
//!
//! Every stage is a pure function of `(dataset, fanouts, seed, request)`:
//! the sampler derives its RNG from the seed vertex, the trace synthesis
//! from the serving seed and seed vertex, and [`queueing::prepare`] fans
//! out over [`sgcn_par::par_map`], which returns results in input order —
//! so a replayed stream is **bit-identical at any thread count**,
//! matching the experiment drivers' contract.

mod engine_queue;
pub mod faults;
pub mod queueing;
pub mod sharding;
pub mod slo;
pub mod trace;
pub mod traffic;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sgcn_formats::DenseMatrix;
use sgcn_graph::builder::Normalization;
use sgcn_graph::datasets::{Dataset, DatasetId, SynthScale};
use sgcn_graph::sampling::{sample_neighborhood, Fanouts, SampledSubgraph};
use sgcn_model::features::{generate_input_features, slice_rows};
use sgcn_model::{NetworkConfig, ReferenceExecutor};

use crate::config::HwConfig;
use crate::workload::Workload;
use queueing::PreparedRequest;

/// Scale knobs for a serving session.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingConfig {
    /// Which catalog dataset backs the graph.
    pub dataset: DatasetId,
    /// Synthesis scale of the backing graph.
    pub scale: SynthScale,
    /// Per-hop sampling caps; the hop count is also the served network's
    /// depth (one aggregation per hop, the GraphSAGE convention).
    pub fanouts: Fanouts,
    /// Feature width of the served network.
    pub width: usize,
    /// Serving RNG seed (request streams, trace synthesis).
    pub seed: u64,
}

/// One inference request: a position in the stream plus the vertex whose
/// representation is queried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Stream position (stable across thread counts).
    pub index: usize,
    /// The queried vertex (original dataset id).
    pub seed_vertex: u32,
}

/// Shared per-dataset serving state, built once per session: the backing
/// graph and the full input feature matrix `X¹` that request slices are
/// cut from.
#[derive(Debug, Clone)]
pub struct ServingContext {
    /// The backing dataset (synthesized topology + catalog spec).
    pub dataset: Dataset,
    /// The served network (depth = sampling hops).
    pub network: NetworkConfig,
    config: ServingConfig,
    input: DenseMatrix,
}

impl ServingContext {
    /// Synthesizes the backing graph and input features for `config`.
    pub fn new(config: ServingConfig) -> Self {
        let dataset = Dataset::synthesize(config.dataset, config.scale, Normalization::Symmetric);
        let network = NetworkConfig::deep_residual(config.fanouts.hops(), config.width);
        let input = generate_input_features(
            dataset.graph.num_vertices(),
            dataset.input_features,
            dataset.spec.input_sparsity,
            config.seed ^ 0xA11CE,
        );
        ServingContext {
            dataset,
            network,
            config,
            input,
        }
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.config
    }

    /// Derives a context with a different fanout schedule (and hence
    /// network depth), reusing this context's synthesized graph and
    /// input features — both are fanout-independent, so sweeps share
    /// them instead of re-synthesizing per schedule. Equivalent to
    /// `ServingContext::new` with the fanouts swapped.
    pub fn with_fanouts(&self, fanouts: Fanouts) -> ServingContext {
        let network = NetworkConfig::deep_residual(fanouts.hops(), self.config.width);
        ServingContext {
            dataset: self.dataset.clone(),
            network,
            config: ServingConfig {
                fanouts,
                ..self.config.clone()
            },
            input: self.input.clone(),
        }
    }

    /// A deterministic stream of `n` requests with uniformly drawn seed
    /// vertices (the heavy-traffic arrival mix).
    pub fn request_stream(&self, n: usize) -> Vec<Request> {
        let mut rng = SmallRng::seed_from_u64(self.config.seed ^ 0x5E_D51D);
        let vertices = self.dataset.graph.num_vertices();
        (0..n)
            .map(|index| Request {
                index,
                seed_vertex: rng.gen_range(0..vertices) as u32,
            })
            .collect()
    }

    /// A deterministic stream of `n` requests whose seed vertices are
    /// drawn from a small hot pool of `pool` **distinct** vertices
    /// (capped at the graph size) — the shared-neighborhood traffic mix
    /// (trending entities, celebrity vertices) that warm-cache reuse and
    /// affinity scheduling exploit. The pool and the per-request draws
    /// derive from the serving seed only, so the stream is position- and
    /// thread-independent.
    ///
    /// # Panics
    ///
    /// Panics if `pool == 0`.
    pub fn hotspot_stream(&self, n: usize, pool: usize) -> Vec<Request> {
        assert!(pool > 0, "hotspot pool must be non-empty");
        let vertices = self.dataset.graph.num_vertices();
        let pool = pool.min(vertices);
        // Partial Fisher–Yates: exactly `pool` distinct hot vertices.
        let mut pool_rng = SmallRng::seed_from_u64(self.config.seed ^ 0x407_5707);
        let mut ids: Vec<u32> = (0..vertices as u32).collect();
        for i in 0..pool {
            let j = pool_rng.gen_range(i..vertices);
            ids.swap(i, j);
        }
        let hot = &ids[..pool];
        let mut rng = SmallRng::seed_from_u64(self.config.seed ^ 0x5E_D51E);
        (0..n)
            .map(|index| Request {
                index,
                seed_vertex: hot[rng.gen_range(0..hot.len())],
            })
            .collect()
    }

    /// Samples the request's neighborhood.
    pub fn sample(&self, request: &Request) -> SampledSubgraph {
        sample_neighborhood(
            &self.dataset.graph,
            request.seed_vertex,
            &self.config.fanouts,
            self.config.seed,
        )
    }

    /// Builds the request's self-contained workload over its sampled
    /// neighborhood `sub` (from [`Self::sample`]): the subgraph as the
    /// topology, input features sliced from the full `X¹` (the same
    /// vertex always serves identical bytes), and the per-layer trace
    /// synthesized at the dataset's published sparsity trajectory. Pure
    /// in `(self, request.seed_vertex)`. Callers keep the sample itself
    /// for its global vertex ids (the warm-cache working set).
    pub fn build_workload_from(&self, request: &Request, sub: SampledSubgraph) -> Workload {
        let input = slice_rows(&self.input, &sub.vertices);
        let layers = self.network.layers;
        let targets: Vec<f64> = (0..layers)
            .map(|l| self.dataset.intermediate_sparsity(l, layers))
            .collect();
        // Trace seed mixes the serving seed with the queried vertex so
        // identical requests replay identically regardless of stream
        // position.
        let trace_seed = self.config.seed ^ (u64::from(request.seed_vertex) << 20);
        let exec = ReferenceExecutor::new(&sub.graph, self.network, trace_seed);
        let trace = exec.synthesize_trace(&input, &targets);
        Workload {
            dataset: Dataset {
                spec: self.dataset.spec,
                graph: sub.graph,
                input_features: self.dataset.input_features,
                vertex_scale: self.dataset.vertex_scale,
            },
            network: self.network,
            trace,
            format_cache: Default::default(),
        }
    }
}

/// Nearest-rank percentile (`q` in 0..=100) of an ascending-sorted
/// sequence.
fn percentile(sorted: &[u64], q: u32) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q as usize * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Batch-level aggregation of a prepared stream's cold reports: the
/// serving SLO view (latency-cycle percentiles, throughput) plus traffic
/// totals.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSummary {
    /// Requests aggregated.
    pub requests: usize,
    /// Sum of per-request cycles (a sequential replay's makespan).
    pub total_cycles: u64,
    /// Mean request latency in cycles.
    pub mean_cycles: f64,
    /// Median request latency in cycles.
    pub p50_cycles: u64,
    /// 95th-percentile latency in cycles.
    pub p95_cycles: u64,
    /// 99th-percentile latency in cycles.
    pub p99_cycles: u64,
    /// Worst request latency in cycles.
    pub max_cycles: u64,
    /// Requests per second at the platform's 1 GHz clock, one engine
    /// replaying the stream back to back.
    pub throughput_rps: f64,
    /// Total DRAM bytes across requests.
    pub total_dram_bytes: u64,
    /// Mean sampled-subgraph vertex count.
    pub avg_vertices: f64,
    /// Mean sampled-subgraph edge count.
    pub avg_edges: f64,
}

/// Per-request latencies when the stream is served in fixed-size
/// microbatches that **amortize the weight stream**: requests in one
/// batch run the same network back to back on one engine, so every
/// request after the batch's first finds the layer weights already on
/// chip and shaves the weight-fetch DRAM time (the weight DRAM bytes its
/// cold run actually paid, at the device's effective bandwidth) off its
/// latency — the same displacement model the queueing simulator uses for
/// warm feature reuse. `batch_size == 1` (or `0`, treated as 1) returns
/// the cold latencies unchanged. Pure per index, so summaries built from
/// it stay bit-identical across thread counts.
///
/// Only the latency view changes: traffic counters keep describing the
/// cold runs (the bytes a request *would* move standalone).
pub fn amortized_batch_latencies(
    prepared: &[PreparedRequest],
    batch_size: usize,
    hw: &HwConfig,
) -> Vec<u64> {
    let batch = batch_size.max(1);
    let effective_bw = hw.dram.peak_bytes_per_cycle * hw.dram.efficiency;
    prepared
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let cold = r.report.cycles;
            if i % batch == 0 || effective_bw <= 0.0 {
                return cold;
            }
            let saved_bytes = r.report.mem.traffic(sgcn_mem::Traffic::Weight).dram_bytes;
            let saved = (saved_bytes as f64 / effective_bw).floor() as u64;
            cold.saturating_sub(saved).max(1)
        })
        .collect()
}

impl ServeSummary {
    /// Aggregates a batch. An empty batch yields the all-zero summary
    /// (every field well-defined — no `NaN`/`inf` ever reaches the JSON,
    /// so `SGCN_REQUESTS=0` renders instead of aborting).
    pub fn from_reports(prepared: &[PreparedRequest]) -> Self {
        let latencies: Vec<u64> = prepared.iter().map(|r| r.report.cycles).collect();
        Self::from_reports_with_latencies(prepared, latencies)
    }

    /// Aggregates a batch under substituted per-request latencies (e.g.
    /// [`amortized_batch_latencies`]); traffic and size fields still
    /// come from the cold reports and subgraph stats.
    ///
    /// # Panics
    ///
    /// Panics if `latencies` and `prepared` disagree in length.
    pub fn from_reports_with_latencies(
        prepared: &[PreparedRequest],
        mut latencies: Vec<u64>,
    ) -> Self {
        assert_eq!(prepared.len(), latencies.len(), "one latency per request");
        let n = prepared.len();
        if n == 0 {
            return ServeSummary {
                requests: 0,
                total_cycles: 0,
                mean_cycles: 0.0,
                p50_cycles: 0,
                p95_cycles: 0,
                p99_cycles: 0,
                max_cycles: 0,
                throughput_rps: 0.0,
                total_dram_bytes: 0,
                avg_vertices: 0.0,
                avg_edges: 0.0,
            };
        }
        latencies.sort_unstable();
        let total_cycles: u64 = latencies.iter().sum();
        ServeSummary {
            requests: n,
            total_cycles,
            mean_cycles: total_cycles as f64 / n as f64,
            p50_cycles: percentile(&latencies, 50),
            p95_cycles: percentile(&latencies, 95),
            p99_cycles: percentile(&latencies, 99),
            max_cycles: *latencies.last().expect("non-empty"),
            // Zero total cycles would render `inf`; define the degenerate
            // throughput as 0 (the deterministic-JSON guarantee).
            throughput_rps: if total_cycles == 0 {
                0.0
            } else {
                n as f64 * 1e9 / total_cycles as f64
            },
            total_dram_bytes: prepared.iter().map(|r| r.report.dram_bytes()).sum(),
            avg_vertices: prepared.iter().map(|r| r.stats.vertices).sum::<u64>() as f64 / n as f64,
            avg_edges: prepared.iter().map(|r| r.stats.edges).sum::<u64>() as f64 / n as f64,
        }
    }

    /// Deterministic JSON rendering (fixed field order, fixed float
    /// precision) — the `BENCH_serve.json` payload, byte-identical
    /// across thread counts by construction. The label is escaped, so
    /// any string is safe.
    pub fn to_json(&self, label: &str) -> String {
        let label = label.replace('\\', "\\\\").replace('"', "\\\"");
        format!(
            "{{\n  \"bench\": \"serve_sim\",\n  \"workload\": \"{label}\",\n  \"requests\": {},\n  \"p50_cycles\": {},\n  \"p95_cycles\": {},\n  \"p99_cycles\": {},\n  \"max_cycles\": {},\n  \"mean_cycles\": {:.3},\n  \"total_cycles\": {},\n  \"throughput_rps\": {:.3},\n  \"total_dram_bytes\": {},\n  \"avg_vertices\": {:.3},\n  \"avg_edges\": {:.3}\n}}\n",
            self.requests,
            self.p50_cycles,
            self.p95_cycles,
            self.p99_cycles,
            self.max_cycles,
            self.mean_cycles,
            self.total_cycles,
            self.throughput_rps,
            self.total_dram_bytes,
            self.avg_vertices,
            self.avg_edges,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::AccelModel;
    use queueing::prepare;

    fn tiny_ctx() -> ServingContext {
        ServingContext::new(ServingConfig {
            dataset: DatasetId::Cora,
            scale: SynthScale::tiny(),
            fanouts: Fanouts::new(vec![6, 3]),
            width: 64,
            seed: 7,
        })
    }

    #[test]
    fn request_stream_is_deterministic_and_in_bounds() {
        let ctx = tiny_ctx();
        let a = ctx.request_stream(40);
        let b = ctx.request_stream(40);
        assert_eq!(a, b);
        let n = ctx.dataset.graph.num_vertices();
        for (i, r) in a.iter().enumerate() {
            assert_eq!(r.index, i);
            assert!((r.seed_vertex as usize) < n);
        }
    }

    #[test]
    fn workload_shapes_match_subgraph() {
        let ctx = tiny_ctx();
        let req = ctx.request_stream(3)[1];
        let sub = ctx.sample(&req);
        let wl = ctx.build_workload_from(&req, sub.clone());
        assert_eq!(wl.vertices(), sub.num_vertices());
        assert_eq!(wl.graph(), &sub.graph);
        assert_eq!(wl.trace.num_layers(), ctx.network.layers);
        assert_eq!(wl.input_features().rows(), sub.num_vertices());
        // The input slice carries the exact rows of the full X¹.
        assert!(wl.vertices() <= 1 + 6 + 6 * 3);
    }

    #[test]
    fn same_seed_vertex_is_position_independent() {
        let ctx = tiny_ctx();
        let a = Request {
            index: 0,
            seed_vertex: 42,
        };
        let b = Request {
            index: 900,
            seed_vertex: 42,
        };
        assert_eq!(
            ctx.build_workload_from(&a, ctx.sample(&a)).trace,
            ctx.build_workload_from(&b, ctx.sample(&b)).trace
        );
    }

    #[test]
    fn serve_produces_nonzero_report() {
        let ctx = tiny_ctx();
        let req = ctx.request_stream(1)[0];
        let p = &prepare(&ctx, &[req], &AccelModel::sgcn(), &HwConfig::default())[0];
        assert!(p.report.cycles > 0);
        assert!(p.report.dram_bytes() > 0);
        assert!(p.stats.vertices >= 1);
        assert_eq!(p.stats.vertices, p.vertices.len() as u64);
    }

    /// Preparing a stream at once (duplicates simulated once) equals
    /// preparing each of its requests alone.
    #[test]
    fn batch_matches_serial_replay() {
        let ctx = tiny_ctx();
        let reqs = ctx.hotspot_stream(12, 3);
        let hw = HwConfig::default();
        let model = AccelModel::sgcn();
        let batch = prepare(&ctx, &reqs, &model, &hw);
        let serial: Vec<PreparedRequest> = reqs
            .iter()
            .map(|r| prepare(&ctx, std::slice::from_ref(r), &model, &hw).remove(0))
            .collect();
        assert_eq!(batch, serial);
    }

    #[test]
    fn with_fanouts_equals_fresh_context() {
        let ctx = tiny_ctx();
        let fanouts = Fanouts::new(vec![3, 2, 2]);
        let derived = ctx.with_fanouts(fanouts.clone());
        let fresh = ServingContext::new(ServingConfig {
            fanouts,
            ..ctx.config().clone()
        });
        assert_eq!(derived.network, fresh.network);
        let req = derived.request_stream(2)[1];
        assert_eq!(req, fresh.request_stream(2)[1]);
        let hw = HwConfig::default();
        assert_eq!(
            prepare(&derived, &[req], &AccelModel::sgcn(), &hw),
            prepare(&fresh, &[req], &AccelModel::sgcn(), &hw)
        );
    }

    /// Every model's prepared stream carries, per request, the
    /// subgraph size and the cold report of sampling, building and
    /// simulating that request on its own.
    #[test]
    fn prepared_replay_equals_batch_replay() {
        let ctx = tiny_ctx();
        let reqs = ctx.hotspot_stream(10, 4);
        let hw = HwConfig::default();
        for model in [AccelModel::sgcn(), AccelModel::gcnax()] {
            let prepared = prepare(&ctx, &reqs, &model, &hw);
            assert_eq!(prepared.len(), reqs.len());
            for (p, req) in prepared.iter().zip(&reqs) {
                let sub = ctx.sample(req);
                let vertices = sub.vertices.clone();
                let wl = ctx.build_workload_from(req, sub);
                assert_eq!(p.request, *req);
                assert_eq!(p.vertices, vertices);
                assert_eq!(p.stats.vertices, wl.vertices() as u64);
                assert_eq!(p.stats.edges, wl.graph().num_edges() as u64);
                assert_eq!(p.report, model.simulate(&wl, &hw), "{}", model.name);
            }
        }
    }

    #[test]
    fn summary_percentiles_are_ordered() {
        let ctx = tiny_ctx();
        let reqs = ctx.request_stream(16);
        let batch = prepare(&ctx, &reqs, &AccelModel::sgcn(), &HwConfig::default());
        let s = ServeSummary::from_reports(&batch);
        assert_eq!(s.requests, 16);
        assert!(s.p50_cycles <= s.p95_cycles);
        assert!(s.p95_cycles <= s.p99_cycles);
        assert!(s.p99_cycles <= s.max_cycles);
        assert!(s.throughput_rps > 0.0);
        assert!(s.mean_cycles * 16.0 - s.total_cycles as f64 == 0.0 || s.total_cycles > 0);
        assert!(s.avg_vertices >= 1.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 95), 95);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[], 50), 0);
    }

    #[test]
    fn json_is_deterministic() {
        let ctx = tiny_ctx();
        let reqs = ctx.request_stream(4);
        let batch = prepare(&ctx, &reqs, &AccelModel::sgcn(), &HwConfig::default());
        let s = ServeSummary::from_reports(&batch);
        assert_eq!(s.to_json("CR"), s.to_json("CR"));
        assert!(s.to_json("CR").contains("\"workload\": \"CR\""));
        // Labels with JSON metacharacters are escaped, not interpolated.
        let tricky = s.to_json("my \"hot\" \\stream");
        assert!(
            tricky.contains(r#""workload": "my \"hot\" \\stream""#),
            "{tricky}"
        );
    }

    #[test]
    fn empty_summary_is_all_zeros_and_renders_finite_json() {
        let s = ServeSummary::from_reports(&[]);
        assert_eq!(s.requests, 0);
        assert_eq!(s.total_cycles, 0);
        assert_eq!(s.mean_cycles, 0.0);
        assert_eq!(s.max_cycles, 0);
        assert_eq!(s.throughput_rps, 0.0);
        assert_eq!(s.avg_vertices, 0.0);
        let json = s.to_json("empty");
        assert!(
            !json.contains("inf") && !json.contains("NaN") && !json.contains("nan"),
            "{json}"
        );
        assert!(json.contains("\"requests\": 0"), "{json}");
        assert!(json.contains("\"throughput_rps\": 0.000"), "{json}");
    }

    #[test]
    fn zero_cycle_reports_yield_zero_throughput_not_inf() {
        // A degenerate batch whose requests took zero cycles must not
        // divide by zero: throughput is defined as 0.
        let rr = PreparedRequest {
            request: Request {
                index: 0,
                seed_vertex: 0,
            },
            vertices: vec![0],
            stats: queueing::RequestStats {
                vertices: 1,
                ..Default::default()
            },
            class_reports: Vec::new(),
            formats: Vec::new(),
            lite_reports: Vec::new(),
            lite_vertices: Vec::new(),
            report: crate::metrics::SimReport {
                accelerator: "test",
                workload: "WL",
                cycles: 0,
                agg_cycles: 0,
                comb_cycles: 0,
                mem_cycles: 0,
                macs: 0,
                mem: Default::default(),
                energy: Default::default(),
                tdp_watts: 0.0,
                layers: Vec::new().into(),
            },
        };
        let s = ServeSummary::from_reports(&[rr]);
        assert_eq!(s.requests, 1);
        assert_eq!(s.throughput_rps, 0.0);
        assert!(s.mean_cycles == 0.0);
        let json = s.to_json("degenerate");
        assert!(!json.contains("inf") && !json.contains("NaN"), "{json}");
    }

    #[test]
    fn hotspot_stream_draws_from_a_small_pool() {
        let ctx = tiny_ctx();
        let a = ctx.hotspot_stream(64, 4);
        let b = ctx.hotspot_stream(64, 4);
        assert_eq!(a, b, "deterministic");
        let mut distinct: Vec<u32> = a.iter().map(|r| r.seed_vertex).collect();
        distinct.sort_unstable();
        distinct.dedup();
        // 64 draws over a 4-vertex pool cover every pool member with
        // overwhelming probability, and the pool itself holds exactly 4
        // distinct vertices (partial Fisher–Yates, no replacement).
        assert_eq!(distinct.len(), 4, "{} distinct seeds", distinct.len());
        let n = ctx.dataset.graph.num_vertices();
        for (i, r) in a.iter().enumerate() {
            assert_eq!(r.index, i);
            assert!((r.seed_vertex as usize) < n);
        }
    }

    #[test]
    #[should_panic(expected = "hotspot pool")]
    fn zero_hotspot_pool_panics() {
        let _ = tiny_ctx().hotspot_stream(4, 0);
    }
}
