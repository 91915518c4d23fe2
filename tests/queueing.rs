//! Queueing-simulator integration tests: determinism/invariant proptests
//! on the event loop driven by fabricated service profiles (fast — no
//! accelerator simulation inside the property bodies), plus real-path
//! affinity-vs-FIFO and empty-stream checks.
//!
//! Nothing here mutates the process environment — the thread-count
//! equivalence check lives alone in `queueing_threads.rs`, because its
//! `SGCN_THREADS` writes would race the environment reads (`par_map`)
//! that this binary's tests perform concurrently.

use proptest::prelude::*;
use sgcn::accel::AccelModel;
use sgcn::experiments::ExperimentConfig;
use sgcn::serving::queueing::{
    feature_row_bytes, prepare, prepare_degraded, simulate_queue, ArrivalModel, ArrivalProcess,
    EngineLineup, PreparedRequest, QueueConfig, RequestStats, SchedPolicy, ServeFormat,
};
use sgcn::serving::{Request, ServingConfig, ServingContext};
use sgcn::{HwConfig, SimReport};
use sgcn_graph::datasets::DatasetId;
use sgcn_graph::sampling::Fanouts;

fn quick_ctx() -> ServingContext {
    let cfg = ExperimentConfig::quick();
    ServingContext::new(ServingConfig {
        dataset: DatasetId::Cora,
        scale: cfg.scale,
        fanouts: Fanouts::new(vec![8, 4]),
        width: cfg.width,
        seed: cfg.seed,
    })
}

#[test]
fn affinity_warm_hits_dominate_fifo_across_seeds() {
    // The acceptance property: on shared-neighborhood streams the
    // cache-affinity policy reuses at least as many warm lines as
    // round-robin FIFO — checked across several hot-pool shapes.
    let ctx = quick_ctx();
    let hw = HwConfig::default();
    let row = feature_row_bytes(&ctx);
    for (n, pool, seed) in [(24usize, 2usize, 1u64), (24, 4, 2), (30, 6, 3)] {
        let stream = ctx.hotspot_stream(n, pool);
        let prepared = prepare(&ctx, &stream, &AccelModel::sgcn(), &hw);
        let fifo = simulate_queue(
            &prepared,
            &QueueConfig::new(4, SchedPolicy::FifoRoundRobin, 0.8, seed),
            &hw,
            row,
        );
        let aff = simulate_queue(
            &prepared,
            &QueueConfig::new(4, SchedPolicy::CacheAffinity, 0.8, seed),
            &hw,
            row,
        );
        assert!(
            aff.summary.warm_hits >= fifo.summary.warm_hits,
            "pool {pool}: affinity {} < fifo {}",
            aff.summary.warm_hits,
            fifo.summary.warm_hits
        );
    }
}

/// Deduplication is exact: `prepare_degraded` samples, builds and
/// simulates each distinct seed vertex once and copies the result to
/// every request naming it, which must equal preparing each request on
/// its own — every `(class, format)` cell, the lite cells at halved
/// fanouts, and the subgraph stats.
#[test]
fn deduplicated_prepare_matches_a_per_request_oracle() {
    let ctx = quick_ctx();
    let stream = ctx.hotspot_stream(8, 3);
    let mut distinct: Vec<u32> = stream.iter().map(|r| r.seed_vertex).collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert!(distinct.len() < stream.len(), "the stream repeats a vertex");
    let model = AccelModel::sgcn();
    let lineup = EngineLineup::mixed(2, HwConfig::default());
    let prepared = prepare_degraded(&ctx, &stream, &model, &lineup, &ServeFormat::PALETTE);
    assert_eq!(prepared.len(), stream.len());
    let halved = ctx.config().fanouts.caps().iter().map(|&c| (c / 2).max(1));
    let lite_ctx = ctx.with_fanouts(Fanouts::new(halved.collect()));
    for (p, req) in prepared.iter().zip(&stream) {
        let sub = ctx.sample(req);
        let vertices = sub.vertices.clone();
        let wl = ctx.build_workload_from(req, sub);
        let lsub = lite_ctx.sample(req);
        let lite_vertices = lsub.vertices.clone();
        let lwl = lite_ctx.build_workload_from(req, lsub);
        let mut class_reports = Vec::new();
        let mut lite_reports = Vec::new();
        for class in &lineup.classes {
            for f in ServeFormat::PALETTE {
                class_reports.push(model.simulate_with_format(&wl, &class.hw, f.override_kind()));
            }
            lite_reports.push(model.simulate_with_format(&lwl, &class.hw, None));
        }
        let oracle = PreparedRequest {
            request: *req,
            stats: RequestStats {
                vertices: vertices.len() as u64,
                edges: wl.graph().num_edges() as u64,
                sparsity: wl.trace.avg_intermediate_sparsity(),
                feature_bytes: vertices.len() as u64 * feature_row_bytes(&ctx),
            },
            vertices,
            report: class_reports[0].clone(),
            class_reports,
            formats: ServeFormat::PALETTE.to_vec(),
            lite_reports,
            lite_vertices,
        };
        assert_eq!(
            *p, oracle,
            "request {} (vertex {})",
            req.index, req.seed_vertex
        );
    }
}

/// Fabricates a prepared request with a given cold service time, sampled
/// working set and feature-read DRAM footprint — the event loop consumes
/// nothing else of the report.
fn fab(index: usize, cycles: u64, feature_read_bytes: u64, vertices: Vec<u32>) -> PreparedRequest {
    let mut mem = sgcn_mem::MemReport::default();
    // Traffic::ALL order: [Topology, FeatureRead, FeatureWrite, Weight,
    // PartialSum] — slot 1 is the feature-read class.
    mem.per_class[1].dram_bytes = feature_read_bytes;
    PreparedRequest {
        request: Request {
            index,
            seed_vertex: vertices.first().copied().unwrap_or(0),
        },
        vertices,
        report: SimReport {
            accelerator: "fab",
            workload: "FAB",
            cycles,
            agg_cycles: 0,
            comb_cycles: 0,
            mem_cycles: 0,
            macs: 0,
            mem,
            energy: Default::default(),
            tdp_watts: 0.0,
            layers: Vec::new().into(),
        },
        stats: Default::default(),
        class_reports: Vec::new(),
        formats: Vec::new(),
        lite_reports: Vec::new(),
        lite_vertices: Vec::new(),
    }
}

/// Strategy: a stream of fabricated requests (service times, vertex
/// pools) plus queue knobs.
fn stream_strategy() -> impl Strategy<Value = (Vec<PreparedRequest>, usize, u64, f64)> {
    (
        proptest::collection::vec((1_000u64..2_000_000, 0u32..40), 1..40),
        1usize..6,
        0u64..1_000,
        1u32..30,
    )
        .prop_map(|(profile, engines, seed, load_x10)| {
            let prepared: Vec<PreparedRequest> = profile
                .iter()
                .enumerate()
                .map(|(i, &(cycles, pool))| {
                    // Small overlapping vertex windows: neighbors share
                    // lines, so warm reuse actually happens.
                    let vertices: Vec<u32> = (pool..pool + 6).collect();
                    fab(i, cycles, 4096, vertices)
                })
                .collect();
            (prepared, engines, seed, load_x10 as f64 / 10.0)
        })
}

proptest! {
    #[test]
    fn arrival_timeline_is_monotone_and_index_pure(
        seed in 0u64..1_000_000,
        mean in 0.0f64..100_000.0,
        n in 0usize..200,
    ) {
        let p = ArrivalProcess::new(seed, mean);
        let t = p.timeline(n);
        prop_assert_eq!(t.len(), n);
        prop_assert!(t.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(p.timeline(n), t);
        // Index purity: any prefix of the timeline equals the timeline of
        // the prefix.
        let half = p.timeline(n / 2);
        prop_assert_eq!(&t[..n / 2], &half[..]);
    }

    #[test]
    fn event_loop_conserves_requests_and_orders_percentiles(
        scenario in stream_strategy(),
        policy_at in 0usize..SchedPolicy::ALL.len(),
    ) {
        let (prepared, engines, seed, load) = scenario;
        let policy = SchedPolicy::ALL[policy_at];
        let hw = HwConfig::default();
        let cfg = QueueConfig::new(engines, policy, load, seed);
        let out = simulate_queue(&prepared, &cfg, &hw, 256);
        prop_assert_eq!(out.records.len(), prepared.len());
        prop_assert_eq!(out.engine_served.iter().sum::<u64>(), prepared.len() as u64);

        // Per-engine, service intervals are disjoint and ordered. Every
        // in-order policy is also work-conserving: a request starts the
        // moment both it and its engine are ready.
        let mut next_free = vec![0u64; engines];
        for r in &out.records {
            prop_assert!(r.engine < engines);
            prop_assert!(r.start >= r.arrival);
            prop_assert!(r.start >= next_free[r.engine], "engine double-booked");
            if policy != SchedPolicy::SloAware {
                prop_assert_eq!(r.start, r.arrival.max(next_free[r.engine]), "FIFO engine idled");
            }
            prop_assert_eq!(r.finish, r.start + r.service_cycles);
            next_free[r.engine] = r.finish;
        }
        let busy: u64 = out.engine_busy.iter().sum();
        prop_assert_eq!(
            busy,
            out.records.iter().map(|r| r.service_cycles).sum::<u64>()
        );

        let s = &out.summary;
        prop_assert!(s.p50_wait_cycles <= s.p95_wait_cycles);
        prop_assert!(s.p95_wait_cycles <= s.p99_wait_cycles);
        prop_assert!(s.p99_wait_cycles <= s.max_wait_cycles);
        prop_assert!(s.p50_e2e_cycles <= s.p95_e2e_cycles);
        prop_assert!(s.p95_e2e_cycles <= s.p99_e2e_cycles);
        prop_assert!(s.p99_e2e_cycles <= s.max_e2e_cycles);
        prop_assert!(s.utilization >= 0.0 && s.utilization <= 1.0);
        prop_assert!(s.warm_hits <= s.warm_lines);
        prop_assert!(s.makespan_cycles >= out.records.iter().map(|r| r.finish).max().unwrap_or(0));

        // Deterministic replay, down to the rendered bytes.
        let again = simulate_queue(&prepared, &cfg, &hw, 256);
        prop_assert_eq!(&again, &out);
        let json = s.to_json("prop");
        prop_assert_eq!(&again.summary.to_json("prop"), &json);
        prop_assert!(
            !json.contains("inf") && !json.contains("NaN") && !json.contains("nan"),
            "non-finite field in {}", json
        );
    }

    #[test]
    fn service_never_exceeds_cold_latency(scenario in stream_strategy()) {
        let (prepared, engines, seed, load) = scenario;
        // Warm reuse can only shave cycles off the cold service time.
        let hw = HwConfig::default();
        let cfg = QueueConfig::new(engines, SchedPolicy::CacheAffinity, load, seed);
        let out = simulate_queue(&prepared, &cfg, &hw, 256);
        for (r, p) in out.records.iter().zip(&prepared) {
            prop_assert!(r.service_cycles <= p.report.cycles.max(1));
        }
    }
}

#[test]
fn zero_request_harness_path_renders() {
    // The `SGCN_REQUESTS=0` path end to end: empty stream → all-zero
    // summaries with finite JSON from both the offline and online
    // aggregators.
    let ctx = quick_ctx();
    let hw = HwConfig::default();
    let batch = prepare(&ctx, &[], &AccelModel::sgcn(), &hw);
    let serve = sgcn::ServeSummary::from_reports(&batch).to_json("empty");
    assert!(serve.contains("\"requests\": 0"), "{serve}");
    let out = simulate_queue(
        &batch,
        &QueueConfig::new(2, SchedPolicy::CacheAffinity, 0.8, 0),
        &hw,
        feature_row_bytes(&ctx),
    );
    let queue = out.summary.to_json("empty");
    assert!(queue.contains("\"requests\": 0"), "{queue}");
    for json in [serve, queue] {
        assert!(
            !json.contains("inf") && !json.contains("NaN") && !json.contains("nan"),
            "{json}"
        );
    }
}
