//! Criterion microbenches for the memory hierarchy: cache probe
//! throughput, DRAM model service accounting, and the line-run
//! compaction replay vs the span-at-a-time path.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sgcn_formats::{LineRun, RunCompactor, Span};
use sgcn_mem::{
    Cache, CacheConfig, CacheEngine, Dram, DramConfig, ListCache, MemorySystem, Traffic,
};

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("sequential_probe", |b| {
        let mut cache = Cache::new(CacheConfig::default());
        b.iter(|| {
            for i in 0..10_000u64 {
                cache.access(i * 64 % (1 << 20));
            }
        })
    });
    g.bench_function("random_probe", |b| {
        let mut cache = Cache::new(CacheConfig::default());
        let mut rng = SmallRng::seed_from_u64(1);
        let addrs: Vec<u64> = (0..10_000)
            .map(|_| rng.gen_range(0..(1u64 << 24)))
            .collect();
        b.iter(|| {
            for &a in &addrs {
                cache.access(a);
            }
        })
    });
    g.bench_function("random_probe_list_reference", |b| {
        let mut cache = ListCache::new(CacheConfig::default());
        let mut rng = SmallRng::seed_from_u64(1);
        let addrs: Vec<u64> = (0..10_000)
            .map(|_| rng.gen_range(0..(1u64 << 24)))
            .collect();
        b.iter(|| {
            for &a in &addrs {
                cache.access(a);
            }
        })
    });
    g.finish();
}

/// The flat cache engine vs the recency-list reference engine on the
/// same span reads: identical counters, different cost.
fn bench_spans(c: &mut Criterion) {
    let mut g = c.benchmark_group("span_reads");
    // 10k spans of 384 B (a 96-column f32 slice) with feature-sweep-like
    // reuse: a hot window revisited plus a cold streaming tail.
    let mut rng = SmallRng::seed_from_u64(7);
    let spans: Vec<u64> = (0..10_000)
        .map(|i| {
            if i % 3 == 0 {
                rng.gen_range(0u64..1 << 16)
            } else {
                rng.gen_range(0u64..1 << 23)
            }
        })
        .collect();
    g.throughput(Throughput::Bytes(10_000 * 384));
    g.bench_function("fast_flat_engine", |b| {
        let mut mem = MemorySystem::with_engine(
            CacheConfig::with_capacity_kib(64),
            DramConfig::hbm2(),
            CacheEngine::Flat,
        );
        b.iter(|| {
            let mut counts = sgcn_mem::SpanCounts::default();
            for &a in &spans {
                counts.add(mem.read_span(a, 384, Traffic::FeatureRead));
            }
            counts
        })
    });
    g.bench_function("list_reference_engine", |b| {
        let mut mem = MemorySystem::with_engine(
            CacheConfig::with_capacity_kib(64),
            DramConfig::hbm2(),
            CacheEngine::List,
        );
        b.iter(|| {
            let mut counts = sgcn_mem::SpanCounts::default();
            for &a in &spans {
                counts.add(mem.read_span(a, 384, Traffic::FeatureRead));
            }
            counts
        })
    });
    g.finish();
}

/// The tentpole's line-granular compaction: replaying a BEICSR-shaped
/// span stream (bitmap head + adjacent value window per row, sharing a
/// seam line) through `access_lines` as pre-compacted runs vs issuing
/// each span through `read_span`. Both produce bit-identical counters;
/// the run path pays one batched probe/DRAM walk per run.
fn bench_line_runs(c: &mut Criterion) {
    let mut g = c.benchmark_group("line_run_replay");
    // 5k "row reads", each two spans: a 12 B bitmap head followed
    // byte-adjacently by a ~200 B value window (they share a seam line).
    let mut rng = SmallRng::seed_from_u64(21);
    let rows: Vec<u64> = (0..5_000)
        .map(|_| rng.gen_range(0u64..1 << 14) * 512)
        .collect();
    let spans: Vec<[Span; 2]> = rows
        .iter()
        .map(|&base| [Span::new(base, 12), Span::new(base + 12, 200)])
        .collect();
    let mem = || {
        MemorySystem::with_engine(
            CacheConfig::with_capacity_kib(64),
            DramConfig::hbm2(),
            CacheEngine::Flat,
        )
    };
    g.throughput(Throughput::Elements(5_000));
    g.bench_function("span_at_a_time", |b| {
        let mut m = mem();
        b.iter(|| {
            let mut counts = sgcn_mem::SpanCounts::default();
            for pair in &spans {
                for &s in pair {
                    counts.add(m.read_span(s.offset, u64::from(s.bytes), Traffic::FeatureRead));
                }
            }
            counts
        })
    });
    g.bench_function("compact_then_replay", |b| {
        let mut m = mem();
        b.iter(|| {
            let mut counts = sgcn_mem::SpanCounts::default();
            for pair in &spans {
                let mut compactor = RunCompactor::reads(64);
                let mut runs: [LineRun; 2] = [LineRun::default(); 2];
                let mut n = 0usize;
                for &s in pair {
                    compactor.push(s, &mut |r| {
                        runs[n] = r;
                        n += 1;
                    });
                }
                compactor.finish(&mut |r| {
                    runs[n] = r;
                    n += 1;
                });
                for &r in &runs[..n] {
                    counts.add(m.access_lines(0, r, Traffic::FeatureRead));
                }
            }
            counts
        })
    });
    g.bench_function("precompacted_replay", |b| {
        // The aggregation sweep's memoized steady state: runs compacted
        // once, replayed many times.
        let runs: Vec<LineRun> = spans
            .iter()
            .map(|pair| {
                let mut out = LineRun::default();
                let mut compactor = RunCompactor::reads(64);
                for &s in pair {
                    compactor.push(s, &mut |r| out = r);
                }
                compactor.finish(&mut |r| out = r);
                out
            })
            .collect();
        let mut m = mem();
        b.iter(|| {
            let mut counts = sgcn_mem::SpanCounts::default();
            for &r in &runs {
                counts.add(m.access_lines(0, r, Traffic::FeatureRead));
            }
            counts
        })
    });
    g.finish();
}

fn bench_dram(c: &mut Criterion) {
    let mut g = c.benchmark_group("dram");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("streaming_bursts", |b| {
        let mut dram = Dram::new(DramConfig::hbm2());
        b.iter(|| {
            for i in 0..10_000u64 {
                dram.access(i * 64, false);
            }
            dram.elapsed_cycles()
        })
    });
    g.bench_function("streaming_burst_runs", |b| {
        // The batched walk behind uncached streams and miss runs —
        // bit-identical clocks/counters to per-burst `access`.
        let mut dram = Dram::new(DramConfig::hbm2());
        b.iter(|| {
            for chunk in 0..10u64 {
                dram.access_run(chunk * 64_000, 1_000, 64, false);
            }
            dram.elapsed_cycles()
        })
    });
    g.finish();
}

fn bench_system(c: &mut Criterion) {
    let mut g = c.benchmark_group("memory_system");
    g.throughput(Throughput::Bytes(10_000 * 256));
    g.bench_function("read_256B_requests", |b| {
        let mut mem = MemorySystem::new(CacheConfig::default(), DramConfig::hbm2());
        let mut rng = SmallRng::seed_from_u64(2);
        let addrs: Vec<u64> = (0..10_000)
            .map(|_| rng.gen_range(0..(1u64 << 26)))
            .collect();
        b.iter(|| {
            for &a in &addrs {
                mem.read(a, 256, Traffic::FeatureRead);
            }
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_cache,
    bench_spans,
    bench_line_runs,
    bench_dram,
    bench_system
);
criterion_main!(benches);
