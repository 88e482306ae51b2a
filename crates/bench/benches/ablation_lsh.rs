//! The resource index's two whole-index reads (the DESIGN.md ablation
//! for the Section 5.3 index choice): the range query, one exact pass,
//! and the `nearest` probe, a slab scan. Neither reads the LSH; these
//! are the baselines an LSH-backed `nearest` would have to beat.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sommelier_index::lsh::LshConfig;
use sommelier_index::{ResourceConstraint, ResourceIndex};
use sommelier_runtime::ResourceProfile;
use sommelier_tensor::Prng;

fn populate(n: usize) -> ResourceIndex {
    let mut rng = Prng::seed_from_u64(42);
    let mut idx = ResourceIndex::new(LshConfig::default(), 1);
    for i in 0..n {
        idx.insert(
            format!("m{i:06}"),
            ResourceProfile {
                memory_mb: rng.uniform() * 1000.0,
                gflops: rng.uniform() * 20.0,
                latency_ms: rng.uniform() * 100.0,
            },
        );
    }
    idx
}

fn bench_range_query(c: &mut Criterion) {
    let constraint = ResourceConstraint {
        max_memory_mb: Some(120.0),
        max_gflops: Some(4.0),
        max_latency_ms: Some(40.0),
    };
    let mut group = c.benchmark_group("resource_range");
    group.sample_size(20);
    for &n in &[10_000usize, 100_000] {
        let idx = populate(n);
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| idx.query(&constraint))
        });
    }
    group.finish();
}

fn bench_nearest(c: &mut Criterion) {
    let target = ResourceProfile {
        memory_mb: 100.0,
        gflops: 2.0,
        latency_ms: 10.0,
    };
    let mut group = c.benchmark_group("resource_nearest");
    for &n in &[10_000usize, 100_000] {
        let idx = populate(n);
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| idx.nearest(&target, 5))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_range_query, bench_nearest);
criterion_main!(benches);
