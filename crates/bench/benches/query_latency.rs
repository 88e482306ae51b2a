//! Criterion microbenchmarks for run-time query operations (the unit
//! costs behind paper Table 3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sommelier_graph::{Model, ModelBuilder, TaskKind};
use sommelier_index::semantic::{PairAnalyzer, SemanticIndexConfig};
use sommelier_index::{ResourceConstraint, ResourceIndex, SemanticIndex};
use sommelier_parallel::ThreadPool;
use sommelier_runtime::ResourceProfile;
use sommelier_tensor::{mix64, stable_hash64, Prng, Shape, Tensor};

struct SyntheticAnalyzer {
    seed: u64,
}

impl PairAnalyzer for SyntheticAnalyzer {
    fn whole_diff(&self, a: &Model, b: &Model) -> Option<f64> {
        // Deterministic per pair so parallel insertion stays reproducible.
        let pair = mix64(&[
            self.seed,
            stable_hash64(a.name.as_bytes()),
            stable_hash64(b.name.as_bytes()),
        ]);
        Some(Prng::seed_from_u64(pair).uniform() * 0.3)
    }
}

fn record_model(i: usize) -> Model {
    let mut w = Tensor::zeros(2, 2);
    w.set(0, 0, i as f32 + 1.0);
    ModelBuilder::new(format!("m{i:06}"), TaskKind::Other, Shape::vector(2))
        .dense_with(w, None)
        .build()
        .expect("valid")
}

fn populate(n: usize) -> (SemanticIndex, ResourceIndex) {
    let mut rng = Prng::seed_from_u64(42);
    let mut resource = ResourceIndex::default();
    let mut semantic = SemanticIndex::new(
        SemanticIndexConfig {
            sample_size: 5,
            segments: false,
            max_candidates: 64,
        },
        1,
    );
    let analyzer = SyntheticAnalyzer { seed: 7 };
    let resolve = |k: &str| {
        let i: usize = k.trim_start_matches('m').parse().ok()?;
        Some(record_model(i))
    };
    let models: Vec<Model> = (0..n).map(record_model).collect();
    semantic.apply(&ThreadPool::new(1), &[], &models, &resolve, &analyzer);
    for m in &models {
        resource.insert(
            &m.name,
            ResourceProfile {
                memory_mb: rng.uniform() * 1000.0,
                gflops: rng.uniform() * 20.0,
                latency_ms: rng.uniform() * 100.0,
            },
        );
    }
    (semantic, resource)
}

fn bench_lookups(c: &mut Criterion) {
    for &n in &[1_000usize, 10_000] {
        let (semantic, resource) = populate(n);
        let mut group = c.benchmark_group(format!("query_at_{n}"));
        group.bench_function(BenchmarkId::new("semantic_lookup", n), |b| {
            b.iter(|| semantic.lookup_key("m000123", 0.8))
        });
        let constraint = ResourceConstraint {
            max_memory_mb: Some(300.0),
            max_gflops: Some(10.0),
            max_latency_ms: None,
        };
        group.bench_function(BenchmarkId::new("resource_query", n), |b| {
            b.iter(|| resource.query(&constraint))
        });
        group.finish();
    }
}

criterion_group!(benches, bench_lookups);
criterion_main!(benches);
