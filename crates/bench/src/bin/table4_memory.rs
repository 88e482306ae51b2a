//! Table 4: memory footprint of the index structures.
//!
//! The indices are populated with 10 / 100 / 1k / 10k / 100k model
//! records and their in-memory footprints reported in MB. The paper's
//! claim: the additional memory is negligible (tens of MB at 100K
//! models) because only metadata lives in memory — the models stay on
//! disk (Section 5.5).
//!
//! ```sh
//! cargo run --release -p sommelier-bench --bin table4_memory
//! ```

use serde::Serialize;
use sommelier_bench::{fmt, print_table, write_json};
use sommelier_graph::{Model, ModelBuilder, TaskKind};
use sommelier_index::footprint::{resource_footprint_bytes, semantic_footprint_bytes, to_mb};
use sommelier_index::semantic::{PairAnalyzer, SemanticIndexConfig};
use sommelier_index::{ResourceIndex, SemanticIndex};
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
    w.set(1, 1, 1.0);
    ModelBuilder::new(format!("m{i:06}"), TaskKind::Other, Shape::vector(2))
        .dense_with(w, None)
        .build()
        .expect("valid")
}

#[derive(Serialize)]
struct Row {
    models: usize,
    resource_mb: f64,
    semantic_mb: f64,
}

fn main() {
    let sizes = [10usize, 100, 1_000, 10_000, 100_000];
    let mut results: Vec<Row> = Vec::new();

    for &n in &sizes {
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
        let row = Row {
            models: n,
            resource_mb: to_mb(resource_footprint_bytes(&resource)),
            semantic_mb: to_mb(semantic_footprint_bytes(&semantic)),
        };
        println!(
            "{n:>7} models: resource {:.4} MB, semantic {:.4} MB",
            row.resource_mb, row.semantic_mb
        );
        results.push(row);
    }

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.models),
                fmt(r.resource_mb, 3),
                fmt(r.semantic_mb, 3),
            ]
        })
        .collect();
    print_table(
        "Table 4: memory footprint of the indices (MB)",
        &["# Models", "Resource", "Semantic"],
        &rows,
    );

    let last = results.last().expect("non-empty");
    println!(
        "\ntotal at 100K models: {:.1} MB — negligible next to model weights (paper: ~78 MB)",
        last.resource_mb + last.semantic_mb
    );
    write_json("table4_memory", &results);
}
