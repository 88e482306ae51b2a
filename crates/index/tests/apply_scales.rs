//! One mutation of a large index ranks a bounded number of pairs.
//!
//! A binary of its own with a single test, so the process-wide
//! `index.semantic.rank_evals` counter is its alone. The counter sees
//! hashing, not allocation; the benchmark's
//! `query.engine.apply.alloc_bytes` holds that side.

use sommelier_graph::{Fingerprint, Model, ModelBuilder, TaskKind};
use sommelier_index::semantic::SemanticIndexConfig;
use sommelier_index::{PairAnalyzer, SemanticIndex};
use sommelier_parallel::ThreadPool;
use sommelier_runtime::metrics::counters;
use sommelier_tensor::{mix64, stable_hash64, Prng, Shape};

const N: u64 = 4_000;

fn model(name: &str, version: u64) -> Model {
    let mut rng = Prng::seed_from_u64(stable_hash64(name.as_bytes()) ^ version);
    ModelBuilder::new(name, TaskKind::Other, Shape::vector(4))
        .dense(2, &mut rng)
        .build()
        .unwrap()
}

struct Constant;

impl PairAnalyzer for Constant {
    fn whole_diff(&self, _: &Model, _: &Model) -> Option<f64> {
        Some(0.125)
    }
}

#[test]
fn one_mutation_ranks_a_bounded_number_of_pairs() {
    let config = SemanticIndexConfig {
        sample_size: 5,
        segments: false,
        max_candidates: 16,
    };
    // Edge-less, as the benchmark's synthetic index is: nothing but the
    // rank itself says who samples whom.
    let entries = (0..N)
        .map(|i| {
            (
                Fingerprint(mix64(&[7, i]) | 1),
                format!("m{i:04}"),
                Vec::new(),
            )
        })
        .collect();
    let base = SemanticIndex::from_parts(config, 3, entries, Vec::new());
    let pool = ThreadPool::new(2);
    let resolve = |k: &str| Some(model(k, 0));
    let extra = "extra".to_string();
    let mutations: [(&[String], Vec<Model>); 3] = [
        (&[], vec![model(&extra, 1)]),
        (std::slice::from_ref(&extra), vec![model(&extra, 2)]),
        (std::slice::from_ref(&extra), vec![]),
    ];

    let mut idx = base.clone();
    let mut images = Vec::new();
    for (removes, adds) in &mutations {
        let before = counters::get("index.semantic.rank_evals");
        idx.apply(&pool, removes, adds, &resolve, &Constant);
        let evals = counters::get("index.semantic.rank_evals") - before;
        // Sized: one early-exit test per survivor at ≈ 40 ranks each
        // and ≈ 20 full draws. Materialising every sample is N².
        assert!(
            (N..250 * N).contains(&evals),
            "{evals} ranks evaluated by one mutation of {N} keys"
        );
        images.push(serde_json::to_string(&idx).unwrap());
    }
    assert!(idx.keys().iter().all(|k| *k != extra) && idx.len() == N as usize);

    // The same mutations with a JSON round trip before each land on
    // the same bytes: nothing an `apply` needs lives outside the image.
    let mut revived = base;
    for ((removes, adds), image) in mutations.iter().zip(&images) {
        revived = serde_json::from_str(&serde_json::to_string(&revived).unwrap()).unwrap();
        revived.apply(&pool, removes, adds, &resolve, &Constant);
        assert_eq!(&serde_json::to_string(&revived).unwrap(), image);
    }
}
