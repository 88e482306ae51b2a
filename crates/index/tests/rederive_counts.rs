//! How many entries one mutation re-derives, at two sample sizes.
//!
//! A binary of its own, so the process-wide
//! `index.semantic.entries_rederived` counter is this test's alone. Under
//! a constant analyzer every pair is comparable, so each entry holds
//! every two-hop target and the affected set is as wide as it gets. The
//! counts are deterministic: each ceiling is what the current
//! re-derivation does, and a patch that shrinks the set must keep the
//! lists exact.

use sommelier_graph::{Model, ModelBuilder, TaskKind};
use sommelier_index::semantic::SemanticIndexConfig;
use sommelier_index::{PairAnalyzer, SemanticIndex};
use sommelier_parallel::ThreadPool;
use sommelier_runtime::metrics::counters;
use sommelier_tensor::{stable_hash64, Prng, Shape};

const N: usize = 500;

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
fn one_mutation_rederives_a_bounded_number_of_entries() {
    let pool = ThreadPool::new(2);
    let resolve = |k: &str| Some(model(k, 0));
    let extra = "extra".to_string();
    let victim = "m0000".to_string();
    // Add, replace and remove: (removes, adds, ceiling at sample 5, at
    // 20). At sample 20 two hops reach nearly every one of the 501 keys.
    let mutations: [(&[String], Vec<Model>, [u64; 2]); 3] = [
        (&[], vec![model(&extra, 1)], [174, 496]),
        (std::slice::from_ref(&victim), vec![model(&victim, 2)], [253, 500]),
        (std::slice::from_ref(&extra), vec![], [173, 495]),
    ];
    for (lane, sample_size) in [5, 20].into_iter().enumerate() {
        let config = SemanticIndexConfig {
            sample_size,
            segments: false,
            max_candidates: 64,
        };
        let mut idx = SemanticIndex::new(config, 3);
        let all: Vec<Model> = (0..N).map(|i| model(&format!("m{i:04}"), 0)).collect();
        idx.apply(&pool, &[], &all, &resolve, &Constant);
        assert!(idx.underived_entries().is_empty());
        for (removes, adds, ceilings) in &mutations {
            let before = counters::get("index.semantic.entries_rederived");
            idx.apply(&pool, removes, adds, &resolve, &Constant);
            let count = counters::get("index.semantic.entries_rederived") - before;
            assert!(
                count <= ceilings[lane],
                "sample {sample_size}: {count} entries re-derived, ceiling {}",
                ceilings[lane]
            );
            assert!(idx.underived_entries().is_empty(), "sample {sample_size}");
        }
    }
}
