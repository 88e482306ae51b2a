//! Integration: consistency invariants of the index structures under the
//! *production* analyzer (real equivalence measurements, not mocks).

use sommelier::index::CandidateKind;
use sommelier::prelude::*;
use std::sync::Arc;

fn engine(sample_size: usize) -> (Sommelier, Vec<String>) {
    let repo = Arc::new(InMemoryRepository::new());
    let teacher = Teacher::for_task(TaskKind::ImageRecognition, 1234);
    let bias = DatasetBias::new(&teacher, "imagenet", 0.08);
    let mut cfg = SommelierConfig {
        validation_rows: 128,
        ..SommelierConfig::default()
    };
    cfg.index.sample_size = sample_size;
    cfg.index.segments = false;
    let mut engine = Sommelier::connect(Arc::clone(&repo) as Arc<dyn ModelRepository>, cfg);
    let mut rng = Prng::seed_from_u64(5);
    let mut names = Vec::new();
    for (i, family) in [
        Family::Resnetish,
        Family::Vggish,
        Family::Inceptionish,
        Family::Mobilenetish,
        Family::Bertish,
        Family::Efficientnetish,
    ]
    .into_iter()
    .enumerate()
    {
        for size in 0..2 {
            let name = format!("{}-{size}", family.slug());
            let mut frng = rng.fork();
            let m = family.build_scaled(
                &name,
                &teacher,
                &bias,
                &FamilyScale::new(0.8 + 0.4 * size as f64, 3 + i % 2, 0.015),
                &mut frng,
            );
            engine.register(&m).unwrap();
            names.push(name);
        }
    }
    (engine, names)
}

#[test]
fn candidate_lists_are_sorted_and_self_free() {
    let (engine, names) = engine(16);
    for name in &names {
        let cands = engine.semantic_index().candidates_of(name);
        assert!(!cands.is_empty(), "{name} has no candidates");
        for w in cands.windows(2) {
            assert!(w[0].score >= w[1].score, "unsorted list for {name}");
        }
        assert!(
            cands.iter().all(|c| c.key != *name),
            "{name} lists itself as a candidate"
        );
        for c in cands {
            assert!(c.score >= 0.0 && c.score <= 1.0);
            assert!(c.diff_bound >= 0.0);
            assert!((c.score - (1.0 - c.diff_bound).max(0.0)).abs() < 1e-12);
        }
    }
}

#[test]
fn transitive_bounds_dominate_direct_measurements() {
    // Bounds recorded transitively must never be tighter than the direct
    // measurement would be (they are conservative by construction:
    // d(X,Z) ≤ d(X,Y) + d(Y,Z)).
    let (engine, names) = engine(3); // force transitive derivation
    for name in &names {
        let transitive: Vec<(String, f64)> = engine
            .semantic_index()
            .candidates_of(name)
            .iter()
            .filter(|c| matches!(c.kind, CandidateKind::Transitive { .. }))
            .map(|c| (c.key.clone(), c.diff_bound))
            .collect();
        for (other, bound) in transitive {
            let measured = engine.measure_diff(name, &other).unwrap();
            assert!(
                bound + 1e-9 >= measured,
                "{name}→{other}: transitive bound {bound} < measured {measured}"
            );
        }
    }
}

#[test]
fn resource_index_agrees_with_exhaustive_oracle() {
    let (engine, names) = engine(8);
    let index = engine.resource_index();
    let base = index.profile_of(&names[0]).unwrap().memory_mb;
    // The oracle is the definition: every key whose profile the
    // constraint admits, in key order.
    for &frac in &[0.25f64, 0.5, 1.0, 2.0] {
        let c = sommelier::index::ResourceConstraint {
            max_memory_mb: Some(base * frac),
            max_gflops: None,
            max_latency_ms: None,
        };
        let want: Vec<&str> = index
            .entries_audit()
            .into_iter()
            .filter(|(_, profile)| c.admits(profile))
            .map(|(key, _)| key)
            .collect();
        assert_eq!(index.query(&c), want, "divergence at frac {frac}");
    }
    let all = index.query(&sommelier::index::ResourceConstraint::default());
    assert_eq!(all.len(), names.len(), "an unbounded query returns every model");
}

#[test]
fn query_results_never_violate_their_plan() {
    let (engine, names) = engine(8);
    let reader = engine.reader();
    for &thr in &[0.2f64, 0.5, 0.8] {
        for &mem in &[0.3f64, 0.7, 1.0] {
            let q = Query::corr(names[0].clone())
                .within(thr)
                .memory_at_most_frac(mem)
                .top(20);
            let results = reader.query_ast(&q).unwrap();
            let budget = mem
                * engine
                    .resource_index()
                    .profile_of(&names[0])
                    .unwrap()
                    .memory_mb;
            for r in &results {
                assert!(r.score >= thr - 1e-9, "score violates threshold");
                assert!(
                    r.profile.memory_mb <= budget + 1e-9,
                    "memory violates budget"
                );
            }
        }
    }
}
