//! Memory footprint accounting for the index structures (paper Table 4).
//!
//! Sommelier keeps only the two indices in memory; models stay on disk
//! (Section 5.5 "Persistence"). These estimators measure what the indices
//! themselves occupy, so the Table 4 experiment can report MB-per-model-
//! count without heap instrumentation.

use crate::resource::ResourceIndex;
use crate::semantic::{CandidateKind, SemanticIndex};

/// Approximate bytes held by a semantic index: hashtable entries, key
/// strings, and candidate records.
pub fn semantic_footprint_bytes(index: &SemanticIndex) -> usize {
    let mut total = 0usize;
    for key in index.keys() {
        // fingerprint + the key in its entry and in the reverse map
        total += 8 + key.len() * 2;
        for c in index.candidates_of(key) {
            total += c.key.len()
                + 2 * std::mem::size_of::<f64>()
                + match &c.kind {
                    CandidateKind::Whole => 1,
                    CandidateKind::Transitive { via } => 1 + via.len(),
                    CandidateKind::Synthesized { donor } => 1 + donor.len(),
                };
        }
    }
    total
}

/// Approximate bytes held by a resource index (keys + profiles).
pub fn resource_footprint_bytes(index: &ResourceIndex) -> usize {
    index.footprint_bytes()
}

/// Bytes → MB.
pub fn to_mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic::{PairAnalyzer, SemanticIndexConfig};
    use sommelier_graph::{Model, ModelBuilder, TaskKind};
    use sommelier_parallel::ThreadPool;
    use sommelier_runtime::ResourceProfile;
    use sommelier_tensor::{Prng, Shape};

    struct ConstAnalyzer;
    impl PairAnalyzer for ConstAnalyzer {
        fn whole_diff(&self, _: &Model, _: &Model) -> Option<f64> {
            Some(0.1)
        }
    }

    fn model(i: usize) -> Model {
        let mut rng = Prng::seed_from_u64(i as u64);
        ModelBuilder::new(format!("m{i}"), TaskKind::Other, Shape::vector(4))
            .dense(2, &mut rng)
            .build()
            .unwrap()
    }

    #[test]
    fn semantic_footprint_scales_with_models() {
        let sizes = [5usize, 20];
        let mut footprints = Vec::new();
        for &n in &sizes {
            let mut idx = SemanticIndex::new(SemanticIndexConfig::default(), 1);
            let models: Vec<Model> = (0..n).map(model).collect();
            let pool = models.clone();
            let resolve = move |k: &str| pool.iter().find(|m| m.name == k).cloned();
            idx.apply(&ThreadPool::new(1), &[], &models, &resolve, &ConstAnalyzer);
            footprints.push(semantic_footprint_bytes(&idx));
        }
        assert!(footprints[1] > footprints[0]);
    }

    #[test]
    fn resource_footprint_scales_with_models() {
        let mut small = ResourceIndex::default();
        let mut big = ResourceIndex::default();
        for i in 0..5 {
            small.insert(
                format!("m{i}"),
                ResourceProfile {
                    memory_mb: i as f64,
                    gflops: 1.0,
                    latency_ms: 1.0,
                },
            );
        }
        for i in 0..500 {
            big.insert(
                format!("m{i}"),
                ResourceProfile {
                    memory_mb: i as f64,
                    gflops: 1.0,
                    latency_ms: 1.0,
                },
            );
        }
        assert!(resource_footprint_bytes(&big) > resource_footprint_bytes(&small));
    }

    #[test]
    fn mb_conversion() {
        assert!((to_mb(2_000_000) - 2.0).abs() < 1e-12);
    }
}
