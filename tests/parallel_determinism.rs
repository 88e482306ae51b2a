//! Integration: parallel index construction is bit-for-bit deterministic.
//!
//! The build pipeline plans sequentially, fans the pairwise analyses out
//! across the thread pool, and applies the results in plan order; every
//! per-pair RNG is seeded from a stable hash of the pair. The persisted
//! `sommelier.index.json` must therefore be byte-identical at any
//! `--jobs` level.

use sommelier::prelude::*;
use std::sync::Arc;

/// Publish a deterministic fleet of models into a fresh repository.
fn populate(repo: &InMemoryRepository) {
    let teacher = Teacher::for_task(TaskKind::ImageRecognition, 77);
    let bias = DatasetBias::new(&teacher, "imagenet", 0.08);
    let mut rng = Prng::seed_from_u64(21);
    for (i, family) in [
        Family::Resnetish,
        Family::Mobilenetish,
        Family::Vggish,
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
                &FamilyScale::new(0.8 + 0.3 * size as f64, 3 + i % 2, 0.015),
                &mut frng,
            );
            repo.publish(&name, &m, true).unwrap();
        }
    }
}

/// Build all indices on `jobs` lanes and return the snapshot bytes.
fn snapshot(jobs: usize) -> Vec<u8> {
    let repo = Arc::new(InMemoryRepository::new());
    populate(&repo);
    let mut cfg = SommelierConfig {
        validation_rows: 64,
        jobs,
        ..SommelierConfig::default()
    };
    cfg.index.sample_size = 3;
    cfg.index.segments = false;
    let mut engine = Sommelier::connect(repo as Arc<dyn ModelRepository>, cfg);
    let indexed = engine.index_existing().unwrap();
    assert_eq!(indexed, 8, "all published models should be indexed");
    let path = std::env::temp_dir().join(format!(
        "sommelier-determinism-{}-j{jobs}.index.json",
        std::process::id()
    ));
    engine.save_indices(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

#[test]
fn snapshots_are_byte_identical_across_job_counts_and_cache_modes() {
    // jobs=1 is the sequential reference implementation.
    let reference = snapshot(1);
    assert!(!reference.is_empty());
    for jobs in [4, 8] {
        assert_eq!(reference, snapshot(jobs), "jobs={jobs} diverged from jobs=1");
    }
}

#[test]
fn query_results_are_identical_across_job_counts() {
    let run = |jobs: usize| -> Vec<(String, u64)> {
        let repo = Arc::new(InMemoryRepository::new());
        populate(&repo);
        let mut cfg = SommelierConfig {
            validation_rows: 64,
            jobs,
            ..SommelierConfig::default()
        };
        cfg.index.sample_size = 3;
        cfg.index.segments = false;
        let mut engine = Sommelier::connect(repo as Arc<dyn ModelRepository>, cfg);
        engine.index_existing().unwrap();
        engine
            .query("SELECT models 5 CORR resnetish-0 ON memory <= 500% WITHIN 0.95")
            .unwrap()
            .into_iter()
            .map(|r| (r.key, r.score.to_bits()))
            .collect()
    };
    let sequential = run(1);
    assert_eq!(sequential, run(8), "parallel scoring reordered results");
}
