//! Churn determinism: the incrementally maintained index is a pure
//! function of the final key universe.
//!
//! The contract under test (PR 8's acceptance bar): after an arbitrary
//! sequence of register, remove and replace batches, the
//! engine's indices serialize — JSON *and* `.somb` — byte-identically
//! to a from-scratch `index_existing` build over just the surviving
//! models, at `jobs` 1, 4, and 8. No drift from removal order, slot
//! reuse, compaction timing, edge-table retention, or scheduling.

use proptest::prelude::*;
use sommelier_graph::{Model, TaskKind};
use sommelier_index::persist::{IndexSnapshot, SnapshotStats, SNAPSHOT_VERSION};
use sommelier_index::somb;
use sommelier_query::{MutationBatch, Sommelier, SommelierConfig};
use sommelier_repo::{InMemoryRepository, ModelRepository};
use sommelier_tensor::Prng;
use sommelier_zoo::families::{Family, FamilyScale};
use sommelier_zoo::teacher::{DatasetBias, Teacher};
use std::collections::BTreeSet;
use std::sync::Arc;

const POOL: usize = 5;

/// Deterministic model pool: `m-<idx>` in two content generations, so
/// a replace can swap a key's weights without touching its name.
fn build_model(idx: usize, generation: usize) -> Model {
    let teacher = Teacher::for_task(TaskKind::ImageRecognition, 51);
    let bias = DatasetBias::new(&teacher, "imagenet", 0.05);
    let mut rng = Prng::seed_from_u64(1000 + (idx * 2 + generation) as u64);
    let scale = 1.4 - 0.2 * idx as f64 - 0.05 * generation as f64;
    Family::Resnetish.build_scaled(
        format!("m-{idx}"),
        &teacher,
        &bias,
        &FamilyScale::new(scale, 3, 0.01),
        &mut rng,
    )
}

fn config(jobs: usize) -> SommelierConfig {
    let mut cfg = SommelierConfig {
        jobs,
        validation_rows: 128,
        ..SommelierConfig::default()
    };
    cfg.index.sample_size = 16; // small pool: analyze every pair
    cfg
}

/// Serialize an engine's published indices at an explicit epoch. Both
/// sides of the comparison pass the same epoch, so the images differ
/// only if the index *contents* differ.
fn images(engine: &Sommelier, epoch: u64) -> (String, Vec<u8>) {
    let snap = engine.reader().snapshot();
    let stats = SnapshotStats::of(&snap.semantic, &snap.resource, epoch);
    let json = serde_json::to_string(&IndexSnapshot {
        version: SNAPSHOT_VERSION,
        stats: Some(stats),
        semantic: snap.semantic.clone(),
        resource: snap.resource.clone(),
    })
    .expect("snapshot serializes");
    let binary = somb::encode(&snap.semantic, &snap.resource, Some(&stats));
    (json, binary)
}

/// Run one churn sequence at a `jobs` setting; return the incremental
/// engine's images plus a from-scratch rebuild's images over the
/// surviving models.
fn churn(ops: &[(u8, u8)], jobs: usize) -> ((String, Vec<u8>), (String, Vec<u8>)) {
    let repo = Arc::new(InMemoryRepository::new());
    let mut engine = Sommelier::connect(
        Arc::clone(&repo) as Arc<dyn ModelRepository>,
        config(jobs),
    );
    let mut live: BTreeSet<usize> = BTreeSet::new();
    let mut published: BTreeSet<usize> = BTreeSet::new();
    let mut generation = [0usize; POOL];
    for &(op, idx) in ops {
        let idx = idx as usize % POOL;
        if !live.contains(&idx) {
            // A removal leaves the repository file behind, so a re-add
            // of a previously published key overwrites it: the batch
            // names the key as a removal too.
            let model = build_model(idx, generation[idx]);
            if published.insert(idx) {
                engine.register(&model).unwrap();
            } else {
                let batch = MutationBatch::new().unregister(&model.name).register(model);
                assert_eq!(engine.apply(batch).unwrap(), 1);
            }
            live.insert(idx);
        } else {
            match op % 3 {
                0 | 1 => {
                    let batch = MutationBatch::new().unregister(format!("m-{idx}"));
                    assert_eq!(engine.apply(batch).unwrap(), 1);
                    live.remove(&idx);
                }
                _ => {
                    generation[idx] ^= 1;
                    let model = build_model(idx, generation[idx]);
                    let batch = MutationBatch::new().unregister(&model.name).register(model);
                    assert_eq!(engine.apply(batch).unwrap(), 2);
                }
            }
        }
    }
    let incremental = images(&engine, 0);

    // From-scratch control: a fresh repository holding exactly the
    // surviving models (at their current content), bulk-indexed.
    let fresh_repo = Arc::new(InMemoryRepository::new());
    for idx in &live {
        let model = repo.load(&format!("m-{idx}")).unwrap();
        fresh_repo.publish(&model.name, &model, false).unwrap();
    }
    let mut fresh = Sommelier::connect(fresh_repo as Arc<dyn ModelRepository>, config(jobs));
    fresh.index_existing().unwrap();
    (incremental, images(&fresh, 0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random mutation sequences leave indices byte-identical to a
    /// from-scratch build of the surviving key set, at jobs 1/4/8 —
    /// and identical across those job counts too.
    #[test]
    fn churned_indices_match_a_from_scratch_build(
        ops in proptest::collection::vec((0u8..3, 0u8..POOL as u8), 1..12),
    ) {
        let mut per_jobs = Vec::new();
        for jobs in [1usize, 4, 8] {
            let (incremental, scratch) = churn(&ops, jobs);
            // Churned JSON and .somb images must equal the
            // from-scratch build's at this job count.
            prop_assert_eq!(&incremental.0, &scratch.0);
            prop_assert_eq!(&incremental.1, &scratch.1);
            per_jobs.push(incremental);
        }
        // And the images must agree across job counts too.
        prop_assert_eq!(&per_jobs[0], &per_jobs[1]);
        prop_assert_eq!(&per_jobs[1], &per_jobs[2]);
    }
}

/// A directed worst-case sequence (remove-heavy churn through slot
/// reuse and a compaction) pinned outside proptest so it always runs.
#[test]
fn compaction_heavy_churn_is_canonical() {
    let ops: Vec<(u8, u8)> = vec![
        (2, 0), (2, 1), (2, 2), (2, 3), (2, 4), // register all five
        (0, 0), (0, 1), (0, 2), (0, 3),         // remove four: compaction
        (2, 1), (2, 1),                          // re-register + replace
    ];
    let (incremental, scratch) = churn(&ops, 4);
    assert_eq!(incremental.0, scratch.0, "JSON image differs");
    assert_eq!(incremental.1, scratch.1, ".somb image differs");
}
