//! Concurrency stress for the lock-free snapshot query path: readers
//! keep querying through cloned [`SommelierReader`]s while the engine
//! mutates and republishes, and every observed result set must be
//! internally consistent with exactly one publication epoch.

use sommelier::prelude::*;
use sommelier::query::{MutationBatch, SommelierReader};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Five same-family variants; `toggle` (the last) is the model the
/// mutator will repeatedly remove and add back.
fn fleet_engine() -> (Sommelier, Vec<String>, Model) {
    let repo = Arc::new(InMemoryRepository::new());
    let teacher = Teacher::for_task(TaskKind::ImageRecognition, 404);
    let bias = DatasetBias::new(&teacher, "imagenet", 0.06);
    let mut cfg = SommelierConfig {
        validation_rows: 64,
        jobs: 8,
        ..SommelierConfig::default()
    };
    cfg.index.sample_size = 8;
    cfg.index.segments = false;
    let mut engine = Sommelier::connect(Arc::clone(&repo) as Arc<dyn ModelRepository>, cfg);
    let mut rng = Prng::seed_from_u64(7);
    let mut names = Vec::new();
    let mut toggle_model = None;
    for (i, width) in [1.25_f64, 1.0, 0.75, 0.5, 0.9].into_iter().enumerate() {
        let mut frng = rng.fork();
        let m = Family::Resnetish.build_scaled(
            format!("stress-{i}"),
            &teacher,
            &bias,
            &FamilyScale::new(width, 3, 0.012),
            &mut frng,
        );
        engine.register(&m).unwrap();
        names.push(m.name.clone());
        if i == 4 {
            toggle_model = Some(m);
        }
    }
    (engine, names, toggle_model.expect("five models built"))
}

/// Remove `model` from the index, then add it back over its stored
/// copy: two publications.
fn toggle_off_and_on(engine: &mut Sommelier, model: &Model) {
    let off = MutationBatch::new().unregister(&model.name);
    assert_eq!(engine.apply(off).unwrap(), 1);
    let on = MutationBatch::new()
        .unregister(&model.name)
        .register(model.clone());
    assert_eq!(engine.apply(on).unwrap(), 1);
}

#[test]
fn concurrent_queries_never_block_on_reindex_or_mix_epochs() {
    let (mut engine, names, toggle_model) = fleet_engine();
    let toggle = toggle_model.name.clone();
    let query = format!("SELECT models 10 CORR {} WITHIN 0.95", names[0]);
    // The toggle is registered at the setup epoch; each mutator cycle
    // below removes it (epoch +1, absent) and re-adds it (epoch +1,
    // present), so presence alternates with epoch parity.
    let base_epoch = engine.epoch();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..3 {
            let reader: SommelierReader = engine.reader().clone();
            let query = &query;
            let toggle = &toggle;
            let stop = &stop;
            readers.push(scope.spawn(move || {
                let mut last_epoch = 0u64;
                let mut batches = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let texts =
                        vec![query.clone(), query.clone(), query.clone()];
                    let items = reader.query_batch(&texts);
                    assert_eq!(items.len(), 3);
                    let epoch = items[0].epoch;
                    // The whole batch is served from ONE pinned
                    // snapshot — no item may see another epoch.
                    assert!(
                        items.iter().all(|i| i.epoch == epoch),
                        "mixed epochs within one batch"
                    );
                    // Publication is monotone; a reader can lag but
                    // never travel back.
                    assert!(epoch >= last_epoch, "epoch went backwards");
                    last_epoch = epoch;
                    for item in &items {
                        let results = item.results.as_ref().expect("query runs");
                        // At odd parity the toggle is unregistered: a
                        // result naming it would be a torn (mixed-epoch)
                        // view of the indices.
                        if (epoch - base_epoch) % 2 == 1 {
                            assert!(
                                results.iter().all(|r| {
                                    r.key != *toggle
                                        && !r.key.contains(&format!("+{toggle}"))
                                }),
                                "epoch {epoch} served unregistered '{toggle}'"
                            );
                        }
                    }
                    batches += 1;
                }
                batches
            }));
        }

        // Mutator: churn the published snapshot while readers run.
        for _ in 0..15 {
            toggle_off_and_on(&mut engine, &toggle_model);
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        for handle in readers {
            let batches = handle.join().expect("reader thread panicked");
            assert!(batches > 0, "reader never completed a batch");
        }
    });
    assert_eq!(engine.epoch(), base_epoch + 30);
}

#[test]
fn frozen_snapshot_batches_are_byte_identical_across_lane_counts() {
    let (engine, names, _) = fleet_engine();
    let texts: Vec<String> = names
        .iter()
        .map(|n| format!("SELECT models 10 CORR {n} WITHIN 0.95 ORDER BY similarity"))
        .collect();
    let render = |reader: &SommelierReader| {
        reader
            .query_batch(&texts)
            .into_iter()
            .map(|item| format!("{}:{:?}", item.epoch, item.results))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let lane1 = render(&engine.reader().with_pool(1));
    let lane4 = render(&engine.reader().with_pool(4));
    let lane8 = render(&engine.reader().with_pool(8));
    assert_eq!(lane1, lane4, "lanes 1 vs 4 diverged");
    assert_eq!(lane4, lane8, "lanes 4 vs 8 diverged");
}

#[test]
fn pinned_snapshots_survive_mutations_without_blocking() {
    let (mut engine, names, toggle_model) = fleet_engine();
    let toggle = &toggle_model.name;
    let reader = engine.reader().clone();
    let pinned = reader.snapshot();
    assert!(pinned.semantic.contains(toggle));
    for _ in 0..5 {
        toggle_off_and_on(&mut engine, &toggle_model);
    }
    // The pinned snapshot is untouched by ten publications since.
    assert!(pinned.semantic.contains(toggle));
    assert_eq!(reader.epoch(), pinned.epoch + 10);
    // And a live query still runs against the newest epoch.
    let items = reader.query_batch(&[format!(
        "SELECT models 5 CORR {} WITHIN 0.95",
        names[1]
    )]);
    assert_eq!(items[0].epoch, pinned.epoch + 10);
    assert!(items[0].results.is_ok());
}
