//! Crash-loop durability property: crash the store at *every* primitive
//! I/O operation of a mutation sequence and assert that a fresh process
//! reopening the directory always observes each artifact in its old or
//! its new state — never a torn intermediate.
//!
//! The sweep is seeded (`SOMMELIER_FAULT_SEED`, default 7) so the torn
//! prefix lengths vary across CI runs of the fault matrix while every
//! individual run stays deterministic and replayable.

use sommelier::fault::storage::{is_quarantine_name, is_temp_name};
use sommelier::fault::{FaultPlan, FaultyStorage, StdStorage, Storage};
use sommelier::graph::serde_model;
use sommelier::index::persist::{self, INDEX_FILE, INDEX_FILE_BIN};
use sommelier::prelude::*;
use sommelier::query::SnapshotRecovery;
use sommelier::repo::Manifest;
use sommelier::runtime::metrics::counters;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn fault_seed() -> u64 {
    std::env::var("SOMMELIER_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sommelier-crash-{tag}-{}-{}",
        fault_seed(),
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Three same-family variants, so the index has real candidates.
fn build_models() -> Vec<Model> {
    let teacher = Teacher::for_task(TaskKind::ImageRecognition, 71);
    let bias = DatasetBias::new(&teacher, "imagenet", 0.06);
    let mut rng = Prng::seed_from_u64(5);
    [
        ("series/alpha", 1.0, 4),
        ("beta", 0.75, 3),
        ("gamma", 0.5, 3),
    ]
    .into_iter()
    .map(|(name, width, depth)| {
        let mut frng = rng.fork();
        Family::Resnetish.build_scaled(
            name,
            &teacher,
            &bias,
            &FamilyScale::new(width, depth, 0.012),
            &mut frng,
        )
    })
    .collect()
}

fn small_config() -> SommelierConfig {
    let mut cfg = SommelierConfig {
        validation_rows: 128,
        ..SommelierConfig::default()
    };
    cfg.index.sample_size = 16;
    cfg
}

/// Alpha + beta and a persisted index snapshot: the "old" state.
fn setup_base(dir: &Path, models: &[Model]) {
    let repo = Arc::new(OnDiskRepository::open(dir).unwrap());
    repo.publish("series/alpha", &models[0], false).unwrap();
    repo.publish("beta", &models[1], false).unwrap();
    let mut engine = Sommelier::connect(repo as Arc<dyn ModelRepository>, small_config());
    engine.index_existing().unwrap();
    engine.save_indices(&dir.join(INDEX_FILE)).unwrap();
}

/// A tiny model, so the op count of the sweep stays sane.
fn tiny(name: &str, rng_seed: u64) -> Model {
    ModelBuilder::new(name, TaskKind::Other, Shape::vector(4))
        .dense(2, &mut Prng::seed_from_u64(rng_seed))
        .build()
        .unwrap()
}

/// `base` under another name with one element of its first layer's
/// `weight` (or else `bias`) moved, and a `base` hint at `hint`.
fn fine_tune(base: &Model, name: &str, hint: Option<&str>, weight: bool) -> Model {
    let mut m = base.renamed(name);
    let id = m.linear_layers()[0];
    let mut p = m.layer(id).params.clone();
    let slot = if weight { &mut p.weight } else { &mut p.bias };
    let t = slot.as_ref().unwrap();
    let mut data = t.as_slice().to_vec();
    data[0] += 0.5;
    *slot = Some(Tensor::from_vec(t.rows(), t.cols(), data));
    m.set_params(id, p).unwrap();
    if let Some(hint) = hint {
        m.metadata.insert("base".into(), hint.into());
    }
    m
}

/// A fine-tune family on top of [`setup_base`]: a base and two deltas
/// stored against it.
fn setup_family(dir: &Path) {
    let repo = OnDiskRepository::open(dir).unwrap();
    let base = tiny("fam/base", 41);
    repo.publish("fam/base", &base, false).unwrap();
    for key in ["fam/ft", "fam/peer"] {
        repo.publish(key, &fine_tune(&base, key, Some("fam/base"), true), false)
            .unwrap();
    }
}

/// The mutation whose every crash point the sweep exercises: an
/// overwrite of a full manifest, an unhinted publish, an overwrite of a
/// base under its stored deltas (the bias moves, which the deltas
/// inherit), a hinted publish, a JSON snapshot save, and a binary
/// (`.somb`) snapshot publish — every write path goes through the same atomic-write protocol, so all
/// must survive a crash at any primitive op. Every key is written at
/// most once, so it has one old and one new model. Errors are
/// swallowed — mid-sequence crashes are the whole point.
fn mutate(dir: &Path, storage: Arc<dyn Storage>, alpha_v2: &Model, gamma: &Model) {
    let Ok(repo) = OnDiskRepository::open_with(dir, Arc::clone(&storage)) else {
        return;
    };
    let _ = repo.publish("series/alpha", alpha_v2, true);
    let _ = repo.publish("gamma", gamma, false);
    let rebased = fine_tune(&tiny("fam/base", 41), "fam/base", None, false);
    let _ = repo.publish("fam/base", &rebased, true);
    let ft2 = fine_tune(&rebased, "fam/ft2", Some("fam/base"), true);
    let _ = repo.publish("fam/ft2", &ft2, false);
    // Re-persist the snapshot (same indices, bumped epoch): content is
    // irrelevant here, the write protocol under the crash is.
    let Ok(snapshot) = persist::read_snapshot(&dir.join(INDEX_FILE)) else {
        return;
    };
    let _ = persist::save_with(
        &*storage,
        &snapshot.semantic,
        &snapshot.resource,
        2,
        &dir.join(INDEX_FILE),
    );
    let _ = persist::save_binary_with(
        &*storage,
        &snapshot.semantic,
        &snapshot.resource,
        2,
        &dir.join(INDEX_FILE_BIN),
    );
}

/// Recursive snapshot of the store, keyed by `/`-separated relative
/// path — the chunk store lives in a `chunks/` subdirectory.
fn capture(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, prefix: &str, out: &mut BTreeMap<String, Vec<u8>>) {
        for e in std::fs::read_dir(root).unwrap().flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            let rel = if prefix.is_empty() {
                name
            } else {
                format!("{prefix}/{name}")
            };
            if e.path().is_dir() {
                walk(&e.path(), &rel, out);
            } else {
                out.insert(rel, std::fs::read(e.path()).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, "", &mut out);
    out
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::remove_dir_all(dst).ok();
    std::fs::create_dir_all(dst).unwrap();
    for e in std::fs::read_dir(src).unwrap().flatten() {
        if e.path().is_dir() {
            copy_dir(&e.path(), &dst.join(e.file_name()));
        } else {
            std::fs::copy(e.path(), dst.join(e.file_name())).unwrap();
        }
    }
}

/// Every key of the store at `dir` with the model it loads to.
fn models_of(dir: &Path, when: &str) -> BTreeMap<String, Model> {
    let repo = OnDiskRepository::open(dir).unwrap();
    let load = |key: String| {
        let model = repo
            .load(&key)
            .unwrap_or_else(|e| panic!("{when}: load '{key}': {e}"));
        (key, model)
    };
    repo.try_keys().unwrap().into_iter().map(load).collect()
}

fn manifest_base(state: &BTreeMap<String, Vec<u8>>, file: &str) -> Option<String> {
    let json = String::from_utf8(state[file].clone()).unwrap();
    Manifest::from_json(&json).unwrap().base
}

#[test]
fn reopen_after_crash_at_every_op_sees_old_or_new_state_never_torn() {
    let seed = fault_seed();
    let models = build_models();
    // The overwriting publish must actually change alpha's bytes.
    let alpha_v2 = {
        let mut m = models[2].clone();
        m.name = "series/alpha".into();
        m
    };

    let base = scratch("base");
    setup_base(&base, &models);
    setup_family(&base);
    let old_state = capture(&base);
    let old_models = models_of(&base, "old state");

    // Fault-free run: the "new" state and the sweep's op count.
    let committed = scratch("committed");
    copy_dir(&base, &committed);
    let counting = Arc::new(FaultyStorage::new(StdStorage, FaultPlan::count_only()));
    mutate(
        &committed,
        Arc::clone(&counting) as Arc<dyn Storage>,
        &alpha_v2,
        &models[2],
    );
    let total_ops = counting.ops();
    assert!(total_ops >= 10, "mutation sequence spans {total_ops} ops");
    let new_state = capture(&committed);
    let new_models = models_of(&committed, "new state");
    // The sequence did what the sweep is meant to cover.
    assert_ne!(old_models["series/alpha"], new_models["series/alpha"]);
    assert_ne!(old_models["fam/base"], new_models["fam/base"]);
    assert_eq!(old_models["fam/ft"], new_models["fam/ft"]);
    assert_eq!(old_models["fam/peer"], new_models["fam/peer"]);
    assert_eq!(manifest_base(&new_state, "gamma.manifest.json"), None);
    for (file, old, new) in [
        ("fam%2Fft.manifest.json", Some("fam/base"), None),
        ("fam%2Fpeer.manifest.json", Some("fam/base"), None),
        ("fam%2Fft2.manifest.json", None, Some("fam/base")),
    ] {
        let was = old_state.contains_key(file).then(|| manifest_base(&old_state, file));
        assert_eq!(was.flatten().as_deref(), old, "{file} before");
        assert_eq!(manifest_base(&new_state, file).as_deref(), new, "{file} after");
    }
    assert!(
        new_state.contains_key(INDEX_FILE_BIN),
        "fault-free run must publish the binary snapshot"
    );

    let work = scratch("work");
    for crash_op in 0..total_ops {
        copy_dir(&base, &work);
        let faulty = Arc::new(FaultyStorage::new(
            StdStorage,
            FaultPlan::crash_at(seed, crash_op),
        ));
        mutate(
            &work,
            Arc::clone(&faulty) as Arc<dyn Storage>,
            &alpha_v2,
            &models[2],
        );
        assert!(faulty.is_dead(), "crash point {crash_op} must fire");

        // "Restart": plain std storage, like a fresh process would use.
        let after = capture(&work);
        for (name, bytes) in &after {
            // Stranded temps are expected crash debris (fsck's job),
            // never part of the visible store state. Keys are relative
            // paths now; the debris pattern is on the file name.
            let file = name.rsplit('/').next().unwrap_or(name);
            if is_temp_name(file) || is_quarantine_name(file) {
                continue;
            }
            let old = old_state.get(name);
            let new = new_state.get(name);
            assert!(
                old == Some(bytes) || new == Some(bytes),
                "crash at op {crash_op}: '{name}' is neither old nor new state \
                 ({} bytes; old {:?}, new {:?})",
                bytes.len(),
                old.map(Vec::len),
                new.map(Vec::len),
            );
        }
        // Nothing in the sequence deletes a file.
        for name in old_state.keys() {
            assert!(
                after.contains_key(name),
                "crash at op {crash_op}: '{name}' disappeared"
            );
        }

        // The repository reopens and serves every listed key whole, to
        // its old or its new model; no key that loaded before is lost;
        // and the snapshot (old or new) still parses.
        let now = models_of(&work, &format!("crash at op {crash_op}"));
        for (key, model) in &now {
            assert!(
                old_models.get(key) == Some(model) || new_models.get(key) == Some(model),
                "crash at op {crash_op}: '{key}' loads to neither its old nor its new model"
            );
        }
        for key in old_models.keys() {
            assert!(now.contains_key(key), "crash at op {crash_op}: '{key}' is lost");
        }
        persist::read_snapshot(&work.join(INDEX_FILE))
            .unwrap_or_else(|e| panic!("crash at op {crash_op}: snapshot unreadable: {e}"));
        // The binary snapshot is either absent (crash before its
        // rename) or a complete image that decodes — never torn.
        if work.join(INDEX_FILE_BIN).exists() {
            persist::read_snapshot(&work.join(INDEX_FILE_BIN)).unwrap_or_else(|e| {
                panic!("crash at op {crash_op}: binary snapshot unreadable: {e}")
            });
        }
    }

    for dir in [&base, &committed, &work] {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// Repair is itself a mutation sequence (removes, quarantine renames),
/// and since it runs under `Storage` it can be crashed like one: a
/// crash at any primitive op of `repair_store` loses no key that loaded
/// before it, and rerunning scan + repair (with its follow-up sweep of
/// the chunks only a quarantined manifest named) leaves nothing to
/// report.
#[test]
fn repair_crashed_at_every_op_keeps_every_loadable_key_and_a_rerun_finishes() {
    use sommelier::repo::{repair_store, scan_store, CHUNK_DIR};

    let seed = fault_seed();
    let base = scratch("repair-base");
    let repo = OnDiskRepository::open(&base).unwrap();
    // Two families (a full manifest and a delta each) and a lone full
    // manifest; `lost/*` is about to become unloadable.
    let (keep, lost) = (tiny("keep/base", 41), tiny("lost/base", 43));
    repo.publish_chunked("keep/base", &keep, false).unwrap();
    repo.publish_delta("keep/ft", &keep.renamed("keep/ft"), "keep/base", false).unwrap();
    repo.publish_chunked("lost/base", &lost, false).unwrap();
    repo.publish_delta("lost/ft", &lost.renamed("lost/ft"), "lost/base", false).unwrap();
    repo.publish_chunked("lone", &tiny("lone", 47), false)
        .unwrap();

    // Damage: a deleted chunk (dangling ref, and through it a broken
    // delta base), an orphaned chunk, a temp and a quarantine.
    let manifest = std::fs::read_to_string(base.join("lost%2Fbase.manifest.json")).unwrap();
    let victim = Manifest::from_json(&manifest).unwrap().chunk_refs()[0].to_string();
    std::fs::remove_file(repo.chunk_store().path_of(&victim)).unwrap();
    repo.chunk_store().put(b"referenced by nobody").unwrap();
    std::fs::write(base.join("lone.manifest.json.tmp-9-0"), b"partial").unwrap();
    std::fs::write(base.join(CHUNK_DIR).join("old.chunk.corrupt-17"), b"evidence").unwrap();

    let scan = scan_store(&StdStorage, &base).unwrap();
    let loadable: BTreeMap<String, String> = repo
        .try_keys()
        .unwrap()
        .into_iter()
        .filter_map(|key| {
            let json = serde_model::to_json(&repo.load(&key).ok()?);
            Some((key, json))
        })
        .collect();
    assert_eq!(
        loadable.keys().collect::<Vec<_>>(),
        ["keep/base", "keep/ft", "lone"],
        "the damage must cost exactly the lost/* family: {:?}",
        scan.findings
    );
    let assert_loadable = |dir: &Path, when: &str| {
        let repo = OnDiskRepository::open(dir).unwrap();
        for (key, json) in &loadable {
            let model = repo
                .load(key)
                .unwrap_or_else(|e| panic!("{when}: load '{key}': {e}"));
            assert_eq!(&serde_model::to_json(&model), json, "{when}: '{key}' changed");
        }
    };

    // Scan + repair twice, uninterrupted: the second pass is the sweep.
    let finish = |dir: &Path, when: &str| {
        for _ in 0..2 {
            let scan = scan_store(&StdStorage, dir).unwrap();
            repair_store(&StdStorage, dir, &scan, true, true).unwrap();
        }
        let after = scan_store(&StdStorage, dir).unwrap();
        assert!(after.findings.is_empty(), "{when}: left {:?}", after.findings);
        assert_loadable(dir, when);
    };

    // Fault-free run: the sweep's op count.
    let work = scratch("repair-work");
    copy_dir(&base, &work);
    let counting = FaultyStorage::new(StdStorage, FaultPlan::count_only());
    repair_store(&counting, &work, &scan, true, true).unwrap();
    let total_ops = counting.ops();
    assert!(total_ops >= 6, "repair spans {total_ops} ops: {:?}", scan.findings);
    assert_loadable(&work, "fault-free repair");
    finish(&work, "after a fault-free repair");

    for crash_op in 0..total_ops {
        copy_dir(&base, &work);
        let faulty = FaultyStorage::new(StdStorage, FaultPlan::crash_at(seed, crash_op));
        assert!(repair_store(&faulty, &work, &scan, true, true).is_err());
        assert!(faulty.is_dead(), "crash point {crash_op} must fire");
        assert_loadable(&work, &format!("crash at op {crash_op}"));

        // "Restart": a fresh scan and an uninterrupted repair.
        finish(&work, &format!("rerun after crash at op {crash_op}"));
    }

    for dir in [&base, &work] {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// The binary format is a pure re-encoding: a JSON snapshot and its
/// `.somb` compaction must serve byte-identical query results at any
/// job count — the f64 payloads survive both round-trips exactly.
#[test]
fn json_and_binary_snapshots_serve_byte_identical_results() {
    let models = build_models();
    let json_dir = scratch("fmt-json");
    setup_base(&json_dir, &models);

    // Compact a copy into the binary format, the way the CLI would.
    let bin_dir = scratch("fmt-bin");
    copy_dir(&json_dir, &bin_dir);
    let snapshot = persist::read_snapshot(&bin_dir.join(INDEX_FILE)).unwrap();
    persist::save_snapshot_as(
        &StdStorage,
        &snapshot,
        sommelier::index::SnapshotFormat::Binary,
        &bin_dir.join(INDEX_FILE_BIN),
    )
    .unwrap();
    std::fs::remove_file(bin_dir.join(INDEX_FILE)).unwrap();

    let serve = |dir: &Path, file: &str, jobs: usize| -> String {
        let repo = Arc::new(OnDiskRepository::open(dir).unwrap());
        let config = SommelierConfig {
            jobs,
            ..small_config()
        };
        let engine = Sommelier::connect_with_indices(
            repo as Arc<dyn ModelRepository>,
            config,
            &dir.join(file),
        )
        .unwrap();
        let results = engine
            .query("SELECT models 3 CORR beta WITHIN 0.5 ORDER BY similarity")
            .unwrap();
        assert!(!results.is_empty(), "query must have content to compare");
        format!("{results:?}")
    };

    let baseline = serve(&json_dir, INDEX_FILE, 1);
    for jobs in [1usize, 4, 8] {
        assert_eq!(
            serve(&json_dir, INDEX_FILE, jobs),
            baseline,
            "JSON snapshot diverged at jobs={jobs}"
        );
        assert_eq!(
            serve(&bin_dir, INDEX_FILE_BIN, jobs),
            baseline,
            "binary snapshot diverged at jobs={jobs}"
        );
    }

    for dir in [&json_dir, &bin_dir] {
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn corrupted_snapshot_is_quarantined_and_rebuilt_not_a_query_error() {
    let models = build_models();
    let dir = scratch("recover");
    setup_base(&dir, &models);

    // Tear the snapshot mid-file, as a crashed non-atomic writer would.
    let path = dir.join(INDEX_FILE);
    let whole = std::fs::read(&path).unwrap();
    std::fs::write(&path, &whole[..whole.len() / 2]).unwrap();

    let rebuilds = counters::get("recovery.rebuilds");
    let quarantined = counters::get("recovery.quarantined");
    let repo = Arc::new(OnDiskRepository::open(&dir).unwrap());
    let (engine, outcome) = Sommelier::connect_or_recover(
        repo as Arc<dyn ModelRepository>,
        small_config(),
        &path,
    )
    .expect("recovery must not surface as an error");
    match &outcome {
        SnapshotRecovery::RebuiltQuarantined(q) => {
            assert!(q.exists(), "quarantine file kept as evidence");
        }
        other => panic!("expected quarantine+rebuild, got {other:?}"),
    }
    assert!(counters::get("recovery.rebuilds") > rebuilds);
    assert!(counters::get("recovery.quarantined") > quarantined);

    // The rebuilt engine answers queries and re-persisted a snapshot
    // that now loads cleanly.
    let results = engine
        .query("SELECT models 2 CORR beta WITHIN 0.2")
        .expect("recovered engine serves queries");
    assert!(!results.is_empty());
    assert!(persist::read_snapshot(&path).is_ok());

    std::fs::remove_dir_all(&dir).ok();
}
