//! End-to-end tests driving the `sommelier` binary as a subprocess.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_sommelier")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn temp_repo(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sommelier-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn help_prints_usage() {
    let out = run(&["help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE"));
}

#[test]
fn no_command_fails_with_usage() {
    let out = run(&[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("USAGE"));
}

#[test]
fn unknown_command_is_an_error() {
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn a_closed_stdout_is_a_clean_exit() {
    // The reader of the pipe is gone before the first line is written,
    // as when `sommelier list hub | head -1` has its line, or a pager
    // quits: every write fails with EPIPE.
    let dir = temp_repo("closed-stdout");
    let d = dir.to_str().unwrap();
    assert!(run(&["init", d]).status.success());
    assert!(run(&["seed", d, "--series", "1", "--seed", "3"]).status.success());
    let listing = stdout(&run(&["list", d]));
    let key = listing.lines().next().expect("a seeded key");
    for args in [vec!["list", d], vec!["show", d, key], vec!["help"]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(bin())
            .args(&args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).is_empty(), "{args:?}: {}", stderr(&out));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_without_index_explains_what_to_do() {
    let dir = temp_repo("noindex");
    assert!(run(&["init", dir.to_str().unwrap()]).status.success());
    let out = run(&["query", dir.to_str().unwrap(), "SELECT model CORR x"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("sommelier index"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_flag_a_command_does_not_take_is_refused() {
    let dir = temp_repo("stray-flag");
    let d = dir.to_str().unwrap();
    assert!(run(&["init", d]).status.success());
    assert!(run(&["seed", d, "--series", "1", "--seed", "7"]).status.success());
    let listing = stdout(&run(&["list", d]));
    let keys: Vec<&str> = listing.lines().collect();
    let (a, b) = (keys[0], keys[1]);
    let fresh = temp_repo("stray-flag-init");
    let exported = dir.join("exported.model.json");
    let (fresh_dir, file) = (fresh.to_str().unwrap(), exported.to_str().unwrap());
    let cases: [&[&str]; 7] = [
        &["init", fresh_dir, "--jobs", "banana"],
        &["export", d, a, file, "--bogus", "1"],
        &["list", d, "--format", "json"],
        &["show", d, a, "--bogus", "1"],
        &["diff", d, a, b, "--bogus", "1"],
        &["dot", d, a, "--format", "png"],
        &["add", d, file, "--bogus", "1"],
    ];
    for args in cases {
        let out = run(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stdout(&out));
        assert!(
            stderr(&out).contains("unknown flag --"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
    assert!(!fresh.exists(), "a refused init made its directory");
    assert!(!exported.exists(), "a refused export wrote its file");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exporting_a_model_with_a_non_finite_weight_is_refused_by_key() {
    let dir = temp_repo("export-inf");
    let d = dir.to_str().unwrap();
    assert!(run(&["init", d]).status.success());
    assert!(run(&["seed", d, "--series", "1", "--seed", "7"]).status.success());
    sommelier_zoo::sabotage::plant(&dir, sommelier_zoo::sabotage::Defect::NonFiniteWeights)
        .unwrap();
    let listing = stdout(&run(&["list", d]));
    let keys: Vec<&str> = listing.lines().collect();
    // The victim is the first stored key in sorted order.
    let file = dir.join("victim.model.json");
    let out = run(&["export", d, keys[0], file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let err = stderr(&out);
    assert!(err.contains(&format!("cannot export '{}'", keys[0])), "{err}");
    assert!(err.contains("non-finite"), "{err}");
    assert!(!file.exists(), "a refused export wrote its file");
    let out = run(&["export", d, keys[1], file.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_session_init_seed_index_query_show_diff() {
    let dir = temp_repo("session");
    let d = dir.to_str().unwrap();

    assert!(run(&["init", d]).status.success());

    let out = run(&["seed", d, "--series", "2", "--seed", "7"]);
    assert!(out.status.success(), "seed failed: {}", stderr(&out));
    assert!(stdout(&out).contains("seeded"));

    let out = run(&["list", d]);
    assert!(out.status.success());
    let listing = stdout(&out);
    let keys: Vec<&str> = listing.lines().collect();
    assert_eq!(keys.len(), 10, "2 series x 5 models: {listing}");

    let out = run(&["index", d, "--sample", "16", "--no-segments"]);
    assert!(out.status.success(), "index failed: {}", stderr(&out));

    // Query for a small equivalent of the largest first-series model.
    let reference = keys
        .iter()
        .find(|k| k.contains("r152x4"))
        .expect("bitish series is seeded first");
    let out = run(&[
        "query",
        d,
        &format!("SELECT models 3 CORR {reference} ON memory <= 60% WITHIN 0.0 ORDER BY memory"),
    ]);
    assert!(out.status.success(), "query failed: {}", stderr(&out));
    let table = stdout(&out);
    assert!(table.contains("score"), "no result table: {table}");
    assert!(table.lines().count() >= 2, "no results: {table}");

    let out = run(&["show", d, keys[0]]);
    assert!(out.status.success());
    let shown = stdout(&out);
    assert!(shown.contains("parameters:"));
    assert!(shown.contains("memory:"));

    let out = run(&["diff", d, keys[0], keys[1]]);
    assert!(out.status.success(), "diff failed: {}", stderr(&out));
    let explanation = stdout(&out);
    assert!(explanation.contains("diff bound"));
    assert!(explanation.contains("i/o check"));
    assert!(explanation.contains("verdict"));

    let out = run(&["dot", d, keys[0]]);
    assert!(out.status.success(), "dot failed: {}", stderr(&out));
    let dot = stdout(&out);
    assert!(dot.starts_with("digraph"));
    assert!(dot.contains("->"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fsck_reports_clean_on_a_healthy_repository() {
    let dir = temp_repo("fsck-clean");
    let d = dir.to_str().unwrap();
    assert!(run(&["init", d]).status.success());
    assert!(run(&["seed", d, "--series", "1"]).status.success());
    assert!(run(&["index", d, "--sample", "16", "--no-segments"]).status.success());
    let out = run(&["fsck", d]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("clean"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_index_recovers_transparently_and_fsck_repairs() {
    let dir = temp_repo("fsck-corrupt");
    let d = dir.to_str().unwrap();
    assert!(run(&["init", d]).status.success());
    assert!(run(&["seed", d, "--series", "1", "--seed", "3"]).status.success());
    assert!(run(&["index", d, "--sample", "16", "--no-segments"]).status.success());
    let listing = stdout(&run(&["list", d]));
    let reference = listing.lines().next().expect("seeded").to_string();

    // Tear the snapshot mid-file, the way a crashed write would.
    let index = dir.join("sommelier.index.json");
    let whole = std::fs::read_to_string(&index).unwrap();
    std::fs::write(&index, &whole[..whole.len() / 2]).unwrap();

    // Plain fsck reports and fails; nothing is modified.
    let out = run(&["fsck", d]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("unreadable index snapshot"));

    // Querying still works: the engine quarantines and rebuilds.
    let out = run(&[
        "query",
        d,
        &format!("SELECT models 3 CORR {reference} WITHIN 0.2"),
    ]);
    assert!(out.status.success(), "query failed: {}", stderr(&out));
    assert!(stderr(&out).contains("quarantined"), "{}", stderr(&out));

    // The quarantined evidence file remains until pruned.
    let out = run(&["fsck", d]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("quarantined file"));
    let out = run(&["fsck", d, "--prune"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = run(&["fsck", d]);
    assert!(out.status.success(), "{}", stderr(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fsck_repair_cleans_temps_and_rebuilds_a_torn_index() {
    let dir = temp_repo("fsck-repair");
    let d = dir.to_str().unwrap();
    assert!(run(&["init", d]).status.success());
    assert!(run(&["seed", d, "--series", "1"]).status.success());
    assert!(run(&["index", d, "--sample", "16", "--no-segments"]).status.success());

    let index = dir.join("sommelier.index.json");
    std::fs::write(&index, "{ definitely not an index").unwrap();
    std::fs::write(dir.join("stray.model.json.tmp-999-0"), "partial").unwrap();

    let out = run(&["fsck", d, "--repair", "--prune"]);
    assert!(out.status.success(), "{}\n{}", stdout(&out), stderr(&out));
    let report = stdout(&out);
    assert!(report.contains("removed orphaned temp"), "{report}");
    assert!(report.contains("rebuilt"), "{report}");

    let out = run(&["fsck", d]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("clean"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compact_rewrites_the_index_to_binary_and_queries_report_it() {
    let dir = temp_repo("compact");
    let d = dir.to_str().unwrap();
    assert!(run(&["init", d]).status.success());
    assert!(run(&["seed", d, "--series", "1", "--seed", "5"]).status.success());
    assert!(run(&["index", d, "--sample", "16", "--no-segments"]).status.success());
    let listing = stdout(&run(&["list", d]));
    let reference = listing.lines().next().expect("seeded").to_string();
    let q = format!("SELECT models 3 CORR {reference} WITHIN 0.2");

    // Queries against the JSON snapshot report the json format.
    let out = run(&["query", d, &q, "--format", "json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("\"format\": \"json\""),
        "{}",
        stdout(&out)
    );

    let out = run(&["compact", d]);
    assert!(out.status.success(), "compact failed: {}", stderr(&out));
    assert!(stdout(&out).contains("compacted json snapshot"), "{}", stdout(&out));
    assert!(dir.join("sommelier.index.somb").exists());
    assert!(!dir.join("sommelier.index.json").exists(), "JSON original removed");

    // Same answers, served from the binary snapshot.
    let out = run(&["query", d, &q, "--format", "json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let json = stdout(&out);
    assert!(json.contains("\"format\": \"binary\""), "{json}");
    assert!(json.contains("\"results\""), "{json}");

    // fsck validates the binary snapshot; compacting twice is idempotent.
    let out = run(&["fsck", d]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("clean"));
    assert!(run(&["compact", d]).status.success());

    // A torn binary snapshot recovers exactly like torn JSON: the
    // engine quarantines the evidence and rebuilds.
    let index = dir.join("sommelier.index.somb");
    let whole = std::fs::read(&index).unwrap();
    std::fs::write(&index, &whole[..whole.len() / 2]).unwrap();
    let out = run(&["query", d, &q]);
    assert!(out.status.success(), "query failed: {}", stderr(&out));
    assert!(stderr(&out).contains("quarantined"), "{}", stderr(&out));
    let out = run(&["fsck", d, "--prune"]);
    assert!(out.status.success(), "{}", stderr(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn apply_coalesces_mutations_into_one_epoch_bump() {
    let dir = temp_repo("apply");
    let d = dir.to_str().unwrap();
    assert!(run(&["init", d]).status.success());
    assert!(run(&["seed", d, "--series", "1", "--seed", "9"]).status.success());
    assert!(run(&["index", d, "--sample", "16", "--no-segments"]).status.success());
    let listing = stdout(&run(&["list", d]));
    let keys: Vec<String> = listing.lines().map(str::to_string).collect();
    assert_eq!(keys.len(), 5);

    // An empty batch is a no-op, not an error.
    let out = run(&["apply", d]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("nothing to apply"), "{}", stdout(&out));

    // Replace one key in place and drop another: one batch, one epoch.
    let export = dir.join("replacement.json");
    let out = run(&["export", d, &keys[0], export.to_str().unwrap()]);
    assert!(out.status.success(), "export failed: {}", stderr(&out));
    let out = run(&[
        "apply",
        d,
        "--remove",
        &keys[0],
        "--add",
        export.to_str().unwrap(),
        "--remove",
        &keys[4],
        "--sample",
        "16",
        "--no-segments",
    ]);
    assert!(out.status.success(), "apply failed: {}", stderr(&out));
    let report = stdout(&out);
    assert!(report.contains("applied 3 mutation(s)"), "{report}");
    assert!(report.contains("epoch 2"), "one publish, one bump: {report}");

    // The dropped key is gone from query results; the replaced one serves.
    let q = format!("SELECT models 10 CORR {} WITHIN 0.9", keys[0]);
    let out = run(&["query", d, &q, "--sample", "16", "--no-segments"]);
    assert!(out.status.success(), "query failed: {}", stderr(&out));
    let table = stdout(&out);
    assert!(!table.contains(&keys[4]), "removed key still served: {table}");
    assert!(table.contains("epoch 2"), "{table}");

    // Removing an unknown key mutates nothing and keeps the epoch.
    let out = run(&["apply", d, "--remove", "no-such-model"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("applied 0 mutation(s)"), "{}", stdout(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn add_rejects_missing_file_and_duplicate_keys() {
    let dir = temp_repo("add");
    let d = dir.to_str().unwrap();
    assert!(run(&["init", d]).status.success());
    let out = run(&["add", d, "/nonexistent/model.json"]);
    assert!(!out.status.success());

    // Round-trip a real model file through `add`.
    let out = run(&["seed", d, "--series", "1"]);
    assert!(out.status.success());
    let listing = stdout(&run(&["list", d]));
    let first = listing.lines().next().expect("seeded").to_string();
    // `export` a stored model, then re-add it under a new key: the two
    // keys hold the same content.
    let copy = dir.join("export.json");
    let out = run(&["export", d, &first, copy.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(!run(&["export", d, "no-such-model", copy.to_str().unwrap()]).status.success());
    let out = run(&["add", d, copy.to_str().unwrap(), "--key", "reimported"]);
    assert!(out.status.success(), "{}", stderr(&out));
    use sommelier_repo::{ModelRepository, OnDiskRepository};
    let repo = OnDiskRepository::open(&dir).unwrap();
    let fingerprint = |key: &str| sommelier_graph::Fingerprint::of_model(&repo.load(key).unwrap());
    assert_eq!(fingerprint(&first), fingerprint("reimported"));
    let out = run(&["add", d, copy.to_str().unwrap(), "--key", "reimported"]);
    assert!(!out.status.success(), "duplicate key must fail");
    // The key is the model's identity: the copy indexes, answers
    // queries and lints under the key it was added as.
    let out = run(&["index", d]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = run(&["query", d, "SELECT models 3 CORR reimported WITHIN 0.5"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = run(&["lint", d, "--deny", "warn"]);
    assert!(out.status.success(), "{}{}", stdout(&out), stderr(&out));

    // A file whose first Dense weight lost a row (data cut to match)
    // parses, but no model can be built from it: both write paths
    // refuse it, name the layer, and store nothing.
    let json = std::fs::read_to_string(&copy).unwrap();
    let broken = dir.join("broken.json");
    std::fs::write(&broken, drop_first_dense_row(&json, &first, "broken-x")).unwrap();
    let listing = stdout(&run(&["list", d]));
    for args in [
        &["apply", d, "--add", broken.to_str().unwrap()][..],
        &["add", d, broken.to_str().unwrap()],
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?} accepted a broken model");
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("layer 1:"), "{args:?}: {}", stderr(&out));
    }
    assert_eq!(stdout(&run(&["list", d])), listing);
    let out = run(&["lint", d, "--deny", "warn"]);
    assert!(out.status.success(), "{}{}", stdout(&out), stderr(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn apply_refuses_a_conflicting_batch_and_writes_nothing() {
    let dir = temp_repo("apply-conflict");
    let d = dir.to_str().unwrap();
    assert!(run(&["init", d]).status.success());
    assert!(run(&["seed", d, "--series", "1", "--seed", "7"])
        .status
        .success());
    assert!(run(&["index", d, "--sample", "16", "--no-segments"])
        .status
        .success());
    let listing = stdout(&run(&["list", d]));
    let key = listing.lines().next().expect("seeded").to_string();
    let indexed = dir.join("indexed.json");
    assert!(run(&["export", d, &key, indexed.to_str().unwrap()])
        .status
        .success());
    let json = std::fs::read_to_string(&indexed).unwrap();
    let fresh = dir.join("fresh.json");
    let renamed = json.replacen(&format!("\"name\":\"{key}\""), "\"name\":\"fresh\"", 1);
    std::fs::write(&fresh, renamed).unwrap();
    let (indexed, fresh) = (indexed.to_str().unwrap(), fresh.to_str().unwrap());
    let snapshot_of = || std::fs::read(dir.join("sommelier.index.json")).unwrap();
    // Exit 1 naming `named`, and the store, the snapshot and lint as
    // they were.
    let refused = |args: &[&str], named: &str| {
        let snapshot = snapshot_of();
        let out = run(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(&format!("'{named}'")),
            "{args:?}: {}",
            stderr(&out)
        );
        assert_eq!(
            stdout(&run(&["list", d])),
            listing,
            "{args:?} stored a model"
        );
        assert!(snapshot_of() == snapshot, "{args:?} rewrote the snapshot");
        let out = run(&["lint", d, "--deny", "warn"]);
        assert!(
            out.status.success(),
            "{args:?}: {}{}",
            stdout(&out),
            stderr(&out)
        );
    };

    // A replace that adds its key twice, a new key added twice, and a
    // new key beside an indexed key the batch does not remove.
    refused(
        &[
            "apply", d, "--remove", &key, "--add", indexed, "--add", indexed,
        ],
        &key,
    );
    refused(&["apply", d, "--add", fresh, "--add", fresh], "fresh");
    refused(&["apply", d, "--add", fresh, "--add", indexed], &key);
    // A new key beside a key that a removal left stored but unindexed.
    assert!(run(&["apply", d, "--remove", &key]).status.success());
    refused(&["apply", d, "--add", fresh, "--add", indexed], &key);
    // A replace still overwrites it.
    assert!(run(&["apply", d, "--remove", &key, "--add", indexed])
        .status
        .success());
    std::fs::remove_dir_all(&dir).ok();
}

/// `json`, an exported model named `name`, renamed to `rename` and with
/// its first Dense weight one row short, data cut to match.
fn drop_first_dense_row(json: &str, name: &str, rename: &str) -> String {
    let json = json.replacen(&format!("\"name\":\"{name}\""), &format!("\"name\":\"{rename}\""), 1);
    let dense = json.find("\"Dense\"").expect("a Dense layer");
    let int_after = |key: &str| {
        let at = dense + json[dense..].find(key).unwrap() + key.len();
        let end = at + json[at..].bytes().take_while(u8::is_ascii_digit).count();
        (at..end, json[at..end].parse::<usize>().unwrap())
    };
    let (rows_at, rows) = int_after("\"rows\":");
    let (_, cols) = int_after("\"cols\":");
    let (data_at, _) = int_after("\"data\":[");
    let kept = (rows - 1) * cols;
    let cut = data_at.start + json[data_at.start..].match_indices(',').nth(kept - 1).unwrap().0;
    let end = data_at.start + json[data_at.start..].find(']').unwrap();
    format!("{}{}{}{}", &json[..rows_at.start], rows - 1, &json[rows_at.end..cut], &json[end..])
}

#[test]
fn a_stray_model_file_is_reported_and_fsck_repairs_chunk_damage() {
    let dir = temp_repo("chunk-damage");
    let d = dir.to_str().unwrap();
    assert!(run(&["init", d]).status.success());
    assert!(run(&["seed", d, "--series", "1", "--seed", "7"])
        .status
        .success());
    let out = run(&["fsck", d]);
    assert!(out.status.success(), "{}", stderr(&out));

    // A whole model under a stored key's old flat name is no store
    // layout: it is not read or listed, both scans report it, and
    // repair leaves it for the operator.
    let listing = stdout(&run(&["list", d]));
    let key = listing.lines().next().expect("seeded").to_string();
    let shown = stdout(&run(&["show", d, &key]));
    let flat = dir.join(format!("{key}.model.json"));
    let other = listing.lines().nth(1).expect("two keys");
    assert!(run(&["export", d, other, flat.to_str().unwrap()])
        .status
        .success());
    assert_eq!(stdout(&run(&["list", d])), listing);
    assert_eq!(stdout(&run(&["show", d, &key])), shown);
    let out = run(&["fsck", d, "--repair"]);
    assert!(!out.status.success());
    assert!(
        stdout(&out).contains("non-canonical file name"),
        "{}",
        stdout(&out)
    );
    assert!(flat.exists());
    let out = run(&["lint", d, "--deny", "warn"]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("SOM072"), "{}", stdout(&out));
    std::fs::remove_file(&flat).unwrap();
    assert!(run(&["fsck", d]).status.success());

    // Chunk damage: delete one chunk (dangling manifest ref), plant a
    // stray file. Plain fsck reports both and fails.
    let chunk_dir = dir.join("chunks");
    let victim = std::fs::read_dir(&chunk_dir)
        .unwrap()
        .filter_map(Result::ok)
        .find(|e| e.file_name().to_string_lossy().ends_with(".chunk"))
        .expect("chunks exist");
    std::fs::remove_file(victim.path()).unwrap();
    std::fs::write(chunk_dir.join("stray.txt"), b"junk").unwrap();
    let out = run(&["fsck", d]);
    assert!(!out.status.success());
    let report = stdout(&out);
    assert!(report.contains("dangling chunk reference"), "{report}");
    assert!(report.contains("stray file in chunk dir"), "{report}");

    // --repair --prune quarantines the broken manifest, removes the
    // stray, and (after the follow-up orphan sweep) leaves the store
    // clean again.
    let out = run(&["fsck", d, "--repair", "--prune"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = run(&["fsck", d, "--repair", "--prune"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = run(&["fsck", d]);
    assert!(out.status.success(), "{}", stdout(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_and_client_round_trip_over_tcp() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let dir = temp_repo("serve");
    let d = dir.to_str().unwrap();
    assert!(run(&["init", d]).status.success());
    assert!(run(&["seed", d, "--series", "1", "--seed", "11"]).status.success());
    assert!(run(&["index", d, "--sample", "16", "--no-segments"]).status.success());
    let listing = stdout(&run(&["list", d]));
    let reference = listing.lines().next().expect("seeded").to_string();

    // Port 0: the daemon prints the resolved ephemeral port.
    let mut daemon = Command::new(bin())
        .args([
            "serve", d, "--addr", "127.0.0.1:0", "--workers", "2", "--queue-depth", "8",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let mut daemon_out = BufReader::new(daemon.stdout.take().expect("piped stdout"));
    let addr = loop {
        let mut line = String::new();
        assert!(
            daemon_out.read_line(&mut line).expect("daemon stdout") > 0,
            "daemon exited before announcing its address"
        );
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            break rest.to_string();
        }
    };

    let q = format!("SELECT models 3 CORR {reference} WITHIN 0.2");
    let out = run(&["client", &addr, "query", &q]);
    assert!(out.status.success(), "client query failed: {}", stderr(&out));
    let reply = stdout(&out);
    assert!(reply.contains("\"results\""), "{reply}");
    assert!(reply.contains("\"epoch\""), "{reply}");

    let out = run(&["client", &addr, "metrics"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let metrics = stdout(&out);
    for key in ["serve.accepted", "serve.shed", "serve.active_connections"] {
        assert!(metrics.contains(key), "metrics missing {key}: {metrics}");
    }

    let out = run(&["client", &addr, "reload"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("\"reindexed\""), "{}", stdout(&out));

    let out = run(&["client", &addr, "shutdown"]);
    assert!(out.status.success(), "{}", stderr(&out));

    let status = daemon.wait().expect("daemon exits");
    assert!(status.success(), "daemon must exit cleanly after shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_json_reports_aggregate_latency_quantiles() {
    let dir = temp_repo("latency-json");
    let d = dir.to_str().unwrap();
    assert!(run(&["init", d]).status.success());
    assert!(run(&["seed", d, "--series", "1", "--seed", "13"]).status.success());
    assert!(run(&["index", d, "--sample", "16", "--no-segments"]).status.success());
    let listing = stdout(&run(&["list", d]));
    let reference = listing.lines().next().expect("seeded").to_string();
    let q = format!("SELECT models 3 CORR {reference} WITHIN 0.2");
    let out = run(&["query", d, &q, "--repeat", "5", "--jobs", "2", "--format", "json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let json = stdout(&out);
    // `kind`: results go through the encoder the daemon frames use.
    for key in ["\"latency\"", "\"p50_ms\"", "\"p90_ms\"", "\"p99_ms\"", "\"kind\""] {
        assert!(json.contains(key), "json missing {key}: {json}");
    }
    // `--jobs` is the one lane knob.
    let out = run(&["query", d, &q, "--repeat", "5", "--threads", "2"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown flag --threads"), "{}", stderr(&out));
    std::fs::remove_dir_all(&dir).ok();
}

/// `fsck` and `lint` read the store through one scan, so they name the
/// same files. Two defects each of them used to miss: `fsck` never
/// looked at delta bases, lint never hashed a chunk.
#[test]
fn fsck_and_lint_name_the_same_files_for_broken_bases_and_corrupt_chunks() {
    use sommelier_graph::{ModelBuilder, TaskKind};
    use sommelier_lint::{Diagnostic, Severity};
    use sommelier_repo::{ModelRepository, OnDiskRepository};
    use sommelier_tensor::{Prng, Shape, Tensor};

    // A full manifest and a sparse delta against it.
    let family = |tag: &str| -> PathBuf {
        let dir = temp_repo(tag);
        let repo = OnDiskRepository::open(&dir).unwrap();
        let base = ModelBuilder::new("base", TaskKind::Other, Shape::vector(16))
            .dense(8, &mut Prng::seed_from_u64(3))
            .build()
            .unwrap();
        let mut v1 = base.renamed("v1");
        let id = v1.linear_layers()[0];
        let mut p = v1.layer(id).params.clone();
        let w = p.weight.as_ref().unwrap();
        let mut data = w.as_slice().to_vec();
        data[0] += 0.5;
        p.weight = Some(Tensor::from_vec(w.rows(), w.cols(), data));
        v1.set_params(id, p).unwrap();
        repo.publish_chunked("base", &base, false).unwrap();
        repo.publish_delta("v1", &v1, "base", false).unwrap();
        assert!(repo.load("v1").is_ok());
        dir
    };
    // Both tools fail, and every file one reports the other reports:
    // returns fsck's report and lint's store findings.
    let both = |dir: &PathBuf| -> (String, Vec<Diagnostic>) {
        let d = dir.to_str().unwrap();
        let fsck = run(&["fsck", d]);
        assert!(!fsck.status.success(), "fsck must fail: {}", stdout(&fsck));
        let lint = run(&["lint", d, "--format", "json"]);
        assert!(!lint.status.success(), "lint must fail: {}", stdout(&lint));
        let diags: Vec<Diagnostic> = serde_json::from_str(stdout(&lint).trim()).unwrap();
        let by_file: Vec<Diagnostic> = diags
            .into_iter()
            .filter(|diag| diag.target.starts_with("file '"))
            .collect();
        let report = stdout(&fsck);
        let lines: Vec<&str> = report.lines().collect();
        let (summary, findings) = lines.split_last().unwrap();
        assert!(summary.contains("finding(s)"), "{report}");
        assert_eq!(findings.len(), by_file.len(), "{report}\n{by_file:?}");
        for diag in &by_file {
            let file = diag.target.trim_start_matches("file '").trim_end_matches('\'');
            assert!(
                findings.iter().any(|l| l.starts_with(&format!("{file}: "))),
                "lint names {file}, fsck does not: {report}"
            );
        }
        (report, by_file)
    };
    let is_error_on = |diags: &[Diagnostic], code: &str, file: &str| {
        diags.iter().any(|diag| {
            diag.code == code
                && diag.severity == Severity::Error
                && diag.target == format!("file '{file}'")
        })
    };

    // (a) The delta's base manifest is deleted: `load("v1")` fails.
    let dir = family("agree-base");
    std::fs::remove_file(dir.join("base.manifest.json")).unwrap();
    let (report, diags) = both(&dir);
    assert!(report.contains("v1.manifest.json: broken delta base"), "{report}");
    assert!(is_error_on(&diags, "SOM076", "v1.manifest.json"), "{diags:?}");
    // Repair quarantines the delta and sweeps the base's chunks.
    let d = dir.to_str().unwrap();
    let out = run(&["fsck", d, "--repair", "--prune"]);
    assert!(out.status.success(), "{}\n{}", stdout(&out), stderr(&out));
    assert!(stdout(&run(&["fsck", d])).contains("clean"));
    assert!(run(&["lint", d, "--deny", "warn"]).status.success());
    std::fs::remove_dir_all(&dir).ok();

    // (b) One byte flipped in a chunk `base` references.
    let dir = family("agree-chunk");
    let victim = std::fs::read_dir(dir.join("chunks"))
        .unwrap()
        .filter_map(Result::ok)
        .next()
        .expect("chunks exist");
    let mut bytes = std::fs::read(victim.path()).unwrap();
    bytes[0] ^= 0x01;
    std::fs::write(victim.path(), bytes).unwrap();
    let chunk = format!("chunks/{}", victim.file_name().to_string_lossy());
    let (report, diags) = both(&dir);
    assert!(report.contains(&format!("{chunk}: corrupt chunk")), "{report}");
    assert!(report.contains("base.manifest.json: dangling chunk reference(s)"), "{report}");
    assert!(is_error_on(&diags, "SOM074", &chunk), "{diags:?}");
    assert!(is_error_on(&diags, "SOM074", "base.manifest.json"), "{diags:?}");
    assert!(is_error_on(&diags, "SOM076", "v1.manifest.json"), "{diags:?}");
    std::fs::remove_dir_all(&dir).ok();
}
