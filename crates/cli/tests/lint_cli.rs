//! End-to-end tests of `sommelier lint` through the real binary.
//!
//! Two scenarios anchor the curation story: a freshly seeded and indexed
//! repository must lint green even under `--deny warn` (the CI gate), and
//! a deliberately corrupted index snapshot must fail the same gate with
//! structured findings on stdout.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_sommelier")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("binary spawns")
}

fn assert_ok(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A unique scratch directory under the target-adjacent temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sommelier-lint-cli-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seeded_repo(tag: &str) -> PathBuf {
    let dir = scratch(tag);
    let d = dir.to_str().unwrap();
    assert_ok(&run(&["init", d]), "init");
    assert_ok(&run(&["seed", d, "--series", "1", "--seed", "7"]), "seed");
    assert_ok(&run(&["index", d]), "index");
    dir
}

fn write_corrupt_snapshot(dir: &Path) {
    // `ghost` is indexed but never stored, and `m-a`'s candidate list,
    // out of descending-score order, is none its (empty) edge table
    // derives — both `SOM02x` errors.
    let semantic = r#"{
        "config": {"sample_size": 5, "segments": true, "max_candidates": 64},
        "entries": {
            "1": {"key": "m-a", "candidates": [
                {"key": "ghost", "diff_bound": 0.5, "score": 0.5, "kind": "Whole"},
                {"key": "m-b", "diff_bound": 0.1, "score": 0.9, "kind": "Whole"}
            ]},
            "2": {"key": "ghost", "candidates": []}
        },
        "by_key": {"m-a": 1, "ghost": 2},
        "order": ["m-a", "ghost"],
        "seed_state": 0,
        "edges": []
    }"#;
    let resource = r#"{"entries": []}"#;
    let snapshot = format!("{{\"version\":3,\"semantic\":{semantic},\"resource\":{resource}}}");
    std::fs::write(dir.join("sommelier.index.json"), snapshot).expect("snapshot writes");
}

#[test]
fn freshly_indexed_repository_lints_green_under_deny_warn() {
    let dir = seeded_repo("clean");
    let d = dir.to_str().unwrap();
    let out = run(&["lint", d, "--deny", "warn"]);
    assert_ok(&out, "lint --deny warn on a clean repository");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 error(s), 0 warning(s)"), "{text}");

    // The machine-readable report of a clean repository is an empty
    // diagnostics array that parses back into the lint vocabulary.
    let out = run(&["lint", d, "--format", "json"]);
    assert_ok(&out, "lint --format json");
    let diags: Vec<sommelier_lint::Diagnostic> =
        serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim())
            .expect("JSON report parses into Vec<Diagnostic>");
    assert!(diags.is_empty(), "{diags:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_snapshot_fails_the_deny_warn_gate() {
    let dir = scratch("corrupt");
    let d = dir.to_str().unwrap();
    assert_ok(&run(&["init", d]), "init");
    write_corrupt_snapshot(&dir);

    let out = run(&["lint", d, "--deny", "warn"]);
    assert!(!out.status.success(), "corrupted snapshot must fail the gate");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("SOM020"), "dangling key finding expected:\n{text}");
    assert!(text.contains("SOM021"), "underived candidates finding expected:\n{text}");

    // The JSON report carries the same findings and stays parseable.
    let out = run(&["lint", d, "--format", "json"]);
    assert!(!out.status.success(), "json format still sets the exit code");
    let diags: Vec<sommelier_lint::Diagnostic> =
        serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim())
            .expect("JSON report parses into Vec<Diagnostic>");
    assert!(diags.iter().any(|d| d.code == "SOM020"), "{diags:?}");
    assert!(diags.iter().any(|d| d.code == "SOM021"), "{diags:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unreadable_snapshot_is_a_lint_error_not_a_crash() {
    let dir = scratch("garbage");
    let d = dir.to_str().unwrap();
    assert_ok(&run(&["init", d]), "init");
    std::fs::write(dir.join("sommelier.index.json"), "{not json").expect("write");
    let out = run(&["lint", d]);
    assert!(!out.status.success(), "unreadable snapshot is an error");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("SOM027"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn statically_broken_query_is_reported_against_a_clean_repository() {
    let dir = seeded_repo("query");
    let d = dir.to_str().unwrap();
    let out = run(&[
        "lint",
        d,
        "--query",
        "SELECT model CORR no-such-model WITHIN 0.5",
    ]);
    assert!(!out.status.success(), "empty reference is an error");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("SOM043"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
