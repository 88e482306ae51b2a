//! Every workload, at smoke sizes, through the binary exactly as the
//! driver runs it: the contract line must parse, the run must be
//! correct, and the names it emits must be the names `BENCHMARK.json`
//! and the benchmark's own table declare — no more, no fewer.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use serde::Value;

const WORKLOADS: [&str; 4] = ["serve_hot", "serve_uncached", "serve_churn", "curate"];

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// `(name, unit)` of every row under `key` in `BENCHMARK.json`.
fn declared(key: &str) -> BTreeSet<(String, String)> {
    let doc = benchmark_json();
    let Some(Value::Seq(rows)) = doc.get_field(key) else {
        panic!("BENCHMARK.json has no '{key}'");
    };
    rows.iter()
        .map(|row| match (row.get_field("name"), row.get_field("unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
            other => panic!("bad row {other:?}"),
        })
        .collect()
}

struct Outcome {
    contract: Value,
    report: Value,
}

fn run(workload: &str, traced: bool) -> Outcome {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{workload}-{}", u8::from(traced)));
    let output = Command::new(env!("CARGO_BIN_EXE_sommelier-benchmark"))
        .args(["--workload", workload, "--seed", "17", "--seconds", "1"])
        .args([
            "--trace",
            if traced { "1" } else { "0" },
            "--smoke",
            "--out-dir",
        ])
        .arg(&out_dir)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        output.status.success(),
        "{workload} exited with {}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("the run prints");
    let contract: Value = serde_json::from_str(last)
        .unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"));
    let report = std::fs::read_to_string(out_dir.join(format!("report-{workload}.json"))).unwrap();
    if traced {
        let trace =
            std::fs::read_to_string(out_dir.join(format!("trace-{workload}.json"))).unwrap();
        let trace: Value = serde_json::from_str(&trace).expect("the trace file is JSON");
        assert!(matches!(trace.get_field("spans"), Some(Value::Seq(s)) if !s.is_empty()));
    }
    let outcome = Outcome {
        contract,
        report: serde_json::from_str(&report).unwrap(),
    };
    std::fs::remove_dir_all(&out_dir).unwrap();
    outcome
}

fn emitted(metrics: Option<&Value>) -> BTreeSet<(String, String)> {
    let Some(Value::Map(metrics)) = metrics else {
        panic!("no metrics map");
    };
    metrics
        .iter()
        .map(
            |(name, m)| match (m.get_field("value"), m.get_field("unit")) {
                (Some(Value::Float(v)), Some(Value::Str(u))) => {
                    assert!(v.is_finite(), "{name}");
                    (name.clone(), u.clone())
                }
                other => panic!("metric {name} is {other:?}"),
            },
        )
        .collect()
}

fn value_of(report: &Value, name: &str) -> f64 {
    match report
        .get_field("metrics")
        .and_then(|m| m.get_field(name))
        .and_then(|m| m.get_field("value"))
    {
        Some(Value::Float(v)) => *v,
        other => panic!("report metric {name} is {other:?}"),
    }
}

fn assert_contract(workload: &str, outcome: &Outcome, family: &str) {
    let Value::Map(fields) = &outcome.contract else {
        panic!("contract line is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(
        outcome.contract.get_field("correct"),
        Some(&Value::Bool(true)),
        "{workload}: {:?}",
        outcome.report.get_field("checks")
    );
    assert_eq!(
        outcome.contract.get_field("failed"),
        Some(&Value::UInt(0)),
        "{workload}"
    );
    assert!(matches!(outcome.contract.get_field("attempted"), Some(Value::UInt(n)) if *n >= 1));
    assert_eq!(
        emitted(outcome.contract.get_field("metrics")),
        declared(family),
        "{workload} {family}"
    );
}

#[test]
fn untraced_runs_emit_exactly_the_end_to_end_metrics() {
    for workload in WORKLOADS {
        let outcome = run(workload, false);
        assert_contract(workload, &outcome, "end_to_end");
    }
}

#[test]
fn traced_runs_emit_exactly_the_per_layer_metrics_and_separate_the_layers() {
    let mut specific: Vec<BTreeSet<String>> = Vec::new();
    for workload in WORKLOADS {
        let outcome = run(workload, true);
        assert_contract(workload, &outcome, "per_layer");
        // The report carries the contract's names plus the ones only
        // this workload's layers have.
        let in_report = emitted(outcome.report.get_field("metrics"));
        let common: BTreeSet<_> = declared("end_to_end")
            .union(&declared("per_layer"))
            .cloned()
            .collect();
        assert!(common.is_subset(&in_report), "{workload}");
        specific.push(
            in_report
                .difference(&common)
                .map(|(n, _)| n.clone())
                .collect(),
        );

        let hit_rate = value_of(&outcome.report, "query.plancache.hit_rate");
        match workload {
            "serve_hot" => assert!(hit_rate >= 0.99, "{hit_rate}"),
            "serve_uncached" => assert_eq!(hit_rate, 0.0),
            "serve_churn" => {
                assert!((hit_rate - 0.9).abs() < 1e-9, "{hit_rate}");
                assert_eq!(
                    outcome.report.get_field("checks").and_then(|c| c.get_field(
                        "one epoch bump per cycle, one removal and one addition per publish"
                    )),
                    Some(&Value::Bool(true))
                );
            }
            _ => {}
        }
        if workload != "curate" {
            assert_eq!(value_of(&outcome.report, "serving.shed"), 0.0);
        }
    }
    // Serving metrics come from the serve workloads only; equiv, repo
    // and fault metrics from curate only.
    let [hot, uncached, churn, curate] = &specific[..] else {
        unreachable!()
    };
    assert!(hot.iter().all(|n| n.starts_with("serving.")), "{hot:?}");
    assert_eq!(hot, uncached);
    assert!(churn.is_superset(hot) && churn.contains("query.engine.first_apply_ms"));
    assert!(!curate.iter().any(|n| n.starts_with("serving.")));
    for layer in ["equiv.", "repo.", "fault."] {
        assert!(curate.iter().any(|n| n.starts_with(layer)), "{layer}");
        assert!(!churn.iter().any(|n| n.starts_with(layer)), "{layer}");
    }
}

#[test]
fn bad_usage_exits_nonzero_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_sommelier-benchmark"))
        .args(["--workload", "serve_warm", "--seed", "1"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
