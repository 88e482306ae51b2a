//! `sommelier-benchmark compare A.json B.json --bounds BENCHMARK.json`:
//! is B worse than A by more than the benchmark's bounds?
//!
//! A and B each map a workload name to one contract line of a run (the
//! last line a run prints) or to a list of them; a list is reduced to
//! the median of each metric, as `repeat.sh` does for its sets of five.

use std::collections::BTreeMap;

use serde::Value;

use crate::stats::median;

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

/// One side's view of one workload.
#[derive(Debug, PartialEq)]
struct Side {
    /// Median of each metric over the side's runs.
    metrics: BTreeMap<String, f64>,
    failed_share: f64,
}

fn side(entry: &Value) -> Result<Side, String> {
    let runs: Vec<&Value> = match entry {
        Value::Seq(runs) if !runs.is_empty() => runs.iter().collect(),
        Value::Map(_) => vec![entry],
        _ => return Err("a workload maps to a run or a non-empty list of runs".into()),
    };
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let (mut attempted, mut failed) = (0.0, 0.0);
    for run in runs {
        attempted += run
            .get_field("attempted")
            .and_then(number)
            .ok_or("a run lacks 'attempted'")?;
        failed += run
            .get_field("failed")
            .and_then(number)
            .ok_or("a run lacks 'failed'")?;
        let Some(Value::Map(metrics)) = run.get_field("metrics") else {
            return Err("a run lacks 'metrics'".into());
        };
        for (name, m) in metrics {
            let value = m
                .get_field("value")
                .and_then(number)
                .ok_or(format!("metric '{name}' lacks a value"))?;
            samples.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(Side {
        metrics: samples
            .into_iter()
            .map(|(name, values)| (name, median(&values).expect("a metric has a sample")))
            .collect(),
        failed_share: if attempted > 0.0 {
            failed / attempted
        } else {
            0.0
        },
    })
}

/// A bound row of `BENCHMARK.json`'s `end_to_end`: `(name, lower is better, bound)`.
fn bounds(doc: &Value) -> Result<Vec<(String, bool, f64)>, String> {
    let Some(Value::Seq(rows)) = doc.get_field("end_to_end") else {
        return Err("the bounds file has no 'end_to_end' list".into());
    };
    rows.iter()
        .map(|row| {
            let field = |k: &str| {
                row.get_field(k)
                    .ok_or(format!("an end_to_end row lacks '{k}'"))
            };
            let Value::Str(name) = field("name")? else {
                return Err("an end_to_end name is not a string".into());
            };
            let lower = match field("better")? {
                Value::Str(s) if s == "lower" => true,
                Value::Str(s) if s == "higher" => false,
                _ => {
                    return Err(format!(
                        "metric '{name}': 'better' is neither lower nor higher"
                    ))
                }
            };
            let bound = number(field("bound")?)
                .ok_or(format!("metric '{name}': 'bound' is not a number"))?;
            Ok((name.clone(), lower, bound))
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's
/// own worse direction (negative = better).
fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let change = if a != 0.0 { (b - a) / a.abs() } else { 0.0 };
    if lower_is_better {
        change
    } else {
        -change
    }
}

/// Print the comparison; `Ok(true)` when nothing is beyond its bound
/// and no workload fails a larger share of its operations.
fn compare(a: &Value, b: &Value, bounds_doc: &Value) -> Result<bool, String> {
    let bounds = bounds(bounds_doc)?;
    let (Value::Map(a_workloads), Value::Map(_)) = (a, b) else {
        return Err("both result files must be JSON objects keyed by workload".into());
    };
    let mut within = true;
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for (workload, a_entry) in a_workloads {
        let b_entry = b
            .get_field(workload)
            .ok_or(format!("B has no workload '{workload}'"))?;
        let (a_side, b_side) = (side(a_entry)?, side(b_entry)?);
        for (name, lower, bound) in &bounds {
            let (Some(&va), Some(&vb)) = (a_side.metrics.get(name), b_side.metrics.get(name))
            else {
                return Err(format!(
                    "workload '{workload}' lacks metric '{name}' on one side"
                ));
            };
            let worse = worsening(va, vb, *lower);
            let ok = worse <= *bound;
            within &= ok;
            println!(
                "{workload:<16} {name:<22} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.1}%  {}",
                worse * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "beyond" }
            );
        }
        if b_side.failed_share > a_side.failed_share {
            within = false;
            println!(
                "{workload:<16} failed share rose from {:.6} to {:.6}  beyond",
                a_side.failed_share, b_side.failed_share
            );
        }
    }
    Ok(within)
}

fn read(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// The `compare` subcommand. `Ok(false)` = compared and found worse.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [a, b, flag, bounds_path] = args else {
        return Err("compare takes A.json B.json --bounds BENCHMARK.json".into());
    };
    if flag != "--bounds" {
        return Err(format!("expected --bounds, found '{flag}'"));
    }
    compare(&read(a)?, &read(b)?, &read(bounds_path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUNDS: &str = r#"{"end_to_end": [
        {"name": "op_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#;

    fn run(p50: f64, rate: f64, failed: u64) -> String {
        format!(
            r#"{{"correct": true, "attempted": 100, "failed": {failed}, "metrics": {{
                "op_p50_us": {{"value": {p50:?}, "unit": "us"}},
                "ops_per_s": {{"value": {rate:?}, "unit": "1/s"}}}}}}"#
        )
    }

    fn verdict(a: &str, b: &str) -> bool {
        let parse = |s: &str| serde_json::from_str::<Value>(s).unwrap();
        compare(&parse(a), &parse(b), &parse(BOUNDS)).unwrap()
    }

    #[test]
    fn worse_direction_follows_the_metric() {
        assert!((worsening(100.0, 112.0, true) - 0.12).abs() < 1e-12);
        assert!((worsening(100.0, 88.0, false) - 0.12).abs() < 1e-12);
        assert!(worsening(100.0, 90.0, true) < 0.0);
        assert!(worsening(100.0, 110.0, false) < 0.0);
    }

    #[test]
    fn within_bounds_passes_and_beyond_fails_in_either_direction() {
        let a = format!(r#"{{"serve_hot": {}}}"#, run(33.0, 29000.0, 0));
        assert!(verdict(
            &a,
            &format!(r#"{{"serve_hot": {}}}"#, run(35.0, 27000.0, 0))
        ));
        assert!(!verdict(
            &a,
            &format!(r#"{{"serve_hot": {}}}"#, run(37.0, 29000.0, 0))
        ));
        assert!(!verdict(
            &a,
            &format!(r#"{{"serve_hot": {}}}"#, run(33.0, 25000.0, 0))
        ));
        // Better on every metric, but more operations fail.
        assert!(!verdict(
            &a,
            &format!(r#"{{"serve_hot": {}}}"#, run(30.0, 31000.0, 1))
        ));
    }

    #[test]
    fn a_list_of_runs_compares_by_its_median() {
        let a = format!(r#"{{"curate": {}}}"#, run(60.0, 15.0, 0));
        // One run in three far beyond the bound; the median is not.
        let b = format!(
            r#"{{"curate": [{}, {}, {}]}}"#,
            run(61.0, 15.0, 0),
            run(90.0, 15.0, 0),
            run(59.0, 15.0, 0)
        );
        assert!(verdict(&a, &b));
        let parsed = side(
            &serde_json::from_str::<Value>(&b)
                .unwrap()
                .get_field("curate")
                .unwrap()
                .clone(),
        )
        .unwrap();
        assert_eq!(parsed.metrics["op_p50_us"], 61.0);
    }

    #[test]
    fn a_missing_workload_or_metric_is_an_error_not_a_pass() {
        let parse = |s: &str| serde_json::from_str::<Value>(s).unwrap();
        let a = parse(&format!(r#"{{"serve_hot": {}}}"#, run(33.0, 29000.0, 0)));
        let b = parse(&format!(r#"{{"curate": {}}}"#, run(33.0, 29000.0, 0)));
        assert!(compare(&a, &b, &parse(BOUNDS)).is_err());
        let thin = parse(r#"{"serve_hot": {"attempted": 1, "failed": 0, "metrics": {}}}"#);
        assert!(compare(&a, &thin, &parse(BOUNDS)).is_err());
    }
}
