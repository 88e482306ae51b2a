//! What one run found: metric values, per-round detail, operation and
//! invariant outcomes, and the machine it ran on — printed for people,
//! written whole to `report-<workload>.json`, and reduced to the
//! driver's one-line contract.

use std::collections::BTreeMap;

use serde::Value;

use crate::metrics::{self, MetricDef, Workload, METRICS};
use crate::stats::{best_of_rounds, rounds_around, Rounds};

pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub smoke: bool,
    /// Operations issued in the measured phases, and those whose
    /// outcome was wrong.
    pub attempted: u64,
    pub failed: u64,
    pub machine: Value,
    values: BTreeMap<&'static str, f64>,
    rounds: BTreeMap<&'static str, Rounds>,
    checks: Vec<(String, bool)>,
    notes: Vec<String>,
}

impl Report {
    pub fn new(workload: Workload, seed: u64, traced: bool, smoke: bool, machine: Value) -> Self {
        Report {
            workload,
            seed,
            traced,
            smoke,
            attempted: 0,
            failed: 0,
            machine,
            values: BTreeMap::new(),
            rounds: BTreeMap::new(),
            checks: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn def_for(&self, name: &str) -> &'static MetricDef {
        let def =
            metrics::def(name).unwrap_or_else(|| panic!("metric '{name}' is not in the table"));
        assert!(
            def.emitted_by(self.workload),
            "metric '{name}' is not declared for {}",
            self.workload.name()
        );
        def
    }

    /// Emit a metric. The name must be in the table and declared for
    /// this workload; a value is emitted once.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = self.def_for(name);
        assert!(value.is_finite(), "metric '{name}' is {value}");
        let previous = self.values.insert(def.name, value);
        assert!(previous.is_none(), "metric '{name}' emitted twice");
    }

    /// Emit a metric as the best of its per-round values, keeping the
    /// rounds and the noise indicator in the report.
    pub fn set_best_of(&mut self, name: &str, per_round: &[f64]) {
        let rounds = best_of_rounds(per_round, self.def_for(name).better)
            .unwrap_or_else(|| panic!("metric '{name}' has no rounds"));
        self.set_beside_rounds(name, rounds.best, per_round);
    }

    /// Emit a metric whose value was put together from the best
    /// repetition of each operation, keeping the whole rounds' values
    /// beside it as the noise indicator.
    pub fn set_beside_rounds(&mut self, name: &str, value: f64, per_round: &[f64]) {
        let def = self.def_for(name);
        let rounds = rounds_around(value, per_round)
            .unwrap_or_else(|| panic!("metric '{name}' has no rounds"));
        self.set(name, value);
        self.rounds.insert(def.name, rounds);
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Record a named invariant of the scenario.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// No operation failed and every invariant held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The names this run owes: every end-to-end metric always, and
    /// every per-layer metric of the workload when traced.
    pub fn missing(&self) -> Vec<&'static str> {
        METRICS
            .iter()
            .filter(|m| m.emitted_by(self.workload) && (m.end_to_end() || self.traced))
            .filter(|m| !self.values.contains_key(m.name))
            .map(|m| m.name)
            .collect()
    }

    pub fn print(&self) {
        println!(
            "== {} seed {} {}{}",
            self.workload.name(),
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            if self.smoke { " (smoke sizes)" } else { "" }
        );
        println!(
            "machine: {}",
            serde_json::to_string(&self.machine).expect("machine record serializes")
        );
        for (title, end_to_end) in [("end to end", true), ("per layer", false)] {
            println!("-- {title}");
            for m in METRICS.iter().filter(|m| m.end_to_end() == end_to_end) {
                let Some(value) = self.values.get(m.name) else {
                    continue;
                };
                match self.rounds.get(m.name) {
                    Some(r) => println!(
                        "{:<46} {:>16.4} {:<6} best of {} rounds, median round {:.4}, noise {:.1}%",
                        m.name,
                        value,
                        m.unit,
                        r.values.len(),
                        r.median,
                        r.noise * 100.0
                    ),
                    None => println!("{:<46} {:>16.4} {}", m.name, value, m.unit),
                }
            }
        }
        println!("-- correctness");
        println!(
            "operations attempted {} failed {}",
            self.attempted, self.failed
        );
        for (what, ok) in &self.checks {
            println!("{} {what}", if *ok { "ok  " } else { "FAIL" });
        }
        for note in &self.notes {
            println!("note: {note}");
        }
    }

    fn metric_value(name: &str, value: f64) -> (String, Value) {
        let unit = metrics::def(name)
            .expect("emitted names are in the table")
            .unit;
        (
            name.to_string(),
            Value::Map(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(unit.into())),
            ]),
        )
    }

    /// The whole report, as written to `report-<workload>.json`.
    pub fn to_value(&self) -> Value {
        let floats = |v: &[f64]| Value::Seq(v.iter().map(|x| Value::Float(*x)).collect());
        Value::Map(vec![
            ("workload".into(), Value::Str(self.workload.name().into())),
            ("seed".into(), Value::UInt(self.seed)),
            ("traced".into(), Value::Bool(self.traced)),
            ("smoke".into(), Value::Bool(self.smoke)),
            ("machine".into(), self.machine.clone()),
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            (
                "metrics".into(),
                Value::Map(
                    self.values
                        .iter()
                        .map(|(name, value)| Self::metric_value(name, *value))
                        .collect(),
                ),
            ),
            (
                "rounds".into(),
                Value::Map(
                    self.rounds
                        .iter()
                        .map(|(name, r)| {
                            (
                                name.to_string(),
                                Value::Map(vec![
                                    ("best".into(), Value::Float(r.best)),
                                    ("median".into(), Value::Float(r.median)),
                                    ("noise".into(), Value::Float(r.noise)),
                                    ("values".into(), floats(&r.values)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "checks".into(),
                Value::Map(
                    self.checks
                        .iter()
                        .map(|(what, ok)| (what.clone(), Value::Bool(*ok)))
                        .collect(),
                ),
            ),
            (
                "notes".into(),
                Value::Seq(self.notes.iter().cloned().map(Value::Str).collect()),
            ),
        ])
    }

    /// The driver's contract: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics` — every end-to-end metric
    /// untraced, every per-layer metric common to all workloads traced.
    pub fn contract_line(&self) -> String {
        let metrics = METRICS
            .iter()
            .filter(|m| m.common() && m.end_to_end() != self.traced)
            .map(|m| {
                let value = self.values[m.name];
                Self::metric_value(m.name, value)
            })
            .collect();
        serde_json::to_string(&Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Map(metrics)),
        ]))
        .expect("finite floats always serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(traced: bool) -> Report {
        Report::new(Workload::ServeHot, 1, traced, true, Value::Null)
    }

    #[test]
    fn contract_line_carries_one_family_of_metrics() {
        let mut r = report(false);
        for m in METRICS.iter().filter(|m| m.end_to_end()) {
            r.set(m.name, 1.5);
        }
        r.attempted = 10;
        assert!(r.missing().is_empty());
        let line: Value = serde_json::from_str(&r.contract_line()).unwrap();
        let Value::Map(fields) = &line else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Value::Map(metrics)) = line.get_field("metrics") else {
            panic!()
        };
        assert_eq!(metrics.len(), 6);
        assert_eq!(
            line.get_field("metrics").unwrap().get_field("setup_s"),
            Some(&Value::Map(vec![
                ("value".into(), Value::Float(1.5)),
                ("unit".into(), Value::Str("s".into()))
            ]))
        );
    }

    #[test]
    fn a_failed_check_or_operation_makes_the_run_incorrect() {
        let mut r = report(false);
        assert!(r.correct());
        r.check("snapshots identical", true);
        assert!(r.correct());
        r.check("epoch bumps once per cycle", false);
        assert!(!r.correct());
        let mut r = report(false);
        r.failed = 1;
        assert!(!r.correct());
    }

    #[test]
    fn best_of_rounds_lands_in_the_report() {
        let mut r = report(false);
        r.set_best_of("op_p50_us", &[33.0, 50.0, 34.0]);
        r.set_best_of("ops_per_s", &[100.0, 90.0, 120.0]);
        assert_eq!(r.get("op_p50_us"), Some(33.0));
        assert_eq!(r.get("ops_per_s"), Some(120.0));
        assert!(r.missing().contains(&"setup_s"));
    }

    #[test]
    #[should_panic(expected = "not declared for serve_hot")]
    fn a_metric_of_another_workload_is_refused() {
        report(true).set("equiv.pair_analysis_us", 1.0);
    }
}
