//! Every metric the benchmark emits: name, unit, direction, which
//! workloads emit it, and (end-to-end only) the bound by which a change
//! may worsen it. `BENCHMARK.json` at the repository root restates the
//! end-to-end rows and the per-layer rows every workload emits; the
//! smoke test holds the two in agreement.

use crate::stats::Better::{self, Higher, Lower};

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    ServeHot,
    ServeUncached,
    ServeChurn,
    Curate,
}

use Workload::{Curate, ServeChurn, ServeHot, ServeUncached};

impl Workload {
    pub const ALL: [Workload; 4] = [ServeHot, ServeUncached, ServeChurn, Curate];

    pub fn name(self) -> &'static str {
        match self {
            ServeHot => "serve_hot",
            ServeUncached => "serve_uncached",
            ServeChurn => "serve_churn",
            Curate => "curate",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One row of the metric table.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `Some(bound)` marks an end-to-end metric: the share of the
    /// parent's median by which it may worsen.
    pub bound: Option<f64>,
    pub workloads: &'static [Workload],
}

impl MetricDef {
    pub fn end_to_end(&self) -> bool {
        self.bound.is_some()
    }

    pub fn emitted_by(&self, workload: Workload) -> bool {
        self.workloads.contains(&workload)
    }

    /// Emitted by every workload, so part of the driver's contract.
    pub fn common(&self) -> bool {
        self.workloads.len() == Workload::ALL.len()
    }
}

const ALL: &[Workload] = &Workload::ALL;
const SERVE: &[Workload] = &[ServeHot, ServeUncached, ServeChurn];
const MUTATING: &[Workload] = &[ServeChurn, Curate];
const CHURN: &[Workload] = &[ServeChurn];
const CURATE: &[Workload] = &[Curate];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        workloads: ALL,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workloads: &'static [Workload],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        workloads,
    }
}

/// The table. README.md defines each row in words.
pub const METRICS: &[MetricDef] = &[
    // The three timings and the set-up follow the host's clock, which
    // steps by 10 to 17 % for minutes at a time (REPEATABILITY.md):
    // theirs is the widest bound the driver allows. Memory and disk
    // do not, and keep the bounds the benchmark was specified with.
    e2e("op_p50_us", "us", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("cpu_us_per_op", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.03),
    e2e("disk_bytes_per_model", "B", Lower, 0.005),
    e2e("setup_s", "s", Lower, 0.25),
    // serving
    layer("serving.wire_overhead_us", "us", Lower, SERVE),
    layer("serving.protocol.parse_request_us", "us", Lower, SERVE),
    layer("serving.protocol.ok_frame_us", "us", Lower, SERVE),
    layer("serving.protocol.ok_frame.alloc_bytes", "B", Lower, SERVE),
    layer("serving.admission.admit_us", "us", Lower, SERVE),
    layer("serving.tenants.check_us", "us", Lower, SERVE),
    layer("serving.client.rtt_p99_us", "us", Lower, SERVE),
    layer("serving.requests", "count", Higher, SERVE),
    layer("serving.shed", "count", Lower, SERVE),
    // query
    layer("query.plancache.hit_rate", "ratio", Higher, ALL),
    layer("query.plancache.normalize_us", "us", Lower, ALL),
    layer("query.plancache.get_us", "us", Lower, ALL),
    layer("query.parser.parse_us", "us", Lower, ALL),
    layer("query.plan.plan_us", "us", Lower, ALL),
    layer("query.reader.hit_us", "us", Lower, ALL),
    layer("query.reader.miss_us", "us", Lower, ALL),
    layer("query.reader.miss.alloc_bytes", "B", Lower, ALL),
    layer("query.reader.miss_p95_us", "us", Lower, CHURN),
    layer("query.reader.stage_sum_ratio", "ratio", Higher, ALL),
    layer("query.reader.unattributed_us", "us", Lower, ALL),
    layer("query.candidates_scored_per_query", "count", Lower, ALL),
    layer("query.engine.apply_us", "us", Lower, MUTATING),
    layer("query.engine.apply.alloc_bytes", "B", Lower, MUTATING),
    layer("query.engine.apply_residual_us", "us", Lower, CURATE),
    layer("query.engine.first_apply_ms", "ms", Lower, CHURN),
    layer("query.engine.cold_open_ms", "ms", Lower, ALL),
    layer("query.engine.rebuild_ms", "ms", Lower, CURATE),
    // index
    layer("index.semantic.lookup_us", "us", Lower, ALL),
    layer("index.resource.range_us", "us", Lower, ALL),
    layer("index.resource.range_keys_out", "count", Lower, ALL),
    layer("index.resource.range.alloc_bytes", "B", Lower, ALL),
    layer("index.resource.profile_of_us", "us", Lower, ALL),
    layer("index.resource.footprint_bytes", "B", Lower, ALL),
    layer("index.persist.save_somb_ms", "ms", Lower, ALL),
    layer("index.persist.open_somb_ms", "ms", Lower, ALL),
    layer("index.persist.save_json_ms", "ms", Lower, ALL),
    layer("index.persist.open_json_ms", "ms", Lower, ALL),
    layer("index.snapshot_bytes_per_model", "B", Lower, ALL),
    layer("index.pair_analyses_per_register", "count", Lower, CURATE),
    // equiv
    layer("equiv.pair_analysis_us", "us", Lower, CURATE),
    layer("equiv.paircache.hit_rate", "ratio", Higher, CURATE),
    // repo / fault
    layer("repo.publish_flat_us", "us", Lower, CURATE),
    layer("repo.load_flat_us", "us", Lower, CURATE),
    layer("repo.load_chunked_us", "us", Lower, CURATE),
    layer("repo.dedup_store_ms", "ms", Lower, CURATE),
    layer("repo.bytes_flat_per_param_byte", "ratio", Lower, CURATE),
    layer("repo.bytes_chunked_per_param_byte", "ratio", Lower, CURATE),
    layer("fault.storage.writes_per_register", "count", Lower, CURATE),
    layer("fault.storage.reads_per_register", "count", Lower, CURATE),
    layer("fault.storage.fsyncs_per_register", "count", Lower, CURATE),
    layer(
        "fault.storage.bytes_written_per_param_byte",
        "ratio",
        Lower,
        CURATE,
    ),
    // runtime
    layer("runtime.profile_us", "us", Lower, CURATE),
    layer("runtime.latency.samples_retained", "count", Lower, ALL),
    // the benchmark's own
    layer("alloc.bytes_per_op", "B", Lower, ALL),
    layer("alloc.count_per_op", "count", Lower, ALL),
    layer("zoo.fixture_s", "s", Lower, ALL),
    layer("trace.overhead_ratio", "ratio", Lower, ALL),
];

pub fn def(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let names: BTreeSet<&str> = METRICS.iter().map(|m| m.name).collect();
        assert_eq!(names.len(), METRICS.len());
        for m in METRICS {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            if let Some(bound) = m.bound {
                assert!(bound > 0.0 && bound <= 0.25);
                assert!(m.common(), "end-to-end metrics come from every workload");
            }
        }
        assert!(def("setup_s").is_some_and(|m| m.unit == "s" && m.better == Lower));
    }

    /// `BENCHMARK.json` is the driver's copy of this table: the same
    /// workloads, every end-to-end row with its bound, and the per-layer
    /// rows every workload emits.
    #[test]
    fn benchmark_json_restates_the_table() {
        use serde::Value;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rows = |key: &str| -> Vec<Value> {
            match doc.get_field(key) {
                Some(Value::Seq(rows)) => rows.clone(),
                other => panic!("BENCHMARK.json '{key}' is {other:?}"),
            }
        };
        let text = |row: &Value, key: &str| -> String {
            match row.get_field(key) {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("'{key}' is {other:?}"),
            }
        };
        let declared: Vec<String> = rows("workloads").iter().map(|w| text(w, "name")).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared, ours);

        for (key, end_to_end) in [("end_to_end", true), ("per_layer", false)] {
            let ours: Vec<&MetricDef> = METRICS
                .iter()
                .filter(|m| m.common() && m.end_to_end() == end_to_end)
                .collect();
            let theirs = rows(key);
            assert_eq!(theirs.len(), ours.len(), "{key}");
            for (row, m) in theirs.iter().zip(ours) {
                assert_eq!(text(row, "name"), m.name);
                assert_eq!(text(row, "unit"), m.unit, "{}", m.name);
                let better = match m.better {
                    Lower => "lower",
                    Higher => "higher",
                };
                assert_eq!(text(row, "better"), better, "{}", m.name);
                let bound = match row.get_field("bound") {
                    Some(Value::Float(b)) => Some(*b),
                    None => None,
                    other => panic!("bound of {} is {other:?}", m.name),
                };
                assert_eq!(bound, m.bound, "{}", m.name);
            }
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("serve"), None);
    }
}
