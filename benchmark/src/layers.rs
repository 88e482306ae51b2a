//! The decomposed replay of a traced run: for a fixed sample of
//! queries, each layer's public function is called in pipeline order on
//! the same input, timed from outside, and recorded as a child span of
//! the replayed operation.
//!
//! What the public calls cannot reach — the engine's admitted-set
//! build, scoring, sort, cache insert and bookkeeping — is the
//! difference between a whole miss through `SommelierReader` and the
//! sum of the stages, reported as `query.reader.unattributed_us`.

use std::path::Path;
use std::time::Instant;

use serde::Value;
use sommelier_index::{persist, CandidateKind};
use sommelier_parallel::ThreadPool;
use sommelier_query::{
    normalize_query, parse, plan, PlanCache, QueryResult, RefSpec, SommelierReader,
};
use sommelier_runtime::metrics::latency;
use sommelier_serving::daemon::admission::{AdmissionGate, Decision};
use sommelier_serving::daemon::protocol::{ok_frame, parse_request};
use sommelier_serving::daemon::tenants::TenantBook;

use crate::alloc;
use crate::fixture::{respelled, QueryCase};
use crate::oracle::{self, results_match};
use crate::report::Report;
use crate::stats::{percentile, secs};
use crate::storage::MemoryStorage;
use crate::trace::{Recorder, SpanId};
use crate::RunArgs;

/// Calls too short for the clock to resolve alone are timed this many
/// at a time.
const BATCH: usize = 64;

fn us(from: Instant) -> f64 {
    secs(from) * 1e6
}

/// Time one call; return its result and microseconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, Instant, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    let took = us(start);
    (out, start, took)
}

/// Time `BATCH` calls of `f`; return the last result and the mean
/// microseconds of one call.
fn batched<R>(mut f: impl FnMut() -> R) -> (R, Instant, f64) {
    let start = Instant::now();
    let mut out = std::hint::black_box(f());
    for _ in 1..BATCH {
        out = std::hint::black_box(f());
    }
    let took = us(start) / BATCH as f64;
    (out, start, took)
}

/// The wire form of a result, as the daemon renders it.
fn result_value(r: &QueryResult) -> Value {
    let kind = match &r.kind {
        CandidateKind::Whole => Value::Str("whole".into()),
        CandidateKind::Transitive { via } => Value::Map(vec![
            ("transitive".into(), Value::Bool(true)),
            ("via".into(), Value::Str(via.clone())),
        ]),
        CandidateKind::Synthesized { donor } => Value::Map(vec![
            ("synthesized".into(), Value::Bool(true)),
            ("donor".into(), Value::Str(donor.clone())),
        ]),
    };
    Value::Map(vec![
        ("key".into(), Value::Str(r.key.clone())),
        ("score".into(), Value::Float(r.score)),
        ("diff_bound".into(), Value::Float(r.diff_bound)),
        ("memory_mb".into(), Value::Float(r.profile.memory_mb)),
        ("gflops".into(), Value::Float(r.profile.gflops)),
        ("latency_ms".into(), Value::Float(r.profile.latency_ms)),
        ("kind".into(), kind),
    ])
}

/// Write the trace beside the report and note where it went and the
/// self time each span name accounts for.
pub fn finish_trace(
    recorder: &Recorder,
    args: &RunArgs,
    report: &mut Report,
) -> Result<(), String> {
    let path = args
        .out_dir
        .join(format!("trace-{}.json", args.workload.name()));
    recorder
        .write_json(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    report.note(format!(
        "{} spans written to {}",
        recorder.len(),
        path.display()
    ));
    for (name, st) in recorder.self_times() {
        report.note(format!(
            "self time {name}: {:.1} us over {} spans",
            st.total_us, st.spans
        ));
    }
    Ok(())
}

/// Best of `reps` timings of `f`, in milliseconds.
fn best_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..reps)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(f());
            secs(started) * 1e3
        })
        .min_by(f64::total_cmp)
        .expect("at least one repetition")
}

/// Save and reopen the live indices in both snapshot formats (best of
/// three each, on the in-memory storage the workloads save to) and emit
/// the `index.persist.*` and footprint metrics.
pub fn persist_metrics(
    reader: &SommelierReader,
    dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let snap = reader.snapshot();
    let storage = MemoryStorage::default();
    let (somb, json) = (dir.join("persist.somb"), dir.join("persist.json"));
    let save = |binary: bool| {
        if binary {
            persist::save_binary_with(&storage, &snap.semantic, &snap.resource, snap.epoch, &somb)
        } else {
            persist::save_with(&storage, &snap.semantic, &snap.resource, snap.epoch, &json)
        }
        .expect("snapshot saves")
    };
    let open = |path: &Path| persist::read_snapshot_with(&storage, path).expect("snapshot opens");
    report.set("index.persist.save_somb_ms", best_ms(3, || save(true)));
    report.set("index.persist.open_somb_ms", best_ms(3, || open(&somb)));
    report.set("index.persist.save_json_ms", best_ms(3, || save(false)));
    report.set("index.persist.open_json_ms", best_ms(3, || open(&json)));
    report.set(
        "index.snapshot_bytes_per_model",
        storage.bytes_under(&somb) as f64 / snap.semantic.len() as f64,
    );
    report.set(
        "index.resource.footprint_bytes",
        snap.resource.footprint_bytes() as f64,
    );
    Ok(())
}

/// Samples the engine's process-wide latency series holds — the
/// 8 bytes per query nothing drains.
pub fn samples_retained() -> f64 {
    latency::quantiles("query.batch.latency_ms").map_or(0.0, |q| q.count as f64)
}

/// Replay `samples` queries drawn round-robin from `cases` and emit the
/// query and index layer metrics — and, with `serving`, those of the
/// daemon's protocol, tenant and admission layers, which a workload
/// without a daemon leaves out.
///
/// Every replayed query is checked against the oracle; mismatches are
/// counted into the report like any other failed operation.
pub fn replay_queries(
    reader: &SommelierReader,
    serving: bool,
    cases: &[QueryCase],
    samples: usize,
    recorder: &mut Recorder,
    report: &mut Report,
) {
    let snap = reader.snapshot();
    let pool = ThreadPool::new(1);
    let gate = AdmissionGate::new(1, 4);
    let tenants = TenantBook::unrestricted();
    // The replay's own plan cache, the size the workloads run with, so
    // probing it disturbs nothing and a hit is a hit by construction.
    let cache = PlanCache::new(512);

    let mut stages: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    let (mut stage_sums, mut misses) = (Vec::new(), Vec::new());
    let (mut miss_alloc, mut range_alloc, mut frame_alloc) = (Vec::new(), Vec::new(), Vec::new());
    let mut keys_out = Vec::new();

    for s in 0..samples {
        let case = &cases[s % cases.len()];
        let rep = s / cases.len();
        let op = s as u64;
        let want = oracle::expected(&snap, &case.query).expect("generated references are indexed");
        let text = [respelled(&case.text, "SELECT", rep)];
        let mut stage = |name: &'static str, took: f64| stages.entry(name).or_default().push(took);

        let root = recorder.record("replay.query", None, op, Instant::now(), Instant::now());
        // The whole operation first, through the reader: a miss, on a
        // spelling not probed before, and then hits on the same.
        let before = alloc::thread_total();
        let (items, start, took) = timed(|| reader.query_batch(&text));
        miss_alloc.push(alloc::thread_total().since(before).bytes as f64);
        recorder.record_duration("query.reader.miss", Some(root), op, start, took);
        report.attempted += 1;
        let results = match &items[0].results {
            Ok(results) if results_match(results, &want) && items[0].epoch == snap.epoch => {
                results.clone()
            }
            _ => {
                report.failed += 1;
                continue;
            }
        };
        misses.push(took);
        stage("query.reader.miss", took);
        // The first call after a miss also pays the allocator's deferred
        // sorting of everything the miss freed (20–60 us after a 5 000-key
        // sweep); the hit that is timed is the one after that.
        std::hint::black_box(reader.query_batch(&text));
        let (items, start, took) = timed(|| reader.query_batch(&text));
        recorder.record_duration("query.reader.hit", Some(root), op, start, took);
        report.attempted += 1;
        report.failed += u64::from(
            !items[0]
                .results
                .as_ref()
                .is_ok_and(|r| results_match(r, &want)),
        );
        stage("query.reader.hit", took);

        // Then the same miss, one public call at a time.
        let replay = recorder.record(
            "replay.miss",
            Some(root),
            op,
            Instant::now(),
            Instant::now(),
        );
        let child =
            |recorder: &mut Recorder, name: &'static str, start: Instant, took: f64| -> SpanId {
                recorder.record_duration(name, Some(replay), op, start, took)
            };
        let mut sum = 0.0;
        if serving {
            let frame = serde_json::to_string(&Value::Map(vec![
                ("id".into(), Value::UInt(op + 1)),
                ("op".into(), Value::Str("query".into())),
                ("text".into(), Value::Str(case.text.clone())),
            ]))
            .expect("a request frame serializes");
            let (request, start, took) = timed(|| parse_request(&frame));
            assert!(request.is_ok(), "the client's own frame parses");
            child(recorder, "serving.protocol.parse_request", start, took);
            stage("serving.protocol.parse_request", took);
            let (_, start, took) = batched(|| tenants.check(None, 1.0));
            child(recorder, "serving.tenants.check", start, took);
            stage("serving.tenants.check", took);
            let (_, start, took) = batched(|| match gate.admit() {
                Decision::Admitted(permit) => permit.complete(),
                _ => unreachable!("an idle gate admits"),
            });
            child(recorder, "serving.admission.admit", start, took);
            stage("serving.admission.admit", took);
        }
        let (normalized, start, took) = batched(|| normalize_query(&case.text));
        child(recorder, "query.plancache.normalize", start, took);
        stage("query.plancache.normalize", took);
        sum += took;
        let (probe, start, took) = batched(|| cache.get(snap.epoch, &normalized));
        assert!(probe.is_none(), "the replay cache has not seen this text");
        child(recorder, "query.plancache.get", start, took);
        stage("query.plancache.get", took);
        sum += took;
        let (ast, start, took) = timed(|| parse(&normalized));
        let ast = ast.expect("generated texts parse");
        child(recorder, "query.parser.parse", start, took);
        stage("query.parser.parse", took);
        sum += took;
        let RefSpec::Named(reference) = &ast.reference else {
            unreachable!("generated queries name their reference");
        };
        let ref_profile = *snap
            .resource
            .profile_of(reference)
            .expect("reference is indexed");
        let (planned, start, took) = timed(|| plan(&ast, reference, &ref_profile));
        child(recorder, "query.plan.plan", start, took);
        stage("query.plan.plan", took);
        sum += took;
        let (candidates, start, took) = batched(|| {
            snap.semantic
                .lookup_key(&planned.reference_key, planned.min_score)
        });
        child(recorder, "index.semantic.lookup", start, took);
        stage("index.semantic.lookup", took);
        sum += took;
        let before = alloc::thread_total();
        let (admitted, start, took) =
            timed(|| snap.resource.query_with(&pool, &planned.constraint));
        range_alloc.push(alloc::thread_total().since(before).bytes as f64);
        keys_out.push(admitted.len() as f64);
        drop(admitted);
        child(recorder, "index.resource.range", start, took);
        stage("index.resource.range", took);
        sum += took;
        if !candidates.is_empty() {
            let (_, start, took) = batched(|| {
                candidates
                    .iter()
                    .filter_map(|c| snap.resource.profile_of(&c.key))
                    .count()
            });
            child(recorder, "index.resource.profile_of", start, took);
            stage("index.resource.profile_of", took / candidates.len() as f64);
            sum += took;
        }
        stage_sums.push(sum);
        if serving {
            let fields = || {
                vec![
                    ("epoch".to_string(), Value::UInt(snap.epoch)),
                    ("latency_ms".to_string(), Value::Float(items[0].latency_ms)),
                    (
                        "results".to_string(),
                        Value::Seq(results.iter().map(result_value).collect()),
                    ),
                ]
            };
            let reply_shaped = fields();
            let before = alloc::thread_total();
            let (_, start, took) = timed(|| ok_frame(op + 1, reply_shaped));
            frame_alloc.push(alloc::thread_total().since(before).bytes as f64);
            child(recorder, "serving.protocol.ok_frame", start, took);
            stage("serving.protocol.ok_frame", took);
        }
        let end = Instant::now();
        recorder.extend_to(replay, end);
        recorder.extend_to(root, end);
    }

    let p50 = |v: &mut Vec<f64>| percentile(v, 0.5).unwrap_or(0.0);
    for (name, samples) in stages.iter_mut() {
        report.set(&format!("{name}_us"), p50(samples));
    }
    let miss_us = p50(&mut misses);
    let stage_sum = p50(&mut stage_sums);
    report.set(
        "query.reader.stage_sum_ratio",
        if miss_us > 0.0 {
            stage_sum / miss_us
        } else {
            0.0
        },
    );
    report.set("query.reader.unattributed_us", miss_us - stage_sum);
    report.set("query.reader.miss.alloc_bytes", p50(&mut miss_alloc));
    report.set("index.resource.range.alloc_bytes", p50(&mut range_alloc));
    report.set("index.resource.range_keys_out", p50(&mut keys_out));
    if serving {
        report.set(
            "serving.protocol.ok_frame.alloc_bytes",
            p50(&mut frame_alloc),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_runtime::ResourceProfile;

    #[test]
    fn batched_reports_the_mean_of_one_call() {
        let mut calls = 0;
        let (last, _, mean_us) = batched(|| {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_micros(50));
            calls
        });
        assert_eq!((calls, last), (BATCH, BATCH));
        assert!(mean_us >= 50.0, "{mean_us}");
    }

    #[test]
    fn reply_shape_matches_what_the_client_decodes() {
        let result = QueryResult {
            key: "a+b".into(),
            score: 0.75,
            diff_bound: 0.25,
            profile: ResourceProfile {
                memory_mb: 1.0,
                gflops: 2.0,
                latency_ms: 3.0,
            },
            kind: CandidateKind::Synthesized { donor: "b".into() },
        };
        let v = result_value(&result);
        let frame = ok_frame(
            3,
            vec![
                ("epoch".into(), Value::UInt(9)),
                ("results".into(), Value::Seq(vec![v])),
            ],
        );
        let body: Value = serde_json::from_str(&frame).unwrap();
        let reply = sommelier_serving::daemon::client::Reply {
            id: 3,
            ok: true,
            body,
        };
        assert!(oracle::reply_matches(
            &reply,
            9,
            &vec![("a+b".to_string(), 0.75)]
        ));
        assert!(!oracle::reply_matches(
            &reply,
            8,
            &vec![("a+b".to_string(), 0.75)]
        ));
        assert!(!oracle::reply_matches(
            &reply,
            9,
            &vec![("a+b".to_string(), 0.5)]
        ));
        assert!(!oracle::reply_matches(&reply, 9, &Vec::new()));
    }
}
