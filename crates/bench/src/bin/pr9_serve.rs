//! PR 9 performance gate: the `sommelier serve` daemon under saturation.
//!
//! One daemon, one engine, a 5k-model synthetic index — and three
//! phases:
//!
//! 1. **Single-connection baseline.** One interactive client issues one
//!    `query` frame per round trip: the natural lowest-concurrency
//!    client, paying full protocol + scheduling overhead per query.
//! 2. **Saturation.** 8 concurrent connections pipeline `query_batch`
//!    frames, keeping the daemon's admission gate busy while a mutator
//!    thread storms `apply` + reindex republishes through
//!    [`DaemonHandle::with_engine`]. The gate is throughput ≥ 3× the
//!    single-connection baseline with **zero** protocol errors and
//!    **zero** mixed-epoch batches — every batch frame must report one
//!    pinned snapshot epoch across all of its items even though the
//!    epoch is bumping underneath it.
//! 3. **Over-admission.** A fresh daemon with `workers=1 queue_depth=2`
//!    is hit by a long-running batch plus 6 bursting probes: arrivals
//!    past the bounded queue must shed with a typed `overloaded` +
//!    `retry_after_ms` response (never a hang), and the observed
//!    `serve.max_inflight` must stay within `workers + queue_depth`.
//!
//! ```sh
//! cargo run --release -p sommelier-bench --bin pr9_serve
//! # SOMMELIER_PR9_MODE=full for a larger zoo and longer phases
//! ```

use serde::{Serialize, Value};
use sommelier_bench::{fmt, print_table, write_json};
use sommelier_graph::{Fingerprint, TaskKind};
use sommelier_index::lsh::LshConfig;
use sommelier_index::semantic::{CandidateKind, CandidateRecord, SemanticIndexConfig};
use sommelier_index::{persist, ResourceIndex, SemanticIndex};
use sommelier_query::{MutationBatch, Sommelier, SommelierConfig};
use sommelier_repo::{InMemoryRepository, ModelRepository};
use sommelier_serving::daemon::client::Client;
use sommelier_serving::{Daemon, DaemonConfig};
use sommelier_tensor::Prng;
use sommelier_zoo::families::Family;
use sommelier_zoo::series::build_series;
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct Run {
    connections: usize,
    frames: usize,
    queries: usize,
    elapsed_s: f64,
    queries_per_sec: f64,
    /// Client-side per-frame latency quantiles (exact nearest-rank).
    frame_p50_ms: f64,
    frame_p99_ms: f64,
}

#[derive(Serialize)]
struct ShedRun {
    probes: usize,
    workers: usize,
    queue_depth: usize,
    /// `workers + queue_depth`: the hard concurrency bound.
    capacity: usize,
    /// Typed `overloaded` responses observed by the probes.
    shed: u64,
    /// Peak concurrent admissions the gate ever saw.
    max_inflight: u64,
    /// Smallest `retry_after_ms` hint carried by a shed response.
    min_retry_after_ms: u64,
    /// `max_inflight <= capacity` — the queue really is bounded.
    queue_bounded: bool,
}

#[derive(Serialize)]
struct Bench {
    experiment: &'static str,
    mode: String,
    models: usize,
    batch_size: usize,
    single: Run,
    saturated: Run,
    /// `saturated.qps / single.qps` — gated >= 3.0 by bench.sh.
    throughput_ratio: f64,
    /// Snapshot publications (epoch delta) during the serving phases.
    republishes: u64,
    /// Distinct epochs observed inside batch replies.
    epochs_seen: usize,
    /// Batch replies whose items disagreed on the epoch — gated == 0.
    mixed_epoch_batches: u64,
    /// Transport or non-ok responses in phases 1–2 — gated == 0.
    protocol_errors: u64,
    /// Daemon-side `serve.request_ms` histogram quantiles.
    server_p50_ms: f64,
    server_p99_ms: f64,
    shed: ShedRun,
}

/// A controlled-shape index pair (same construction as the PR 7 bench):
/// `models` keys, each with `cands` candidate records, every key
/// carrying a resource profile. Deterministic arithmetic stands in for
/// analysis so the zoo is large without costing minutes to build.
fn synthetic(models: usize, cands: usize) -> (SemanticIndex, ResourceIndex) {
    let keys: Vec<String> = (0..models)
        .map(|i| format!("hub/family-{:02}/model-{:05}", i % 37, i))
        .collect();
    let mut resource = ResourceIndex::new(LshConfig::default(), 7);
    for (i, key) in keys.iter().enumerate() {
        let x = i as f64;
        resource.insert(
            key,
            sommelier_runtime::ResourceProfile {
                memory_mb: 32.0 + (x * 1.7) % 4096.0,
                gflops: 0.5 + (x * 0.13) % 40.0,
                latency_ms: 1.0 + (x * 0.41) % 90.0,
            },
        );
    }
    let entries: Vec<(Fingerprint, String, Vec<CandidateRecord>)> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| {
            let fp = Fingerprint((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
            let candidates = (1..=cands)
                .map(|j| {
                    let other = keys[(i + j * 131) % keys.len()].clone();
                    let diff = ((i * 31 + j * 17) % 1000) as f64 / 1250.0;
                    let kind = if j % 3 == 0 {
                        CandidateKind::Transitive {
                            via: keys[(i + j) % keys.len()].clone(),
                        }
                    } else {
                        CandidateKind::Whole
                    };
                    CandidateRecord {
                        key: other,
                        diff_bound: diff,
                        score: (1.0 - diff).max(0.0),
                        kind,
                    }
                })
                .collect();
            (fp, key.clone(), candidates)
        })
        .collect();
    let semantic = SemanticIndex::from_parts(SemanticIndexConfig::default(), 7, entries, keys);
    (semantic, resource)
}

fn engine_config() -> SommelierConfig {
    let mut cfg = SommelierConfig {
        validation_rows: 64,
        // The daemon's own admission gate governs concurrency; engine
        // lanes stay at 1 so queries don't time-slice against each
        // other inside a single execution.
        jobs: 1,
        // Plan/result cache ON: a long-lived daemon serving repeated
        // query texts is exactly the workload the cache exists for.
        query_cache_cap: 512,
        ..SommelierConfig::default()
    };
    cfg.index.sample_size = 12;
    cfg.index.segments = false;
    cfg
}

/// The shared query workload: every text names its own synthetic
/// reference so plan-cache hits are realistic (a handful of popular
/// queries), not degenerate (one text repeated).
fn workload(models: usize, distinct: usize) -> Vec<String> {
    (0..distinct)
        .map(|i| {
            let reference = format!("hub/family-{:02}/model-{:05}", (i * 97) % 37, (i * 97) % models);
            let within = 0.2 + (i % 8) as f64 * 0.05;
            format!(
                "SELECT models 3 CORR {reference} ON memory <= 500% WITHIN {within:.2} ORDER BY similarity"
            )
        })
        .collect()
}

/// Exact nearest-rank percentile of an unsorted latency sample.
fn pctl(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

fn uint_of(value: &Value) -> Option<u64> {
    match value {
        Value::UInt(n) => Some(*n),
        Value::Int(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

fn float_of(value: &Value) -> Option<f64> {
    match value {
        Value::Float(f) => Some(*f),
        other => uint_of(other).map(|n| n as f64),
    }
}

/// Pull one `serve.*` counter out of a `metrics` reply.
fn counter_of(reply: &Value, name: &str) -> u64 {
    reply
        .get_field("counters")
        .and_then(|c| c.get_field(name))
        .and_then(uint_of)
        .unwrap_or(0)
}

fn epoch_of(client: &mut Client) -> u64 {
    let reply = client.ping().expect("ping");
    reply.body.get_field("epoch").and_then(uint_of).unwrap_or(0)
}

/// Build the serving engine: a 5k-model synthetic index restored from a
/// binary snapshot, plus a small real zoo series in the repository for
/// the mutator storm to unregister/reindex.
fn build_engine(models: usize) -> (Sommelier, String) {
    let (semantic, resource) = synthetic(models, 12);
    let tag = std::process::id();
    let path: PathBuf = std::env::temp_dir().join(format!("sommelier-pr9-{tag}.index.somb"));
    persist::save_binary(&semantic, &resource, 1, &path).expect("binary save");

    let repo = Arc::new(InMemoryRepository::new());
    let mut rng = Prng::seed_from_u64(51);
    let series = build_series(
        "servenet",
        Family::Mobilenetish,
        TaskKind::ImageRecognition,
        "imagenet",
        3,
        51,
        0.08,
        &mut rng,
    );
    for m in &series.models {
        repo.publish(&m.name, m, true).expect("publish");
    }
    let victim = series.models[0].name.clone();
    let mut engine = Sommelier::connect_with_indices(
        Arc::clone(&repo) as Arc<dyn ModelRepository>,
        engine_config(),
        &path,
    )
    .expect("snapshot restores");
    engine.index_existing().expect("zoo indexes");
    std::fs::remove_file(&path).ok();
    (engine, victim)
}

struct SatOutcome {
    latencies: Vec<f64>,
    errors: u64,
    mixed: u64,
    epochs: BTreeSet<u64>,
}

/// One saturation worker: pipeline `frames` batch frames of
/// `batch_size` queries over its own connection, checking that every
/// reply pins exactly one epoch across its items.
fn saturation_worker(
    addr: SocketAddr,
    texts: Arc<Vec<String>>,
    barrier: Arc<Barrier>,
    frames: usize,
    batch_size: usize,
    offset: usize,
) -> SatOutcome {
    let mut client = Client::connect(addr).expect("connect");
    let mut out = SatOutcome {
        latencies: Vec::with_capacity(frames),
        errors: 0,
        mixed: 0,
        epochs: BTreeSet::new(),
    };
    barrier.wait();
    for f in 0..frames {
        let batch: Vec<String> = (0..batch_size)
            .map(|q| texts[(offset + f * batch_size + q) % texts.len()].clone())
            .collect();
        let started = Instant::now();
        match client.query_batch(&batch) {
            Err(_) => out.errors += 1,
            Ok(reply) if !reply.ok => out.errors += 1,
            Ok(reply) => {
                out.latencies.push(started.elapsed().as_secs_f64() * 1e3);
                let top = reply.body.get_field("epoch").and_then(uint_of);
                let Some(top) = top else {
                    out.errors += 1;
                    continue;
                };
                out.epochs.insert(top);
                let items = match reply.body.get_field("items") {
                    Some(Value::Seq(items)) if items.len() == batch_size => items,
                    _ => {
                        out.errors += 1;
                        continue;
                    }
                };
                let pinned = items
                    .iter()
                    .all(|i| i.get_field("epoch").and_then(uint_of) == Some(top));
                if !pinned {
                    out.mixed += 1;
                }
                if items.iter().any(|i| i.get_field("error").is_some()) {
                    out.errors += 1;
                }
            }
        }
    }
    out
}

/// Phases 1–2: baseline and saturation against one daemon while the
/// mutator storm republishes underneath.
#[allow(clippy::too_many_arguments)]
fn serving_phases(
    models: usize,
    n_single: usize,
    conns: usize,
    frames: usize,
    batch_size: usize,
    distinct: usize,
) -> (Run, Run, u64, usize, u64, u64, f64, f64) {
    let (engine, victim) = build_engine(models);
    let handle = Arc::new(
        Daemon::serve(
            engine,
            DaemonConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: conns,
                queue_depth: conns * 8,
                tenants: None,
            },
        )
        .expect("daemon starts"),
    );
    let addr = handle.addr();
    let texts = Arc::new(workload(models, distinct));

    // Mutator storm: unregister the zoo victim (one publish), then
    // reindex it from the repository (another publish) — two epoch
    // bumps per cycle, throttled so the storm shares the machine with
    // serving instead of monopolizing it.
    let stop = Arc::new(AtomicBool::new(false));
    let storm = {
        let handle = Arc::clone(&handle);
        let stop = Arc::clone(&stop);
        let victim = victim.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                handle
                    .with_engine(|e| e.apply(MutationBatch::new().unregister(victim.clone())))
                    .expect("unregister applies");
                handle
                    .with_engine(|e| e.index_existing())
                    .expect("reindex succeeds");
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        })
    };

    let mut probe = Client::connect(addr).expect("connect");
    let epoch_start = epoch_of(&mut probe);
    // Warm-up: prime the plan cache and the daemon's thread pool.
    for i in 0..distinct * 2 {
        probe.query(&texts[i % texts.len()]).expect("warmup query");
    }

    // Phase 1: one interactive connection, one query per round trip.
    let mut errors = 0u64;
    let mut single_lat = Vec::with_capacity(n_single);
    let started = Instant::now();
    for i in 0..n_single {
        let t0 = Instant::now();
        match probe.query(&texts[i % texts.len()]) {
            Ok(reply) if reply.ok => single_lat.push(t0.elapsed().as_secs_f64() * 1e3),
            _ => errors += 1,
        }
    }
    let single_elapsed = started.elapsed().as_secs_f64();
    let single = Run {
        connections: 1,
        frames: n_single,
        queries: n_single,
        elapsed_s: single_elapsed,
        queries_per_sec: n_single as f64 / single_elapsed,
        frame_p50_ms: pctl(&mut single_lat, 0.50),
        frame_p99_ms: pctl(&mut single_lat, 0.99),
    };

    // Phase 2: `conns` connections pipelining batch frames.
    let barrier = Arc::new(Barrier::new(conns + 1));
    let workers: Vec<_> = (0..conns)
        .map(|w| {
            let texts = Arc::clone(&texts);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                saturation_worker(addr, texts, barrier, frames, batch_size, w * 7)
            })
        })
        .collect();
    barrier.wait();
    let started = Instant::now();
    let outcomes: Vec<SatOutcome> = workers
        .into_iter()
        .map(|w| w.join().expect("worker joins"))
        .collect();
    let sat_elapsed = started.elapsed().as_secs_f64();

    let mut sat_lat: Vec<f64> = Vec::new();
    let mut mixed = 0u64;
    let mut epochs = BTreeSet::new();
    for o in &outcomes {
        sat_lat.extend_from_slice(&o.latencies);
        errors += o.errors;
        mixed += o.mixed;
        epochs.extend(o.epochs.iter().copied());
    }
    let sat_queries = conns * frames * batch_size;
    let saturated = Run {
        connections: conns,
        frames: conns * frames,
        queries: sat_queries,
        elapsed_s: sat_elapsed,
        queries_per_sec: sat_queries as f64 / sat_elapsed,
        frame_p50_ms: pctl(&mut sat_lat, 0.50),
        frame_p99_ms: pctl(&mut sat_lat, 0.99),
    };

    stop.store(true, Ordering::SeqCst);
    storm.join().expect("storm joins");
    let epoch_end = epoch_of(&mut probe);
    let metrics = probe.metrics().expect("metrics");
    let quantile = |q: &str| -> f64 {
        metrics
            .body
            .get_field("latency")
            .and_then(|l| l.get_field(sommelier_serving::daemon::REQUEST_HISTOGRAM))
            .and_then(|h| h.get_field(q))
            .and_then(float_of)
            .unwrap_or(0.0)
    };
    let (server_p50, server_p99) = (quantile("p50_ms"), quantile("p99_ms"));
    drop(probe);

    handle.shutdown();
    match Arc::try_unwrap(handle) {
        Ok(h) => h.wait(),
        Err(_) => panic!("daemon handle still shared after storm join"),
    }
    (
        single,
        saturated,
        epoch_end - epoch_start,
        epochs.len(),
        mixed,
        errors,
        server_p50,
        server_p99,
    )
}

/// Phase 3: over-admission against a deliberately tiny gate.
fn shed_phase(models: usize) -> ShedRun {
    let (workers, queue_depth, probes) = (1usize, 2usize, 6usize);
    let (engine, _) = build_engine(models);
    let handle = Daemon::serve(
        engine,
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            queue_depth,
            tenants: None,
        },
    )
    .expect("daemon starts");
    let addr = handle.addr();

    // The blocker occupies the single worker with a long batch of
    // distinct (uncacheable-by-repeat) queries, and sends it again until
    // one has executed and a probe has been shed (or 10 s pass): what the
    // batch costs to execute decides how often it is sent, not whether
    // probes find it.
    let blocker_texts: Vec<String> = (0..3000)
        .map(|i| {
            let reference = format!("hub/family-{:02}/model-{:05}", (i * 53) % 37, (i * 53) % models);
            format!("SELECT models 3 CORR {reference} WITHIN {:.4} ORDER BY similarity", 0.2 + (i % 500) as f64 * 0.001)
        })
        .collect();
    let done = Arc::new(AtomicBool::new(false));
    let shed_total = Arc::new(AtomicU64::new(0));
    let min_retry = Arc::new(AtomicU64::new(u64::MAX));
    let blocker = {
        let done = Arc::clone(&done);
        let shed_total = Arc::clone(&shed_total);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut executed = false;
            while (!executed || shed_total.load(Ordering::SeqCst) == 0)
                && Instant::now() < deadline
            {
                let reply = client.query_batch(&blocker_texts).expect("blocker batch");
                if reply.ok {
                    executed = true;
                } else {
                    // The probes filled the gate before this batch arrived.
                    assert_eq!(reply.error_code(), Some("overloaded"));
                }
            }
            done.store(true, Ordering::SeqCst);
            assert!(executed, "a blocker batch must execute");
        })
    };
    // ...while 6 probes burst single queries: with capacity
    // workers + queue_depth = 3, at least 3 of them must shed.
    let probe_threads: Vec<_> = (0..probes)
        .map(|_| {
            let done = Arc::clone(&done);
            let shed_total = Arc::clone(&shed_total);
            let min_retry = Arc::clone(&min_retry);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                while !done.load(Ordering::SeqCst) {
                    let reply = client
                        .query("SELECT models 3 CORR hub/family-00/model-00000 WITHIN 0.3 ORDER BY similarity")
                        .expect("probe frame");
                    if !reply.ok {
                        assert_eq!(
                            reply.error_code(),
                            Some("overloaded"),
                            "only typed load-shed errors are acceptable"
                        );
                        let retry = reply.retry_after_ms().expect("shed carries retry hint");
                        assert!(retry > 0, "retry_after_ms must be positive");
                        shed_total.fetch_add(1, Ordering::SeqCst);
                        min_retry.fetch_min(retry, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
            })
        })
        .collect();
    blocker.join().expect("blocker joins");
    for p in probe_threads {
        p.join().expect("probe joins");
    }

    let mut client = Client::connect(addr).expect("connect");
    let metrics = client.metrics().expect("metrics");
    let max_inflight = counter_of(&metrics.body, "serve.max_inflight");
    let shed = shed_total.load(Ordering::SeqCst);
    drop(client);
    handle.shutdown();
    handle.wait();

    let capacity = workers + queue_depth;
    ShedRun {
        probes,
        workers,
        queue_depth,
        capacity,
        shed,
        max_inflight,
        min_retry_after_ms: min_retry.load(Ordering::SeqCst),
        queue_bounded: shed >= 1 && max_inflight <= capacity as u64,
    }
}

fn main() {
    let mode = std::env::var("SOMMELIER_PR9_MODE").unwrap_or_else(|_| "quick".into());
    let (models, n_single, frames, batch_size) = if mode == "full" {
        (10_000, 6_000, 120, 32)
    } else {
        (5_000, 3_000, 60, 32)
    };
    let conns = 8;
    let distinct = 48;

    let (single, saturated, republishes, epochs_seen, mixed, errors, server_p50, server_p99) =
        serving_phases(models, n_single, conns, frames, batch_size, distinct);
    let ratio = saturated.queries_per_sec / single.queries_per_sec;
    let row = |r: &Run| {
        vec![
            r.connections.to_string(),
            r.frames.to_string(),
            r.queries.to_string(),
            fmt(r.queries_per_sec, 0),
            fmt(r.frame_p50_ms, 3),
            fmt(r.frame_p99_ms, 3),
        ]
    };
    print_table(
        "PR 9: daemon throughput, 1 connection vs saturation",
        &["conns", "frames", "queries", "q/s", "frame p50 ms", "frame p99 ms"],
        &[row(&single), row(&saturated)],
    );
    println!(
        "throughput ratio (gated >= 3): {}  republishes: {republishes}  epochs seen: {epochs_seen}",
        fmt(ratio, 2)
    );
    println!(
        "protocol errors (gated == 0): {errors}  mixed-epoch batches (gated == 0): {mixed}"
    );
    assert!(republishes > 0, "the mutator storm must republish");
    assert!(epochs_seen > 1, "batches must observe the epoch moving");

    let shed = shed_phase(models);
    print_table(
        "PR 9: over-admission against workers=1 queue_depth=2",
        &["probes", "capacity", "shed", "max inflight", "min retry ms"],
        &[vec![
            shed.probes.to_string(),
            shed.capacity.to_string(),
            shed.shed.to_string(),
            shed.max_inflight.to_string(),
            shed.min_retry_after_ms.to_string(),
        ]],
    );
    println!(
        "queue bounded (gated true): {} (shed >= 1, max_inflight <= {})",
        shed.queue_bounded, shed.capacity
    );

    write_json(
        "pr9_serve",
        &Bench {
            experiment: "pr9_serve",
            mode,
            models,
            batch_size,
            single,
            saturated,
            throughput_ratio: ratio,
            republishes,
            epochs_seen,
            mixed_epoch_batches: mixed,
            protocol_errors: errors,
            server_p50_ms: server_p50,
            server_p99_ms: server_p99,
            shed,
        },
    );
}
