//! The three `serve_*` workloads: one closed-loop client, one
//! outstanding `query` frame, against `sommelier_serving::Daemon` over
//! a synthetic index restored from `.somb`.
//!
//! * `serve_hot` cycles 64 texts through a 512-entry plan cache: every
//!   measured probe hits, so the wire and the per-request bookkeeping
//!   are the whole operation.
//! * `serve_uncached` cycles 1 024 texts — 128 queries in eight
//!   spellings each — in order through the same cache: an LRU of 32
//!   entries per shard never holds a text until it comes round again,
//!   so every probe misses and parse → plan → index is the whole
//!   operation.
//! * `serve_churn` replaces one small real model with its other version
//!   before every 640 queries, from the client thread, so each cycle
//!   pays one publish and 64 first-after-publish misses beside 576 hits.
//!
//! A run is a row of segments. Each brings a fresh system up from
//! stored state (one sample of `setup_s`), cold-opens its snapshot a few
//! times, runs rounds on it until its share of `--seconds` is spent, and
//! takes it down: every estimator's samples are spread over the whole
//! run, and every round — a fixed list of operations on a system in the
//! same state — is the same work.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Value;
use sommelier_fault::Storage;
use sommelier_graph::Model;
use sommelier_index::persist;
use sommelier_query::{MutationBatch, Sommelier, SommelierConfig, SommelierReader};
use sommelier_repo::{InMemoryRepository, ModelRepository};
use sommelier_runtime::metrics::counters;
use sommelier_serving::daemon::client::{Client, Reply};
use sommelier_serving::{Daemon, DaemonConfig, DaemonHandle};

use crate::alloc::{self, Allocated};
use crate::fixture::{
    churn_pair, query_mix, respelled, synthetic_index, synthetic_refs, Mix, QueryCase, CHURN_KEY,
};
use crate::layers::{finish_trace, persist_metrics, replay_queries, samples_retained};
use crate::metrics::Workload;
use crate::oracle::{self, Expected};
use crate::report::Report;
use crate::stats::{best_per_op, percentile, secs};
use crate::storage::MemoryStorage;
use crate::sys;
use crate::trace::Recorder;
use crate::RunArgs;

/// Candidates per synthetic key.
const CANDIDATES: usize = 16;
/// Plan-cache capacity the daemon's engine runs with (as `pr9_serve`).
const PLAN_CACHE: usize = 512;

struct Shape {
    keys: usize,
    /// Distinct queries; a pass asks each of them once, in order.
    queries: usize,
    /// Spellings every query is asked in, pass after pass in rotation.
    spellings: usize,
    mix: Mix,
    churn: bool,
    /// Passes in a cycle (on `serve_churn`, between two publishes) and
    /// cycles in a round.
    passes: usize,
    cycles: usize,
    /// Fresh systems a run brings up, one after the other.
    segments: usize,
    /// Cold opens timed on each of them.
    cold_opens: usize,
}

fn shape(workload: Workload, smoke: bool) -> Shape {
    // Rounds are a tenth to a quarter of a second: the host's
    // interference comes and goes within seconds, and the shorter a
    // round the likelier one of them is clean.
    let (keys, queries, spellings, mix, churn, passes, cycles, segments, cold_opens) =
        match workload {
            Workload::ServeHot => (20_000, 64, 1, Mix::Popular, false, 10, 4, 8, 5),
            // One pass over one spelling of the 128 queries: a round
            // differs from the next in the case of a keyword only.
            Workload::ServeUncached => (20_000, 128, 8, Mix::Varied, false, 1, 1, 8, 5),
            // 5 000, not 20 000: the first mutation after a snapshot
            // open re-materialises the sample memo in O(N²) — about a
            // second here; the issue's sizing runs put 20 000 keys at
            // 85 s. See README.md, "Baseline observations". Two cycles,
            // so that a round ends in the state it started in.
            Workload::ServeChurn => (5_000, 64, 1, Mix::Popular, true, 10, 2, 6, 7),
            Workload::Curate => unreachable!("curate is not a serve workload"),
        };
    Shape {
        keys: if smoke { 500 } else { keys },
        queries,
        spellings,
        mix,
        churn,
        passes,
        cycles,
        segments: if smoke { 2 } else { segments },
        cold_opens: if smoke { 2 } else { cold_opens },
    }
}

fn engine_config() -> SommelierConfig {
    let mut cfg = SommelierConfig {
        validation_rows: 64,
        // One client, one request in flight: one lane. The daemon's
        // connection thread is the second runnable thread.
        jobs: 1,
        query_cache_cap: PLAN_CACHE,
        ..SommelierConfig::default()
    };
    cfg.index.sample_size = 12;
    cfg.index.segments = false;
    cfg
}

/// CPU time and allocator traffic of the operations alone: both are
/// read around each publish and each pass, so that the verification
/// between them stays out of both.
#[derive(Default)]
struct Meter {
    cpu_s: f64,
    allocated: Allocated,
}

impl Meter {
    /// Run `f` on the meter; also return what it alone allocated.
    fn around<R>(&mut self, f: impl FnOnce() -> R) -> (R, Allocated) {
        let (cpu, allocated) = (sys::process_cpu_s(), alloc::process_total());
        let out = f();
        let traffic = alloc::process_total().since(allocated);
        self.cpu_s += sys::process_cpu_s() - cpu;
        self.allocated = self.allocated.plus(traffic);
        (out, traffic)
    }
}

/// One publish on `serve_churn`.
struct Flip {
    start: Instant,
    end: Instant,
    /// The engine applied exactly one removal and one addition under
    /// exactly one epoch bump.
    ok: bool,
    alloc_bytes: u64,
}

/// A system that is up: daemon, its one client, and the read side.
struct Ready {
    handle: DaemonHandle,
    client: Client,
    reader: SommelierReader,
    /// `serve_churn`: which of the pair is live, and the epoch that
    /// must therefore be serving.
    live: usize,
    epoch: u64,
    /// The answer each query must get at `epoch`.
    expected: Vec<Expected>,
    first_apply_ms: f64,
}

impl Ready {
    fn refresh_expected(&mut self, cases: &[QueryCase]) {
        let snap = self.reader.snapshot();
        self.expected = cases
            .iter()
            .map(|c| oracle::expected(&snap, &c.query).expect("generated references are indexed"))
            .collect();
    }

    /// Replace the churn model with its other version — one `apply`,
    /// from this (the client's) thread, and that call alone on the
    /// meter.
    fn flip(&mut self, pair: &[Model; 2], cases: &[QueryCase], meter: &mut Meter) -> Flip {
        let next = 1 - self.live;
        let batch = MutationBatch::new()
            .unregister(CHURN_KEY)
            .register(pair[next].clone());
        let ((start, applied, end), traffic) = meter.around(|| {
            let start = Instant::now();
            let applied = self.handle.with_engine(|e| e.apply(batch));
            (start, applied, Instant::now())
        });
        self.live = next;
        self.epoch += 1;
        let ok = matches!(applied, Ok(2)) && self.reader.epoch() == self.epoch;
        self.refresh_expected(cases);
        Flip {
            start,
            end,
            ok,
            alloc_bytes: traffic.bytes,
        }
    }

    fn stop(self) {
        drop(self.client);
        self.handle.shutdown();
        self.handle.wait();
    }
}

/// Counts of what was issued and what came back wrong.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    cycles: u64,
    /// `serve_churn`: cycles whose publish bumped the epoch exactly once.
    clean_flips: u64,
}

/// What a pass leaves behind for the caller to account.
#[derive(Default)]
struct Asked {
    latencies_us: Vec<f64>,
    busy_s: f64,
}

/// Ask every text once, in order, with the pass on the meter; the
/// replies are checked against the oracle once it is off again.
fn pass(
    sys: &mut Ready,
    texts: &[String],
    meter: &mut Meter,
    asked: &mut Asked,
    replies: &mut Vec<io::Result<Reply>>,
    mut recorder: Option<&mut Recorder>,
    tally: &mut Tally,
) {
    meter.around(|| {
        for text in texts {
            let start = Instant::now();
            let reply = sys.client.query(text);
            let end = Instant::now();
            let took = (end - start).as_secs_f64();
            asked.busy_s += took;
            asked.latencies_us.push(took * 1e6);
            replies.push(reply);
            tally.attempted += 1;
            if let Some(r) = recorder.as_deref_mut() {
                r.record("serve.query", None, tally.attempted, start, end);
            }
        }
    });
    for (reply, expected) in replies.drain(..).zip(&sys.expected) {
        let ok = reply.is_ok_and(|r| oracle::reply_matches(&r, sys.epoch, expected));
        tally.failed += u64::from(!ok);
    }
}

/// Bring a system up from stored state and warm it. Returns it with
/// the time spent inside the system's own calls, stage by stage (save,
/// open, first mutation, daemon and client, warm passes: together
/// `setup_s`) and inside the benchmark's own generation (`fixture_s`).
fn set_up(
    shape: &Shape,
    seed: u64,
    dir: &Path,
    cases: &[QueryCase],
    texts: &[Vec<String>],
    pair: &[Model; 2],
    tally: &mut Tally,
) -> Result<(Ready, Vec<f64>, f64), String> {
    let started = Instant::now();
    let (semantic, resource) = synthetic_index(seed, shape.keys, CANDIDATES);
    let fixture_s = secs(started);

    // The save goes to memory, as it would on a tmpfs (see storage.rs);
    // the engine opens snapshots from the real filesystem only, so the
    // bytes get a copy there, off the clock.
    let path = dir.join("index.somb");
    let storage = MemoryStorage::default();
    let started = Instant::now();
    persist::save_binary_with(&storage, &semantic, &resource, 1, &path)
        .map_err(|e| e.to_string())?;
    let save_s = secs(started);
    drop((semantic, resource));
    let saved = storage.read(&path).map_err(|e| e.to_string())?;
    std::fs::write(&path, saved).map_err(|e| e.to_string())?;
    drop(storage);

    let started = Instant::now();
    let repo: Arc<dyn ModelRepository> = Arc::new(InMemoryRepository::new());
    let mut engine =
        Sommelier::connect_with_indices(repo, engine_config(), &path).map_err(|e| e.to_string())?;
    let open_s = secs(started);
    let started = Instant::now();
    if shape.churn {
        let batch = MutationBatch::new().register(pair[0].clone());
        engine.apply(batch).map_err(|e| e.to_string())?;
    }
    let first_apply_s = secs(started);
    let started = Instant::now();
    let epoch = engine.epoch();
    let reader = engine.reader();
    let handle = Daemon::serve(
        engine,
        DaemonConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_depth: 4,
            tenants: None,
        },
    )?;
    let client = Client::connect(handle.addr()).map_err(|e| e.to_string())?;
    let serve_s = secs(started);

    let mut sys = Ready {
        handle,
        client,
        reader,
        live: 0,
        epoch,
        expected: Vec::new(),
        first_apply_ms: first_apply_s * 1e3,
    };
    sys.refresh_expected(cases);
    // The warm passes, so that code, allocator arenas and (on
    // `serve_churn`) the index's steady state are reached before
    // anything is measured: a publish of each version, and a pass over
    // the *last* spelling — so that where the texts outnumber the cache
    // the first round still finds none of its texts cached — twice
    // where the second is hits. Only the calls into the system are
    // timed.
    let (mut meter, mut asked, mut replies) = (Meter::default(), Asked::default(), Vec::new());
    let warm = texts.last().expect("at least one spelling");
    for second in [false, true] {
        if shape.churn {
            let flip = sys.flip(pair, cases, &mut meter);
            asked.busy_s += (flip.end - flip.start).as_secs_f64();
        }
        if second && shape.spellings > 1 {
            break;
        }
        pass(
            &mut sys,
            warm,
            &mut meter,
            &mut asked,
            &mut replies,
            None,
            tally,
        );
    }
    let stages = vec![save_s, open_s, first_apply_s, serve_s, asked.busy_s];
    Ok((sys, stages, fixture_s))
}

/// One round's numbers.
struct Round {
    op_p50_us: f64,
    op_p99_us: f64,
    ops_per_s: f64,
    cpu_us_per_op: f64,
    alloc_bytes_per_op: f64,
    alloc_count_per_op: f64,
    apply_p50_us: f64,
    apply_alloc_bytes: f64,
    miss_p95_us: f64,
    took: Duration,
}

/// Run one round — `shape.cycles` cycles, on `serve_churn` each behind
/// a publish — and return its numbers. `spelling` is the one the next
/// pass asks in. With a recorder, every operation also leaves a root
/// span.
#[allow(clippy::too_many_arguments)]
fn run_round(
    sys: &mut Ready,
    shape: &Shape,
    cases: &[QueryCase],
    texts: &[Vec<String>],
    spelling: &mut usize,
    pair: &[Model; 2],
    mut recorder: Option<&mut Recorder>,
    tally: &mut Tally,
) -> Round {
    let started = Instant::now();
    // Sized up front, so that the round's own bookkeeping stays out of
    // `alloc.*`.
    let queries = shape.cycles * shape.passes * shape.queries;
    let mut asked = Asked {
        latencies_us: Vec::with_capacity(queries),
        busy_s: 0.0,
    };
    let mut replies = Vec::with_capacity(shape.queries);
    let (mut applies, mut apply_allocs) = (Vec::new(), Vec::new());
    let mut misses = Vec::new();
    let mut meter = Meter::default();
    for _ in 0..shape.cycles {
        if shape.churn {
            let flip = sys.flip(pair, cases, &mut meter);
            tally.attempted += 1;
            tally.failed += u64::from(!flip.ok);
            tally.clean_flips += u64::from(flip.ok);
            let took = (flip.end - flip.start).as_secs_f64();
            asked.busy_s += took;
            applies.push(took * 1e6);
            apply_allocs.push(flip.alloc_bytes as f64);
            if let Some(r) = recorder.as_deref_mut() {
                r.record(
                    "query.engine.apply",
                    None,
                    tally.attempted,
                    flip.start,
                    flip.end,
                );
            }
        }
        for n in 0..shape.passes {
            let first = asked.latencies_us.len();
            pass(
                sys,
                &texts[*spelling],
                &mut meter,
                &mut asked,
                &mut replies,
                recorder.as_deref_mut(),
                tally,
            );
            *spelling = (*spelling + 1) % shape.spellings;
            if shape.churn && n == 0 {
                misses.extend_from_slice(&asked.latencies_us[first..]);
            }
        }
        tally.cycles += 1;
    }
    let ops = asked.latencies_us.len() as f64;
    let mut latencies = asked.latencies_us;
    Round {
        op_p50_us: percentile(&mut latencies, 0.5).expect("a round has queries"),
        op_p99_us: percentile(&mut latencies, 0.99).expect("a round has queries"),
        ops_per_s: ops / asked.busy_s,
        cpu_us_per_op: meter.cpu_s * 1e6 / ops,
        alloc_bytes_per_op: meter.allocated.bytes as f64 / ops,
        alloc_count_per_op: meter.allocated.count as f64 / ops,
        apply_p50_us: percentile(&mut applies, 0.5).unwrap_or(0.0),
        apply_alloc_bytes: percentile(&mut apply_allocs, 0.5).unwrap_or(0.0),
        miss_p95_us: percentile(&mut misses, 0.95).unwrap_or(0.0),
        took: started.elapsed(),
    }
}

/// One cold open of the workload's `.somb`: restore the engine and
/// answer a first query. Returns milliseconds.
fn cold_open(
    shape: &Shape,
    path: &Path,
    pair: &[Model; 2],
    case: &QueryCase,
    expected: &Expected,
    tally: &mut Tally,
) -> Result<f64, String> {
    let repo = Arc::new(InMemoryRepository::new());
    if shape.churn {
        repo.publish(CHURN_KEY, &pair[0], false)
            .map_err(|e| e.to_string())?;
    }
    let started = Instant::now();
    let engine =
        Sommelier::connect_with_indices(repo, engine_config(), path).map_err(|e| e.to_string())?;
    let answer = engine.query(&case.text);
    let took = secs(started) * 1e3;
    tally.attempted += 1;
    let ok = answer.is_ok_and(|r| oracle::results_match(&r, expected));
    tally.failed += u64::from(!ok);
    Ok(took)
}

/// One sample of what the wire and the daemon's per-request work add to
/// a query: the median client round trip and the median in-process
/// `query_batch`-of-one over the first 64 queries, all of them
/// plan-cache hits (an untimed pass caches them first, whatever the
/// workload left in the cache). Returns `(round trip, in process)` in
/// microseconds.
fn wire_sample(sys: &mut Ready, cases: &[QueryCase], tally: &mut Tally) -> (f64, f64) {
    let hot: Vec<String> = cases[..64].iter().map(|c| c.text.clone()).collect();
    let (mut meter, mut replies) = (Meter::default(), Vec::new());
    let mut round_trips = Asked::default();
    pass(
        sys,
        &hot,
        &mut meter,
        &mut Asked::default(),
        &mut replies,
        None,
        tally,
    );
    pass(
        sys,
        &hot,
        &mut meter,
        &mut round_trips,
        &mut replies,
        None,
        tally,
    );
    let mut in_process = Vec::new();
    for text in &hot {
        let text = std::slice::from_ref(text);
        let start = Instant::now();
        std::hint::black_box(sys.reader.query_batch(text));
        in_process.push(secs(start) * 1e6);
    }
    (
        percentile(&mut round_trips.latencies_us, 0.5).expect("a pass ran"),
        percentile(&mut in_process, 0.5).expect("a pass ran"),
    )
}

/// Counter deltas over the rounds alone: the plan cache's (per engine)
/// and the process-wide ones, which the cold opens and wire samples
/// between the rounds move too.
#[derive(Default)]
struct Counts {
    hits: u64,
    misses: u64,
    scored: u64,
    requests: u64,
}

impl Counts {
    fn now(sys: &Ready) -> Counts {
        let cache = sys.handle.with_engine(|e| e.plan_cache_stats());
        Counts {
            hits: cache.hits,
            misses: cache.misses,
            scored: counters::get("query.candidates_scored"),
            requests: counters::get("serve.requests"),
        }
    }

    fn add_since(&mut self, sys: &Ready, before: &Counts) {
        let now = Counts::now(sys);
        self.hits += now.hits - before.hits;
        self.misses += now.misses - before.misses;
        self.scored += now.scored - before.scored;
        self.requests += now.requests - before.requests;
    }
}

fn column(rounds: &[Round], f: impl Fn(&Round) -> f64) -> Vec<f64> {
    rounds.iter().map(f).collect()
}

pub fn run(workload: Workload, args: &RunArgs, report: &mut Report) -> Result<(), String> {
    let shape = shape(workload, args.smoke);
    let dir = args.out_dir.join(workload.name());
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;

    let started = Instant::now();
    let cases = query_mix(
        args.seed,
        &synthetic_refs(args.seed, shape.keys),
        20..56,
        shape.queries,
        shape.mix,
    );
    // One spelling is the text as generated; several are respellings,
    // none of them the text as generated, which the cold opens, the wire
    // samples and the replay ask.
    let texts: Vec<Vec<String>> = (0..shape.spellings)
        .map(|s| {
            cases
                .iter()
                .map(|c| match shape.spellings {
                    1 => c.text.clone(),
                    _ => respelled(&c.text, "CORR", s),
                })
                .collect()
        })
        .collect();
    let pair = churn_pair(args.seed);
    let mut fixture_s = secs(started);

    let path = dir.join("index.somb");
    let mut tally = Tally::default();
    let mut counts = Counts::default();
    let (mut setups, mut first_applies, mut cold) = (Vec::new(), Vec::new(), Vec::new());
    let (mut untraced, mut traced, mut wire) = (Vec::new(), Vec::new(), Vec::new());
    let mut recorder = args.trace.then(|| Recorder::with_capacity(1 << 20));
    let mut last = None;
    let run_started = Instant::now();
    for segment in 0..shape.segments {
        let deadline = run_started
            + Duration::from_secs_f64(args.seconds * (segment + 1) as f64 / shape.segments as f64);
        let (mut sys, stages, generated_s) =
            set_up(&shape, args.seed, &dir, &cases, &texts, &pair, &mut tally)?;
        setups.push(stages);
        first_applies.push(sys.first_apply_ms);
        fixture_s += generated_s;

        // The snapshot cold opens restore: the set-up's own on the
        // read-only workloads; on `serve_churn` the warmed-up state with
        // version A live, which is also the state every round ends in.
        if shape.churn {
            sys.handle
                .with_engine(|e| e.save_indices(&path))
                .map_err(|e| e.to_string())?;
        }
        if segment == 0 {
            let live_models = sys.reader.snapshot().semantic.len();
            report.set(
                "disk_bytes_per_model",
                sys::dir_bytes(&dir).map_err(|e| e.to_string())? as f64 / live_models as f64,
            );
        }
        for _ in 0..shape.cold_opens {
            cold.push(cold_open(
                &shape,
                &path,
                &pair,
                &cases[0],
                &sys.expected[0],
                &mut tally,
            )?);
        }

        // Rounds until the segment's share of the run is spent, at
        // least one — in a traced run every other one with a span per
        // operation, and a wire sample after it, so that both kinds see
        // the same weather.
        let mut spelling = 0;
        loop {
            let with_spans = args.trace && untraced.len() > traced.len();
            let before = Counts::now(&sys);
            let round = run_round(
                &mut sys,
                &shape,
                &cases,
                &texts,
                &mut spelling,
                &pair,
                recorder.as_mut().filter(|_| with_spans),
                &mut tally,
            );
            counts.add_since(&sys, &before);
            let took = round.took;
            if with_spans {
                traced.push(round);
                wire.push(wire_sample(&mut sys, &cases, &mut tally));
            } else {
                untraced.push(round);
            }
            let owed = args.trace && untraced.len() > traced.len();
            if !owed && Instant::now() + took / 2 >= deadline {
                break;
            }
        }
        if segment == 0 {
            // One system's whole life — set-up, cold opens, rounds — and
            // not what several of them in a row leave in the allocator.
            report.set("peak_rss_mb", sys::peak_rss_mb());
        }
        if segment + 1 < shape.segments {
            sys.stop();
        } else {
            last = Some(sys);
        }
    }
    let mut sys = last.expect("at least one segment");

    // A set-up is half a second or more in one piece, seldom all of it
    // in a quiet moment: each stage's best repetition is kept.
    report.set_beside_rounds(
        "setup_s",
        best_per_op(&setups).iter().sum(),
        &setups.iter().map(|s| s.iter().sum()).collect::<Vec<f64>>(),
    );
    report.set_best_of("query.engine.cold_open_ms", &cold);
    report.set_best_of("op_p50_us", &column(&untraced, |r| r.op_p50_us));
    report.set_best_of("ops_per_s", &column(&untraced, |r| r.ops_per_s));
    report.set_best_of("cpu_us_per_op", &column(&untraced, |r| r.cpu_us_per_op));
    report.set_best_of(
        "alloc.bytes_per_op",
        &column(&untraced, |r| r.alloc_bytes_per_op),
    );
    report.set_best_of(
        "alloc.count_per_op",
        &column(&untraced, |r| r.alloc_count_per_op),
    );
    report.set_best_of(
        "serving.client.rtt_p99_us",
        &column(&untraced, |r| r.op_p99_us),
    );
    let probes = (counts.hits + counts.misses).max(1) as f64;
    report.set("query.plancache.hit_rate", counts.hits as f64 / probes);
    report.set(
        "query.candidates_scored_per_query",
        counts.scored as f64 / probes,
    );
    report.set("serving.requests", counts.requests as f64);
    if shape.churn {
        report.set_best_of(
            "query.engine.apply_us",
            &column(&untraced, |r| r.apply_p50_us),
        );
        report.set_best_of(
            "query.engine.apply.alloc_bytes",
            &column(&untraced, |r| r.apply_alloc_bytes),
        );
        report.set_best_of(
            "query.reader.miss_p95_us",
            &column(&untraced, |r| r.miss_p95_us),
        );
        report.set_best_of("query.engine.first_apply_ms", &first_applies);
        report.check(
            "one epoch bump per cycle, one removal and one addition per publish",
            tally.clean_flips == tally.cycles,
        );
    }
    report.set("zoo.fixture_s", fixture_s);

    let shed = sys.client.metrics().ok().and_then(|r| {
        match r.body.get_field("counters")?.get_field("serve.shed")? {
            Value::UInt(n) => Some(*n),
            _ => None,
        }
    });
    report.check("the daemon reports its shed count", shed.is_some());
    report.set("serving.shed", shed.unwrap_or(0) as f64);
    report.check("nothing was shed", shed == Some(0));
    report.set("runtime.latency.samples_retained", samples_retained());

    if let Some(mut rec) = recorder {
        let best = |f: fn(&(f64, f64)) -> f64| wire.iter().map(f).fold(f64::INFINITY, f64::min);
        report.set("serving.wire_overhead_us", best(|w| w.0) - best(|w| w.1));
        let best_p50 = |rounds: &[Round]| {
            column(rounds, |r| r.op_p50_us)
                .into_iter()
                .fold(f64::INFINITY, f64::min)
        };
        report.set(
            "trace.overhead_ratio",
            best_p50(&traced) / best_p50(&untraced),
        );
        persist_metrics(&sys.reader, &dir, report)?;
        let samples = if args.smoke { 32 } else { 256 };
        replay_queries(&sys.reader, true, &cases, samples, &mut rec, report);
        finish_trace(&rec, args, report)?;
    }
    sys.stop();
    report.attempted += tally.attempted;
    report.failed += tally.failed;
    Ok(())
}
