//! The `curate` workload: the ingest path on a real zoo.
//!
//! A round starts from an empty on-disk repository and a fresh engine,
//! registers the zoo one `Sommelier::apply` at a time (the primary
//! operation), and after every half of it runs a checkpoint —
//! `dedup_store` plus an index save (the secondary operation, whose
//! time counts in `ops_per_s`). Every round is the same work on the same
//! state, so a round's stalls are the program's and only the host's
//! interference differs between rounds.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sommelier_fault::Storage;
use sommelier_graph::Model;
use sommelier_index::persist::{self, SnapshotStats};
use sommelier_index::{somb, PairAnalyzer};
use sommelier_query::engine::EquivAnalyzer;
use sommelier_query::{MutationBatch, Sommelier, SommelierConfig};
use sommelier_repo::{dedup_store, ModelRepository, OnDiskRepository};
use sommelier_runtime::metrics::counters;
use sommelier_runtime::ResourceProfile;

use crate::alloc;
use crate::fixture::{curate_zoo, query_mix, Mix, QueryCase, Reference};
use crate::layers::{finish_trace, persist_metrics, replay_queries, samples_retained};
use crate::oracle;
use crate::report::Report;
use crate::stats::{best_per_op, percentile, secs};
use crate::storage::{IoCounts, MemoryStorage};
use crate::sys;
use crate::trace::Recorder;
use crate::RunArgs;

/// Bases of the zoo, and dense and sparse fine-tunes of each.
const ZOO: (usize, usize, usize) = (6, 1, 1);
/// Partners the index samples for a new model. More than the zoo has
/// models (the issue said 8), so that every register is analysed
/// against all that came before it: past its sample size the engine
/// picks partners by fingerprint, and the same register then cost 36 ms
/// on one seed and 74 ms on the next.
const SAMPLE_SIZE: usize = 64;
/// Rounds a full run never goes below.
const MIN_ROUNDS: usize = 10;
/// Cold opens timed after every round; the best of all is reported.
/// After every round, so that they see as much of the run's weather as
/// the rounds do.
const COLD_OPENS_PER_ROUND: usize = 4;
/// Set-ups timed after every round, each stage's best of all reported.
/// Thirty or so in a run, where the serve workloads afford six or
/// eight: this one takes a few hundredths of a second.
const SETUPS_PER_ROUND: usize = 2;
/// Texts of the fixed query set the live and the reopened engine must
/// answer alike.
const QUERY_SET: usize = 64;

fn engine_config() -> SommelierConfig {
    let mut cfg = SommelierConfig {
        validation_rows: 64,
        // One lane, on the one CPU the process is pinned to: with two,
        // a round's peak memory was 61 MB or 72 MB as the lanes' parse
        // buffers happened to overlap; with one it repeats within 1 %.
        jobs: 1,
        query_cache_cap: 512,
        ..SommelierConfig::default()
    };
    cfg.index.sample_size = SAMPLE_SIZE;
    cfg.index.segments = false;
    cfg
}

fn param_bytes(zoo: &[Model]) -> f64 {
    zoo.iter().map(|m| m.param_count() * 4).sum::<usize>() as f64
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// An empty repository rooted at `dir`, its files in a storage of its
/// own. (`dir` itself is real: the repository makes sure of its
/// directories on the filesystem whatever its storage.)
fn open_repo(dir: &Path) -> Result<(Arc<OnDiskRepository>, Arc<MemoryStorage>), String> {
    let storage = Arc::new(MemoryStorage::default());
    let repo = OnDiskRepository::open_with(dir, storage.clone()).map_err(|e| e.to_string())?;
    Ok((Arc::new(repo), storage))
}

/// The indices as bytes with the epoch left out of the header, so a
/// state reached by 18 publishes and one reached by a single bulk build
/// can be compared byte for byte.
fn state_bytes(engine: &Sommelier) -> Vec<u8> {
    let (semantic, resource) = (engine.semantic_index(), engine.resource_index());
    somb::encode(
        semantic,
        resource,
        Some(&SnapshotStats::of(semantic, resource, 0)),
    )
}

/// One whole ingest and what it cost.
struct Ingest {
    engine: Sommelier,
    repo: Arc<OnDiskRepository>,
    register_us: Vec<f64>,
    register_alloc: Vec<f64>,
    /// Pair analyses each register ran (counter deltas).
    register_pairs: Vec<u64>,
    dedup_ms: Vec<f64>,
    /// Seconds and CPU seconds of every operation, registers and
    /// checkpoints, in the order they ran.
    op_s: Vec<f64>,
    op_cpu_s: Vec<f64>,
    allocated: alloc::Allocated,
    /// Device traffic of the registers alone, and of every operation
    /// (registers and checkpoints).
    register_io: IoCounts,
    total_io: IoCounts,
    /// The saved `.somb`, for the all-rounds-identical check, and the
    /// bytes the store holds at the end.
    snapshot: Vec<u8>,
    stored_bytes: u64,
    failed: u64,
    /// Checks that ran inside this ingest: `(what, held)`.
    checks: Vec<(&'static str, bool)>,
    rebuild_ms: Option<f64>,
}

/// What a round contributes to the report once its engine is gone.
struct RoundNumbers {
    register_us: Vec<f64>,
    register_alloc_p50: f64,
    dedup_p50_ms: f64,
    op_s: Vec<f64>,
    op_cpu_s: Vec<f64>,
    allocated: alloc::Allocated,
    failed: u64,
}

impl Ingest {
    fn numbers(&self) -> RoundNumbers {
        RoundNumbers {
            register_us: self.register_us.clone(),
            register_alloc_p50: p50(&self.register_alloc),
            dedup_p50_ms: p50(&self.dedup_ms),
            op_s: self.op_s.clone(),
            op_cpu_s: self.op_cpu_s.clone(),
            allocated: self.allocated,
            failed: self.failed,
        }
    }
}

/// The three timing metrics of a measured phase. A round here is well
/// over a second long and seldom clean, but every round runs the same
/// operations in the same order: each operation's best round is kept.
struct Headline {
    op_p50_us: f64,
    ops_per_s: f64,
    cpu_us_per_op: f64,
    /// Every register's best round, in zoo order.
    register_us: Vec<f64>,
}

impl Headline {
    fn of(rounds: &[RoundNumbers]) -> Headline {
        let per_round = |f: &dyn Fn(&RoundNumbers) -> Vec<f64>| -> Vec<Vec<f64>> {
            rounds.iter().map(f).collect()
        };
        let registers = best_per_op(&per_round(&|r| r.register_us.clone()));
        let busy: f64 = best_per_op(&per_round(&|r| r.op_s.clone())).iter().sum();
        let cpu: f64 = best_per_op(&per_round(&|r| r.op_cpu_s.clone()))
            .iter()
            .sum();
        Headline {
            op_p50_us: p50(&registers),
            ops_per_s: registers.len() as f64 / busy,
            cpu_us_per_op: cpu * 1e6 / registers.len() as f64,
            register_us: registers,
        }
    }
}

/// Register `zoo` into an empty repository under `dir`, checkpointing
/// after every `checkpoint_every` models. With `verify`, the first
/// checkpoint is followed by the incremental-equals-rebuild check and
/// the last by the load-back check (both untimed).
fn ingest(
    dir: &Path,
    zoo: &[Model],
    checkpoint_every: usize,
    verify: bool,
    mut recorder: Option<&mut Recorder>,
) -> Result<Ingest, String> {
    let (repo, storage) = open_repo(dir)?;
    let index_path = dir.join("index.somb");
    let mut engine = Sommelier::connect(repo.clone() as Arc<dyn ModelRepository>, engine_config());
    let (mut register_us, mut register_alloc, mut register_pairs) =
        (Vec::new(), Vec::new(), Vec::new());
    let (mut dedup_ms, mut checks, mut rebuild_ms) = (Vec::new(), Vec::new(), None);
    let (mut op_s, mut op_cpu_s, mut failed) = (Vec::new(), Vec::new(), 0);
    let (mut register_io, mut total_io) = (IoCounts::default(), IoCounts::default());
    // CPU and allocator traffic are taken around the operations alone,
    // so the untimed checks between them stay out of both.
    let mut allocated = alloc::Allocated::default();
    for (i, model) in zoo.iter().enumerate() {
        let batch = MutationBatch::new().register(model.clone());
        let (io_before, pairs_before) = (storage.counts(), counters::get("index.pair_analyses"));
        let (cpu_before, alloc_before) = (sys::process_cpu_s(), alloc::process_total());
        let start = Instant::now();
        let applied = engine.apply(batch);
        let end = Instant::now();
        let took = (end - start).as_secs_f64();
        op_s.push(took);
        register_us.push(took * 1e6);
        let traffic = alloc::process_total().since(alloc_before);
        op_cpu_s.push(sys::process_cpu_s() - cpu_before);
        allocated = allocated.plus(traffic);
        register_alloc.push(traffic.bytes as f64);
        register_pairs.push(counters::get("index.pair_analyses") - pairs_before);
        let io = storage.counts().since(io_before);
        (register_io, total_io) = (register_io.plus(io), total_io.plus(io));
        let ok =
            matches!(applied, Ok(1)) && engine.len() == i + 1 && engine.epoch() == i as u64 + 1;
        failed += u64::from(!ok);
        if let Some(r) = recorder.as_deref_mut() {
            r.record("query.engine.apply", None, i as u64, start, end);
        }

        if (i + 1) % checkpoint_every == 0 || i + 1 == zoo.len() {
            let (cpu_before, alloc_before) = (sys::process_cpu_s(), alloc::process_total());
            let io_before = storage.counts();
            let start = Instant::now();
            let deduped = dedup_store(&repo);
            let mid = Instant::now();
            let saved = persist::save_binary_with(
                &*storage,
                engine.semantic_index(),
                engine.resource_index(),
                engine.epoch(),
                &index_path,
            );
            let end = Instant::now();
            op_cpu_s.push(sys::process_cpu_s() - cpu_before);
            allocated = allocated.plus(alloc::process_total().since(alloc_before));
            total_io = total_io.plus(storage.counts().since(io_before));
            op_s.push((end - start).as_secs_f64());
            dedup_ms.push((mid - start).as_secs_f64() * 1e3);
            failed += u64::from(deduped.is_err() || saved.is_err());
            if let Some(r) = recorder.as_deref_mut() {
                let root = r.record("checkpoint", None, i as u64, start, end);
                r.record("repo.dedup_store", Some(root), i as u64, start, mid);
                r.record("index.persist.save_somb", Some(root), i as u64, mid, end);
            }
            if verify && rebuild_ms.is_none() {
                // Incremental ≡ rebuild: a fresh engine bulk-indexing the
                // same store must arrive at the same bytes.
                let mut fresh =
                    Sommelier::connect(repo.clone() as Arc<dyn ModelRepository>, engine_config());
                let started = Instant::now();
                let indexed = fresh.index_existing();
                rebuild_ms = Some(secs(started) * 1e3);
                checks.push((
                    "incremental state equals a fresh index_existing over the same store, byte for byte",
                    matches!(indexed, Ok(n) if n == i + 1) && state_bytes(&fresh) == state_bytes(&engine),
                ));
            }
        }
    }
    if verify {
        checks.push((
            "every model loads back from the deduped store equal to the original",
            zoo.iter()
                .all(|m| repo.load(&m.name).is_ok_and(|loaded| &loaded == m)),
        ));
    }
    // Cold opens go through `Sommelier::connect_with_indices`, which
    // reads the real filesystem: the snapshot gets a copy there.
    let snapshot = storage.read(&index_path).map_err(|e| e.to_string())?;
    std::fs::write(&index_path, &snapshot).map_err(|e| e.to_string())?;
    Ok(Ingest {
        engine,
        repo,
        register_us,
        register_alloc,
        register_pairs,
        dedup_ms,
        op_s,
        op_cpu_s,
        allocated,
        register_io,
        total_io,
        snapshot,
        stored_bytes: storage.bytes_under(dir),
        failed,
        checks,
        rebuild_ms,
    })
}

/// Set-up as a curator's first day: open a repository, publish the
/// bases chunked, bulk-index them (the build path no round exercises),
/// and the engine is ready. Returns the time inside those calls, in two
/// stages: the store's and the index's.
fn set_up(dir: &Path, bases: &[Model]) -> Result<Vec<f64>, String> {
    let started = Instant::now();
    let (repo, _) = open_repo(dir)?;
    for base in bases {
        repo.publish_chunked(&base.name, base, false)
            .map_err(|e| e.to_string())?;
    }
    let publish_s = secs(started);
    let started = Instant::now();
    let mut engine = Sommelier::connect(repo as Arc<dyn ModelRepository>, engine_config());
    let indexed = engine.index_existing().map_err(|e| e.to_string())?;
    let index_s = secs(started);
    if indexed != bases.len() {
        return Err(format!("set-up indexed {indexed} of {} bases", bases.len()));
    }
    Ok(vec![publish_s, index_s])
}

/// Cold-open the store's `.somb` `COLD_OPENS_PER_ROUND` times: restore
/// the engine and answer a first query, checked against the oracle on
/// the live engine's snapshot. Appends milliseconds to `cold`; returns
/// the last engine opened and how many answers were wrong.
fn cold_opens(
    live: &Ingest,
    store: &Path,
    case: &QueryCase,
    cold: &mut Vec<f64>,
) -> Result<(Sommelier, u64), String> {
    let snap = live.engine.reader().snapshot();
    let want = oracle::expected(&snap, &case.query).expect("zoo references are indexed");
    let (mut opened, mut wrong) = (None, 0);
    for _ in 0..COLD_OPENS_PER_ROUND {
        let started = Instant::now();
        let engine = Sommelier::connect_with_indices(
            live.repo.clone() as Arc<dyn ModelRepository>,
            engine_config(),
            &store.join("index.somb"),
        )
        .map_err(|e| e.to_string())?;
        let answer = engine.query(&case.text);
        cold.push(secs(started) * 1e3);
        wrong += u64::from(!answer.is_ok_and(|r| oracle::results_match(&r, &want)));
        opened = Some(engine);
    }
    Ok((opened.expect("at least one cold open"), wrong))
}

fn p50(v: &[f64]) -> f64 {
    percentile(&mut v.to_vec(), 0.5).unwrap_or(0.0)
}

/// The store and analysis layers, each timed alone on the zoo itself,
/// and what they leave unexplained of `register_us`, the registers'
/// times.
fn layer_metrics(
    dir: &Path,
    zoo: &[Model],
    bases: usize,
    register_us: &[f64],
    report: &mut Report,
) -> Result<(), String> {
    let cfg = engine_config();
    let (repo, storage) = open_repo(dir)?;
    let time_each = |f: &mut dyn FnMut(&Model) -> bool| -> Result<Vec<f64>, String> {
        zoo.iter()
            .map(|m| {
                let started = Instant::now();
                let ok = f(m);
                let took = secs(started) * 1e6;
                ok.then_some(took)
                    .ok_or(format!("a store operation on '{}' failed", m.name))
            })
            .collect()
    };
    let publish_us = time_each(&mut |m| repo.publish(&m.name, m, false).is_ok())?;
    let load_flat_us = time_each(&mut |m| std::hint::black_box(repo.load(&m.name)).is_ok())?;
    let flat_bytes = storage.bytes_under(dir) as f64;
    dedup_store(&repo).map_err(|e| e.to_string())?;
    let load_chunked_us = time_each(&mut |m| std::hint::black_box(repo.load(&m.name)).is_ok())?;
    let chunked_bytes = storage.bytes_under(dir) as f64;
    let profile_us = time_each(&mut |m| {
        std::hint::black_box(ResourceProfile::under(m, &cfg.exec_setting));
        true
    })?;
    report.set("repo.publish_flat_us", p50(&publish_us));
    report.set("repo.load_flat_us", p50(&load_flat_us));
    report.set("repo.load_chunked_us", p50(&load_chunked_us));
    report.set(
        "repo.bytes_flat_per_param_byte",
        flat_bytes / param_bytes(zoo),
    );
    report.set(
        "repo.bytes_chunked_per_param_byte",
        chunked_bytes / param_bytes(zoo),
    );
    report.set("runtime.profile_us", p50(&profile_us));

    // One pair analysis is both directed whole-model diffs, as `apply`
    // measures an edge. Every register is analysed against every model
    // before it, so every pair is timed, once: family pairs (a model
    // and an earlier one of its base) run the full assessment, pairs
    // across bases mostly fail the I/O check at once.
    let analyzer = EquivAnalyzer::new(
        cfg.equiv,
        cfg.segment_epsilon,
        cfg.validation_rows,
        cfg.seed,
    );
    let pair_us: Vec<Vec<f64>> = (0..zoo.len())
        .map(|i| {
            (0..i)
                .map(|j| {
                    let started = Instant::now();
                    std::hint::black_box((
                        analyzer.whole_diff(&zoo[j], &zoo[i]),
                        analyzer.whole_diff(&zoo[i], &zoo[j]),
                    ));
                    secs(started) * 1e6
                })
                .collect()
        })
        .collect();
    let family: Vec<f64> = (0..zoo.len())
        .flat_map(|i| (i % bases..i).step_by(bases).map(move |j| (i, j)))
        .map(|(i, j)| pair_us[i][j])
        .collect();
    report.set("equiv.pair_analysis_us", p50(&family));

    // What the public calls leave of a register: index maintenance and
    // snapshot publish. From a register's time go its publish, its
    // profile, and for every model before it that model's load (from
    // chunks if a checkpoint has passed over it) and the pair's analysis.
    let checkpoint_every = zoo.len().div_ceil(2);
    let residual: Vec<f64> = register_us
        .iter()
        .enumerate()
        .map(|(i, apply_us)| {
            let chunked = i / checkpoint_every * checkpoint_every;
            let partners: f64 = (0..i)
                .map(|j| {
                    let load = if j < chunked {
                        load_chunked_us[j]
                    } else {
                        load_flat_us[j]
                    };
                    load + pair_us[i][j]
                })
                .sum();
            apply_us - publish_us[i] - profile_us[i] - partners
        })
        .collect();
    report.set("query.engine.apply_residual_us", p50(&residual));
    Ok(())
}

/// What the first round alone reports: its checks, and the counts that
/// repeat exactly in every round.
fn report_first_round(first: &Ingest, zoo: &[Model], report: &mut Report) {
    let registers = zoo.len() as f64;
    report.set(
        "query.engine.rebuild_ms",
        first.rebuild_ms.expect("round 0 verifies"),
    );
    let io = first.register_io;
    report.set(
        "fault.storage.writes_per_register",
        io.writes as f64 / registers,
    );
    report.set(
        "fault.storage.reads_per_register",
        io.reads as f64 / registers,
    );
    report.set(
        "fault.storage.fsyncs_per_register",
        io.fsyncs as f64 / registers,
    );
    report.set(
        "fault.storage.bytes_written_per_param_byte",
        first.total_io.bytes_written as f64 / param_bytes(zoo),
    );
    report.set(
        "index.pair_analyses_per_register",
        first.register_pairs.iter().sum::<u64>() as f64 / registers,
    );
    let cache = first.engine.cache_stats();
    report.set(
        "equiv.paircache.hit_rate",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    for (what, ok) in &first.checks {
        report.check(*what, *ok);
    }
}

pub fn run(args: &RunArgs, report: &mut Report) -> Result<(), String> {
    let dir = args.out_dir.join("curate");
    fresh_dir(&dir)?;
    let (bases, dense, sparse) = if args.smoke { (2, 1, 1) } else { ZOO };

    let started = Instant::now();
    let zoo = curate_zoo(args.seed, bases, dense, sparse);
    let exec = SommelierConfig::default().exec_setting;
    let refs: Vec<Reference> = zoo
        .iter()
        .map(|m| (m.name.clone(), ResourceProfile::under(m, &exec)))
        .collect();
    let cases: Vec<QueryCase> = query_mix(args.seed, &refs, 0..36, QUERY_SET, Mix::Varied);
    report.set("zoo.fixture_s", secs(started));
    let checkpoint_every = zoo.len().div_ceil(2);

    // The measured phase: whole ingests until `--seconds` are spent, and
    // never fewer than ten (a round cannot be cut short); after each, a
    // few cold opens of what it saved and a few set-ups. In a traced run
    // every other ingest leaves spans. Only the latest round's engine
    // and store are kept alive.
    let min_rounds = if args.smoke { 2 } else { MIN_ROUNDS };
    let store = dir.join("store");
    // The set-up's directories exist before its clock first starts.
    open_repo(&dir.join("setup"))?;
    let registers = zoo.len() as f64;
    let mut recorder = args.trace.then(|| Recorder::with_capacity(1 << 16));
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut cold, mut setups, mut wrong) = (Vec::new(), Vec::new(), 0);
    let (mut snapshots_alike, mut traffic_alike) = (true, true);
    let mut first: Option<(Vec<u8>, IoCounts)> = None;
    let mut latest: Option<(Ingest, Sommelier)> = None;
    let run_started = Instant::now();
    loop {
        // The previous round's engines go before the next round starts,
        // so that a round's memory is its own.
        drop(latest.take());
        let round_started = Instant::now();
        let with_spans = args.trace && untraced.len() > traced.len();
        let round = ingest(
            &store,
            &zoo,
            checkpoint_every,
            first.is_none(),
            recorder.as_mut().filter(|_| with_spans),
        )?;
        match &first {
            None => {
                report_first_round(&round, &zoo, report);
                first = Some((round.snapshot.clone(), round.total_io));
            }
            Some((snapshot, io)) => {
                snapshots_alike &= &round.snapshot == snapshot;
                traffic_alike &= &round.total_io == io;
            }
        }
        if with_spans {
            traced.push(round.numbers());
        } else {
            untraced.push(round.numbers());
        }
        let (reopened, more_wrong) = cold_opens(&round, &store, &cases[0], &mut cold)?;
        wrong += more_wrong;
        for _ in 0..SETUPS_PER_ROUND {
            setups.push(set_up(&dir.join("setup"), &zoo[..bases])?);
        }
        latest = Some((round, reopened));
        let owed = untraced.len() < min_rounds || untraced.len() > traced.len() && args.trace;
        let budget = Duration::from_secs_f64(args.seconds);
        if !owed && run_started.elapsed() + round_started.elapsed() / 2 >= budget {
            break;
        }
    }
    let (last, reopened) = latest.expect("at least one round");
    report.set_beside_rounds(
        "setup_s",
        best_per_op(&setups).iter().sum(),
        &setups.iter().map(|s| s.iter().sum()).collect::<Vec<f64>>(),
    );
    report.attempted += cold.len() as u64;
    report.failed += wrong;
    report.set("disk_bytes_per_model", last.stored_bytes as f64 / registers);
    report.set("peak_rss_mb", sys::peak_rss_mb());
    let col = |f: &dyn Fn(&RoundNumbers) -> f64| -> Vec<f64> { untraced.iter().map(f).collect() };
    let headline = Headline::of(&untraced);
    report.set_beside_rounds(
        "op_p50_us",
        headline.op_p50_us,
        &col(&|r| p50(&r.register_us)),
    );
    report.set_beside_rounds(
        "ops_per_s",
        headline.ops_per_s,
        &col(&|r| registers / r.op_s.iter().sum::<f64>()),
    );
    report.set_beside_rounds(
        "cpu_us_per_op",
        headline.cpu_us_per_op,
        &col(&|r| r.op_cpu_s.iter().sum::<f64>() * 1e6 / registers),
    );
    report.set_best_of(
        "alloc.bytes_per_op",
        &col(&|r| r.allocated.bytes as f64 / registers),
    );
    report.set_best_of(
        "alloc.count_per_op",
        &col(&|r| r.allocated.count as f64 / registers),
    );
    report.set("query.engine.apply_us", headline.op_p50_us);
    report.set_best_of(
        "query.engine.apply.alloc_bytes",
        &col(&|r| r.register_alloc_p50),
    );
    report.set_best_of("repo.dedup_store_ms", &col(&|r| r.dedup_p50_ms));
    report.set_best_of("query.engine.cold_open_ms", &cold);
    for r in untraced.iter().chain(&traced) {
        report.attempted += r.op_s.len() as u64;
        report.failed += r.failed;
    }
    report.check("every round saved a byte-identical .somb", snapshots_alike);
    report.check(
        "device traffic repeats exactly across rounds",
        traffic_alike,
    );
    if args.trace {
        report.set(
            "trace.overhead_ratio",
            Headline::of(&traced).op_p50_us / headline.op_p50_us,
        );
    }

    // The last round's store and engine are the workload's final state.
    let live = last.engine.reader();
    let snap = live.snapshot();
    let cache_before = last.engine.plan_cache_stats();
    let scored_before = counters::get("query.candidates_scored");
    // The fixed query set, probed twice on the live engine (a miss,
    // then a hit) and once on the reopened one.
    let mut alike = true;
    let mut answered = 0;
    for case in &cases {
        let want = oracle::expected(&snap, &case.query).expect("zoo references are indexed");
        for _ in 0..2 {
            report.attempted += 1;
            let got = live.query(&case.text);
            answered += got.as_ref().map_or(0, Vec::len);
            let ok = got.as_ref().is_ok_and(|r| oracle::results_match(r, &want));
            report.failed += u64::from(!ok);
            alike &= got.ok() == reopened.query(&case.text).ok();
        }
    }
    report.check(
        "the reopened .somb answers the fixed query set like the live engine",
        alike,
    );
    report.check("the fixed query set returns models", answered > 0);
    let cache_after = last.engine.plan_cache_stats();
    let probes =
        (cache_after.hits - cache_before.hits) + (cache_after.misses - cache_before.misses);
    report.set(
        "query.plancache.hit_rate",
        (cache_after.hits - cache_before.hits) as f64 / probes.max(1) as f64,
    );
    report.set(
        "query.candidates_scored_per_query",
        (counters::get("query.candidates_scored") - scored_before) as f64 / probes.max(1) as f64,
    );
    drop(reopened);

    if let Some(mut rec) = recorder {
        persist_metrics(&live, &dir, report)?;
        let samples = if args.smoke { 32 } else { 256 };
        replay_queries(&live, false, &cases, samples, &mut rec, report);
        layer_metrics(
            &dir.join("layers"),
            &zoo,
            bases,
            &headline.register_us,
            report,
        )?;
        finish_trace(&rec, args, report)?;
    }
    report.set("runtime.latency.samples_retained", samples_retained());
    Ok(())
}
