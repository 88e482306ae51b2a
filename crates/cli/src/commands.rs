//! Implementation of the CLI subcommands.

use sommelier_equiv::explain::explain;
use sommelier_equiv::whole::EquivConfig;
use sommelier_fault::{StdStorage, Storage};
use sommelier_graph::{serde_model, TaskKind};
use sommelier_index::persist::{self, snapshot_path, INDEX_FILE, INDEX_FILE_BIN};
use sommelier_lint::DenySpec;
use sommelier_query::{SnapshotRecovery, Sommelier, SommelierConfig};
use sommelier_repo::{repair_store, scan_store, ModelRepository, OnDiskRepository, Outcome};
use sommelier_runtime::ResourceProfile;
use sommelier_tensor::{Prng, Tensor};
use sommelier_zoo::series::build_series;
use sommelier_zoo::families::Family;
use std::path::{Path, PathBuf};
use std::sync::Arc;

type CmdResult = Result<(), String>;

fn fail(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Positional arguments and `(name, value)` flag pairs.
type ParsedArgs<'a> = (Vec<&'a str>, Vec<(&'a str, &'a str)>);

/// Parse `--flag value` pairs out of an argument list, returning the
/// remaining positional arguments.
fn split_flags(args: &[String]) -> Result<ParsedArgs<'_>, String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if let Some(name) = a.strip_prefix("--") {
            if name.is_empty() {
                return Err("empty flag name".into());
            }
            // Boolean flags take no value; known ones are listed here.
            if matches!(name, "no-segments" | "repair" | "prune") {
                flags.push((name, "true"));
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.push((name, value.as_str()));
            i += 2;
        } else {
            positional.push(a);
            i += 1;
        }
    }
    Ok((positional, flags))
}

/// [`split_flags`], refusing any flag outside `takes`.
fn split_known_flags<'a>(args: &'a [String], takes: &[&str]) -> Result<ParsedArgs<'a>, String> {
    let (positional, flags) = split_flags(args)?;
    if let Some((name, _)) = flags.iter().find(|(name, _)| !takes.contains(name)) {
        return Err(format!("unknown flag --{name}"));
    }
    Ok((positional, flags))
}

/// `--name`'s value as an integer; a `positive` one refuses 0 too.
fn int_flag<T>(name: &str, value: &str, positive: bool) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + From<u8>,
{
    let kind = if positive {
        "a positive integer"
    } else {
        "an integer"
    };
    value
        .parse()
        .ok()
        .filter(|n| !positive || *n >= T::from(1))
        .ok_or_else(|| format!("--{name} needs {kind}, got '{value}'"))
}

fn repo_dir(positional: &[&str]) -> Result<PathBuf, String> {
    positional
        .first()
        .map(PathBuf::from)
        .ok_or_else(|| "missing repository directory argument".into())
}

fn open_repo(dir: &Path) -> Result<Arc<OnDiskRepository>, String> {
    if !dir.exists() {
        return Err(format!(
            "repository '{}' does not exist (run `sommelier init` first)",
            dir.display()
        ));
    }
    Ok(Arc::new(OnDiskRepository::open(dir).map_err(fail)?))
}

fn engine_config(flags: &[(&str, &str)]) -> Result<SommelierConfig, String> {
    let mut cfg = SommelierConfig::default();
    for (name, value) in flags {
        match *name {
            "sample" => cfg.index.sample_size = int_flag(name, value, false)?,
            "no-segments" => cfg.index.segments = false,
            "jobs" => cfg.jobs = int_flag(name, value, false)?,
            _ => return Err(format!("unknown flag --{name}")),
        }
    }
    Ok(cfg)
}

/// `sommelier init <dir>`
pub fn init(args: &[String]) -> CmdResult {
    let (positional, _) = split_known_flags(args, &[])?;
    let dir = repo_dir(&positional)?;
    std::fs::create_dir_all(&dir).map_err(fail)?;
    OnDiskRepository::open(&dir).map_err(fail)?;
    outln!("initialized empty repository at {}", dir.display());
    Ok(())
}

/// `sommelier seed <dir> [--series N] [--seed S]`
pub fn seed(args: &[String]) -> CmdResult {
    let (positional, flags) = split_flags(args)?;
    let dir = repo_dir(&positional)?;
    let mut n_series = 3usize;
    let mut seed = 2024u64;
    for (name, value) in &flags {
        match *name {
            "series" => n_series = int_flag(name, value, false)?,
            "seed" => seed = int_flag(name, value, false)?,
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    let repo = open_repo(&dir)?;
    let families = [
        Family::Bitish,
        Family::Efficientnetish,
        Family::Resnetish,
        Family::Mobilenetish,
        Family::Vggish,
        Family::Inceptionish,
    ];
    let mut rng = Prng::seed_from_u64(seed);
    let mut published = 0usize;
    for i in 0..n_series {
        let family = families[i % families.len()];
        let series = build_series(
            &format!("{}-v{}", family.slug(), i / families.len() + 1),
            family,
            TaskKind::ImageRecognition,
            "imagenet",
            5,
            seed,
            0.12,
            &mut rng,
        );
        for m in &series.models {
            repo.publish(&m.name, m, true).map_err(fail)?;
            published += 1;
        }
    }
    outln!(
        "seeded {} with {published} models across {n_series} series",
        dir.display()
    );
    outln!("(run `sommelier index {}` to build the indices)", dir.display());
    Ok(())
}

/// `sommelier add <dir> <model.json> [--key K]`
pub fn add(args: &[String]) -> CmdResult {
    let (positional, flags) = split_known_flags(args, &["key"])?;
    let dir = repo_dir(&positional)?;
    let file = positional
        .get(1)
        .ok_or("missing model file argument")?;
    let mut model = serde_model::load(Path::new(file)).map_err(fail)?;
    // A stored model is named after its key.
    if let Some((_, key)) = flags.iter().find(|(n, _)| *n == "key") {
        model.name = key.to_string();
    }
    let key = &model.name;
    let repo = open_repo(&dir)?;
    repo.publish(key, &model, false).map_err(fail)?;
    outln!("published '{key}' ({} parameters)", model.param_count());
    Ok(())
}

/// `sommelier export <dir> <key> <file>`
///
/// The inverse of `add`: loads `key` and writes it to `file` as the
/// standalone model JSON `add` and `apply --add` read.
pub fn export(args: &[String]) -> CmdResult {
    let (positional, _) = split_known_flags(args, &[])?;
    let dir = repo_dir(&positional)?;
    let key = positional.get(1).ok_or("missing model key argument")?;
    let file = positional.get(2).ok_or("missing output file argument")?;
    let model = open_repo(&dir)?.load(key).map_err(fail)?;
    serde_model::save(&model, Path::new(file)).map_err(fail)?;
    outln!("exported '{key}' to {file}");
    Ok(())
}

/// `sommelier list <dir>`
pub fn list(args: &[String]) -> CmdResult {
    let (positional, _) = split_known_flags(args, &[])?;
    let dir = repo_dir(&positional)?;
    let repo = open_repo(&dir)?;
    let keys = repo.keys();
    if keys.is_empty() {
        outln!("(repository is empty)");
        return Ok(());
    }
    for key in keys {
        outln!("{key}");
    }
    Ok(())
}

/// `sommelier show <dir> <key>`
pub fn show(args: &[String]) -> CmdResult {
    let (positional, _) = split_known_flags(args, &[])?;
    let dir = repo_dir(&positional)?;
    let key = positional.get(1).ok_or("missing model key argument")?;
    let repo = open_repo(&dir)?;
    let model = repo.load(key).map_err(fail)?;
    let profile = ResourceProfile::of(&model);
    outln!("key:        {key}");
    outln!("name:       {}", model.name);
    outln!("version:    {}", model.version);
    outln!("task:       {}", model.task);
    outln!("input:      {}", model.input_shape);
    outln!("output:     {} dims", model.output_width());
    outln!("layers:     {}", model.num_layers());
    outln!("parameters: {}", model.param_count());
    outln!("memory:     {:.3} MB", profile.memory_mb);
    outln!("compute:    {:.6} GFLOPs", profile.gflops);
    outln!("latency:    {:.3} ms (cpu, batch 1)", profile.latency_ms);
    if !model.metadata.is_empty() {
        outln!("metadata:");
        for (k, v) in &model.metadata {
            outln!("  {k} = {v}");
        }
    }
    Ok(())
}

/// `sommelier index <dir> [--sample N] [--no-segments] [--jobs N]`
pub fn index(args: &[String]) -> CmdResult {
    let (positional, flags) = split_flags(args)?;
    let dir = repo_dir(&positional)?;
    let cfg = engine_config(&flags)?;
    let repo = open_repo(&dir)?;
    let mut engine = Sommelier::connect(repo as Arc<dyn ModelRepository>, cfg);
    let start = std::time::Instant::now();
    let added = engine.index_existing().map_err(fail)?;
    let secs = start.elapsed().as_secs_f64();
    engine.save_indices(&snapshot_path(&dir)).map_err(fail)?;
    outln!(
        "indexed {added} models in {secs:.1}s with {} job(s) → {}",
        engine.jobs(),
        snapshot_path(&dir).display()
    );
    Ok(())
}

/// `sommelier apply <dir> [--add FILE]... [--remove KEY]... [--jobs N]`
///
/// Batched mutation against an existing index: every `--add` and
/// `--remove` coalesces into one [`MutationBatch`] applied as a single
/// logical mutation — one analysis fan-out, one snapshot publication,
/// one epoch bump — instead of a full `sommelier index` rebuild. A key
/// named by both `--remove` and an `--add`ed model is replaced in
/// place.
pub fn apply(args: &[String]) -> CmdResult {
    use sommelier_query::MutationBatch;
    let (positional, flags) = split_flags(args)?;
    let dir = repo_dir(&positional)?;
    let mut batch = MutationBatch::new();
    let mut engine_flags = Vec::new();
    for (name, value) in &flags {
        match *name {
            "add" => {
                let model = serde_model::load(Path::new(value)).map_err(fail)?;
                batch = batch.register(model);
            }
            "remove" => batch = batch.unregister(*value),
            _ => engine_flags.push((*name, *value)),
        }
    }
    if batch.is_empty() {
        outln!("nothing to apply (pass --add FILE and/or --remove KEY)");
        return Ok(());
    }
    let cfg = engine_config(&engine_flags)?;
    let mut engine = load_engine(&dir, cfg)?;
    let path = snapshot_path(&dir);
    let start = std::time::Instant::now();
    let applied = engine.apply(batch).map_err(fail)?;
    let secs = start.elapsed().as_secs_f64();
    engine.save_indices(&path).map_err(fail)?;
    outln!(
        "applied {applied} mutation(s) in {secs:.2}s (epoch {}) → {}",
        engine.epoch(),
        path.display()
    );
    Ok(())
}

/// `sommelier compact <dir>`
///
/// Rewrite the index snapshot into the `.somb` binary format: smaller,
/// CRC-validated in O(1) on open, decoded from fixed-size rows. Reads
/// whichever snapshot the repository has (the format is sniffed, not
/// assumed), writes `sommelier.index.somb` through the atomic-rename
/// protocol, then removes the JSON original. Queries keep working
/// against JSON repositories; compacting is an optimization, not a
/// migration requirement.
pub fn compact(args: &[String]) -> CmdResult {
    let (positional, _) = split_known_flags(args, &[])?;
    let dir = repo_dir(&positional)?;
    if !dir.exists() {
        return Err(format!("repository '{}' does not exist", dir.display()));
    }
    let source = snapshot_path(&dir);
    if !source.exists() {
        return Err(format!(
            "no index at {} (run `sommelier index {}` first)",
            source.display(),
            dir.display()
        ));
    }
    let storage = StdStorage;
    let (snapshot, format) =
        persist::read_snapshot_sniffed_with(&storage, &source).map_err(fail)?;
    let from_bytes = std::fs::metadata(&source).map_err(fail)?.len();
    let target = dir.join(INDEX_FILE_BIN);
    persist::save_snapshot_as(
        &storage,
        &snapshot,
        sommelier_index::SnapshotFormat::Binary,
        &target,
    )
    .map_err(fail)?;
    let to_bytes = std::fs::metadata(&target).map_err(fail)?.len();
    // The JSON original is now redundant; leaving it would shadow
    // nothing (readers prefer .somb) but waste space and confuse fsck.
    let json = dir.join(INDEX_FILE);
    if format == sommelier_index::SnapshotFormat::Json && json.exists() {
        storage.remove(&json).map_err(fail)?;
    }
    outln!(
        "compacted {} snapshot ({from_bytes} bytes) → {} ({to_bytes} bytes)",
        format,
        target.display()
    );
    Ok(())
}

fn load_engine(dir: &Path, cfg: SommelierConfig) -> Result<Sommelier, String> {
    let repo = open_repo(dir)?;
    let path = snapshot_path(dir);
    if !path.exists() {
        return Err(format!(
            "no index at {} (run `sommelier index {}` first)",
            path.display(),
            dir.display()
        ));
    }
    // A *corrupt* snapshot recovers transparently: it is quarantined and
    // the indices are rebuilt from the repository, so a torn write never
    // turns into a failed query. (A *missing* snapshot stays an explicit
    // error above — silently indexing would hide a typoed directory.)
    let (engine, outcome) =
        Sommelier::connect_or_recover(repo as Arc<dyn ModelRepository>, cfg, &path)
            .map_err(fail)?;
    match outcome {
        SnapshotRecovery::Loaded => {}
        SnapshotRecovery::RebuiltQuarantined(quarantined) => eprintln!(
            "warning: index snapshot was unreadable; quarantined it as {} \
             and rebuilt the indices from the repository",
            quarantined.display()
        ),
        SnapshotRecovery::RebuiltMissing => eprintln!(
            "warning: index snapshot was unreadable and could not be \
             quarantined; rebuilt the indices from the repository"
        ),
    }
    Ok(engine)
}

fn print_result_table(results: &[sommelier_query::QueryResult]) -> CmdResult {
    outln!(
        "{:<28} {:>7} {:>10} {:>12} {:>10}",
        "key", "score", "mem (MB)", "GFLOPs", "lat (ms)"
    );
    for r in results {
        outln!(
            "{:<28} {:>7.3} {:>10.3} {:>12.6} {:>10.3}",
            r.key, r.score, r.profile.memory_mb, r.profile.gflops, r.profile.latency_ms
        );
    }
    Ok(())
}

/// `sommelier query <dir> <query-text> [--jobs N] [--repeat K]
/// [--format text|json]`
///
/// `--repeat K` runs the query K times through the batched path
/// (`query_batch`), spread over the engine's `--jobs N` lanes; every
/// batched answer reports its per-query latency and the index epoch it
/// was served from. Repeats after the first hit the engine's plan/result
/// cache, so the per-query latencies directly expose the cache win.
pub fn query(args: &[String]) -> CmdResult {
    let (positional, flags) = split_flags(args)?;
    let dir = repo_dir(&positional)?;
    let mut repeat = 1usize;
    let mut format = "text";
    let mut engine_flags = Vec::new();
    for (name, value) in &flags {
        match *name {
            "repeat" => repeat = int_flag(name, value, true)?,
            "format" => match *value {
                "text" | "json" => format = value,
                other => return Err(format!("unknown format '{other}' (text|json)")),
            },
            _ => engine_flags.push((*name, *value)),
        }
    }
    let cfg = engine_config(&engine_flags)?;
    let text = positional
        .get(1..)
        .filter(|rest| !rest.is_empty())
        .map(|rest| rest.join(" "))
        .ok_or("missing query text")?;
    let engine = load_engine(&dir, cfg)?;
    // The batched path: the reader pins one published snapshot and fans
    // the repeats across the engine's pool.
    let reader = engine.reader();
    let texts: Vec<String> = std::iter::repeat_with(|| text.clone()).take(repeat).collect();
    let items = reader.query_batch(&texts);
    if format == "json" {
        use serde::Value;
        let snapshot_format = engine
            .snapshot_format()
            .map(|f| f.as_str())
            .unwrap_or("none");
        let queries = Value::Seq(items.iter().map(|item| Value::Map(item.fields())).collect());
        // Aggregate quantiles over the batch: exact nearest-rank
        // p50/p90/p99 of the per-query latencies.
        let mut sorted: Vec<f64> = items.iter().map(|i| i.latency_ms).collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let rank = |q: f64| -> f64 {
            let i = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[i - 1]
        };
        let latency = Value::Map(vec![
            ("count".to_string(), Value::UInt(sorted.len() as u64)),
            ("p50_ms".to_string(), Value::Float(rank(0.50))),
            ("p90_ms".to_string(), Value::Float(rank(0.90))),
            ("p99_ms".to_string(), Value::Float(rank(0.99))),
        ]);
        // The served snapshot's provenance rides along with the
        // answers: which on-disk encoding the engine loaded.
        let rendered = Value::Map(vec![
            (
                "snapshot".to_string(),
                Value::Map(vec![(
                    "format".to_string(),
                    Value::Str(snapshot_format.to_string()),
                )]),
            ),
            ("latency".to_string(), latency),
            ("queries".to_string(), queries),
        ]);
        outln!(
            "{}",
            serde_json::to_string_pretty(&rendered).map_err(fail)?
        );
        // Surface a failure exit even in JSON mode.
        if let Some(item) = items.iter().find(|i| i.results.is_err()) {
            return Err(item.results.as_ref().unwrap_err().to_string());
        }
        return Ok(());
    }
    let first = items.first().expect("repeat >= 1");
    let results = first.results.as_ref().map_err(|e| e.to_string())?;
    if results.is_empty() {
        outln!("(no model satisfies all predicates)");
    } else {
        print_result_table(results)?;
    }
    if repeat > 1 {
        outln!();
        for (i, item) in items.iter().enumerate() {
            let n = item.results.as_ref().map(Vec::len).unwrap_or(0);
            outln!(
                "query #{:<3} {} result(s) in {:>8.3} ms  (epoch {})",
                i + 1,
                n,
                item.latency_ms,
                item.epoch
            );
        }
        let stats = reader.plan_cache_stats();
        outln!(
            "{} lane(s); plan cache: {} hit(s), {} miss(es)",
            reader.jobs(),
            stats.hits,
            stats.misses
        );
    } else {
        outln!("served from epoch {} in {:.3} ms", first.epoch, first.latency_ms);
    }
    Ok(())
}

/// `sommelier diff <dir> <reference> <candidate>`
///
/// Prints the full equivalence explanation (the paper's "explanation
/// database" view): I/O check, empirical/bounded differences, matched
/// segments with their propagation bounds, and the verdict.
pub fn diff(args: &[String]) -> CmdResult {
    let (positional, _) = split_known_flags(args, &[])?;
    let dir = repo_dir(&positional)?;
    let reference_key = positional.get(1).ok_or("missing reference key")?;
    let candidate_key = positional.get(2).ok_or("missing candidate key")?;
    let repo = open_repo(&dir)?;
    let reference = repo.load(reference_key).map_err(fail)?;
    let candidate = repo.load(candidate_key).map_err(fail)?;
    let mut rng = Prng::seed_from_u64(0xd1ff);
    let probe = Tensor::gaussian(512, reference.input_width(), 1.0, &mut rng);
    let cfg = EquivConfig {
        epsilon: 0.15,
        ..EquivConfig::default()
    };
    let explanation = explain(&reference, &candidate, &probe, &cfg, 0.15, &mut rng);
    out!("{explanation}");
    Ok(())
}

/// `sommelier dot <dir> <key>` — Graphviz export of a model's graph.
pub fn dot(args: &[String]) -> CmdResult {
    let (positional, _) = split_known_flags(args, &[])?;
    let dir = repo_dir(&positional)?;
    let key = positional.get(1).ok_or("missing model key argument")?;
    let repo = open_repo(&dir)?;
    let model = repo.load(key).map_err(fail)?;
    out!("{}", sommelier_graph::dot::to_dot(&model, &[]));
    Ok(())
}

/// `sommelier lint <dir> [--format text|json] [--deny SPEC]...
/// [--query "<text>"]`
///
/// Runs every built-in shallow static analysis over the repository:
/// stored models, the persisted indices, and (with `--query`) a query
/// plan. Nothing is executed. The command fails — for CI gating — when
/// any finding matches a `--deny` spec: a severity class
/// (`error`/`warn`/`info`), an exact code (`SOM081`), or a range
/// (`SOM09x`). Default: `error`. Unknown codes are an error.
pub fn lint(args: &[String]) -> CmdResult {
    check(args, false)
}

/// `sommelier audit <dir> [--jobs N] [--format text|json]
/// [--deny SPEC]... [--baseline FILE] [--query "<text>"]`
///
/// The deep audit: every shallow lint pass plus the
/// abstract-interpretation dataflow family (`SOM08x`) and the
/// repository ↔ index ↔ snapshot consistency join (`SOM09x`). Per-model
/// analyses fan out over `--jobs` lanes (default: one per core); output
/// is identical at any lane count. `--baseline` subtracts previously
/// accepted findings (CI ratcheting): generate one with
/// `--format json > baseline.json`.
pub fn audit(args: &[String]) -> CmdResult {
    check(args, true)
}

/// The body `lint` and `audit` share; `deep` adds the deep families and
/// the `--jobs` and `--baseline` flags.
fn check(args: &[String], deep: bool) -> CmdResult {
    let what = if deep { "audit" } else { "lint" };
    let (positional, flags) = split_flags(args)?;
    let dir = repo_dir(&positional)?;
    let mut format = "text";
    let mut jobs = 0usize;
    let mut deny_specs: Vec<&str> = Vec::new();
    let mut baseline: Option<PathBuf> = None;
    let mut ctx = sommelier_lint::LintContext::from_repo_dir(&dir)?;
    for (name, value) in &flags {
        match (*name, deep) {
            ("format", _) => match *value {
                "text" | "json" => format = value,
                other => return Err(format!("unknown format '{other}' (text|json)")),
            },
            ("deny", _) => deny_specs.push(value),
            ("query", _) => {
                let query = sommelier_query::parse(value).map_err(fail)?;
                ctx.queries.push(query);
            }
            ("jobs", true) => jobs = int_flag(name, value, false)?,
            ("baseline", true) => baseline = Some(PathBuf::from(value)),
            (other, _) => return Err(format!("unknown flag --{other}")),
        }
    }
    let deny = DenySpec::parse(&deny_specs)?;
    let mut report = sommelier_lint::run(&ctx, deep, jobs);
    if let Some(path) = baseline {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("baseline '{}' is unreadable: {e}", path.display()))?;
        let known: Vec<sommelier_lint::Diagnostic> = serde_json::from_str(&text)
            .map_err(|e| format!("baseline '{}' does not parse: {e}", path.display()))?;
        report.subtract(&known);
    }
    match format {
        "json" => outln!("{}", report.to_json()),
        _ => out!("{}", report.render_text()),
    }
    let denied = deny.count_denied(&report.diagnostics);
    if denied > 0 {
        Err(format!(
            "{what} found {denied} finding(s) denied by --deny ({})",
            deny.describe()
        ))
    } else {
        Ok(())
    }
}

/// `sommelier fsck <dir> [--repair] [--prune]`
///
/// Prints what the store scan ([`sommelier_repo::scan_store`], the one
/// `sommelier lint` reports from) finds wrong with the directory —
/// model and manifest files must carry canonical key encodings and
/// parse; manifests must reference only chunks that exist and sit on
/// a base chain that ends; chunks must hash-verify and be referenced
/// by some manifest; quarantined (`*.corrupt-*`) and orphaned temp
/// (`*.tmp-*`) files are reported — and checks that the index
/// snapshot parses. Without flags the command only reports, failing
/// (for scripting) if anything is found. `--repair` deletes orphaned
/// temps and orphaned chunks, quarantines unparseable or unloadable
/// artifacts, and rebuilds + re-persists the index from the
/// repository. `--prune` deletes quarantined files; it works on its
/// own — without `--repair` it prunes quarantines left by earlier runs
/// but fixes nothing else.
pub fn fsck(args: &[String]) -> CmdResult {
    let (positional, flags) = split_flags(args)?;
    let dir = repo_dir(&positional)?;
    let mut repair = false;
    let mut prune = false;
    for (name, _) in &flags {
        match *name {
            "repair" => repair = true,
            "prune" => prune = true,
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    if !dir.exists() {
        return Err(format!("repository '{}' does not exist", dir.display()));
    }
    let storage = StdStorage;
    let scan = scan_store(&storage, &dir).map_err(fail)?;
    let outcomes = repair_store(&storage, &dir, &scan, repair, prune).map_err(fail)?;
    let mut findings = scan.findings.len();
    let mut fixed = outcomes.iter().filter(|o| **o != Outcome::Left).count();
    for (finding, outcome) in scan.findings.iter().zip(&outcomes) {
        let (kind, file) = (finding.kind, &finding.file);
        match outcome {
            Outcome::Left => outln!("{file}: {} ({})", finding.message, kind.fix().hint()),
            Outcome::Removed => outln!("removed {} {file}", kind.label()),
            Outcome::Quarantined(to) => {
                outln!("quarantined {file} ({}) → {to}", kind.label());
                if prune {
                    outln!("pruned quarantined file {to}");
                }
            }
        }
    }
    // The snapshot the engine would serve, in either encoding (the
    // reader sniffs JSON vs binary).
    let index = snapshot_path(&dir);
    let index_error = if index.exists() {
        persist::read_snapshot(&index).err()
    } else {
        None
    };
    if let Some(e) = index_error {
        findings += 1;
        if repair {
            // The engine's own recovery path: quarantine the torn file,
            // rebuild from the repository, re-persist.
            let repo = open_repo(&dir)?;
            let (_, outcome) = Sommelier::connect_or_recover(
                repo as Arc<dyn ModelRepository>,
                SommelierConfig::default(),
                &index,
            )
            .map_err(fail)?;
            fixed += 1;
            match outcome {
                SnapshotRecovery::RebuiltQuarantined(q) => {
                    let to = q.file_name().and_then(|n| n.to_str()).unwrap_or("?");
                    outln!("quarantined unreadable index snapshot → {to}; rebuilt and re-saved");
                    // The quarantine postdates the scan; honor --prune
                    // in the same invocation.
                    if prune {
                        storage.remove(&q).map_err(fail)?;
                        outln!("pruned quarantined file {to}");
                    }
                }
                _ => outln!("rebuilt and re-saved the index snapshot"),
            }
        } else {
            outln!("unreadable index snapshot: {}: {e}", index.display());
        }
    }
    if findings == 0 {
        outln!("{}: clean ({} file(s) checked)", dir.display(), scan.files_checked);
        return Ok(());
    }
    outln!("{}: {findings} finding(s), {fixed} fixed", dir.display());
    if fixed < findings {
        return Err(format!(
            "fsck found {} unresolved issue(s)",
            findings - fixed
        ));
    }
    Ok(())
}

/// `sommelier serve <dir> [--addr A] [--workers N] [--queue-depth D]
/// [--tenants FILE] [--jobs N] [--sample N]
/// [--no-segments]`
///
/// Opens the repository's engine once and serves it over TCP until a
/// `shutdown` request arrives. Prints `listening on ADDR` when ready
/// (ADDR resolves `--addr`'s port 0 to the actual ephemeral port, so
/// scripts can parse it).
pub fn serve(args: &[String]) -> CmdResult {
    let (positional, flags) = split_flags(args)?;
    let dir = repo_dir(&positional)?;
    let mut daemon_cfg = sommelier_serving::DaemonConfig {
        addr: "127.0.0.1:7634".to_string(),
        ..sommelier_serving::DaemonConfig::default()
    };
    let mut engine_flags = Vec::new();
    for (name, value) in &flags {
        match *name {
            "addr" => daemon_cfg.addr = value.to_string(),
            "workers" => daemon_cfg.workers = int_flag(name, value, true)?,
            "queue-depth" => daemon_cfg.queue_depth = int_flag(name, value, false)?,
            "tenants" => daemon_cfg.tenants = Some(PathBuf::from(value)),
            _ => engine_flags.push((*name, *value)),
        }
    }
    let cfg = engine_config(&engine_flags)?;
    let engine = load_engine(&dir, cfg)?;
    outln!(
        "serving {} model(s) from {} (epoch {})",
        engine.len(),
        dir.display(),
        engine.epoch()
    );
    let handle = sommelier_serving::Daemon::serve(engine, daemon_cfg)?;
    outln!("listening on {}", handle.addr());
    // Flush eagerly: daemon smoke scripts poll stdout for the line.
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    handle.wait();
    outln!("daemon stopped");
    Ok(())
}

/// `sommelier client <addr> <op> [args] [--auth KEY]`
///
/// One-shot protocol client: connects, issues a single request, prints
/// the JSON response, and exits non-zero on error replies.
pub fn client(args: &[String]) -> CmdResult {
    use sommelier_serving::daemon::client::Client;
    let (positional, flags) = split_flags(args)?;
    let addr = positional
        .first()
        .ok_or("missing daemon address (host:port)")?;
    let op = positional.get(1).copied().ok_or(
        "missing op: ping | query <text> | batch <text>... | fsck | metrics | reload | shutdown",
    )?;
    let mut auth = None;
    for (name, value) in &flags {
        match *name {
            "auth" => auth = Some(value.to_string()),
            _ => return Err(format!("unknown flag --{name}")),
        }
    }
    let mut client = Client::connect(addr)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    if let Some(key) = auth {
        client = client.with_auth(key);
    }
    let reply = match op {
        "ping" => client.ping(),
        "query" => {
            let text = positional
                .get(2..)
                .filter(|rest| !rest.is_empty())
                .map(|rest| rest.join(" "))
                .ok_or("op 'query' needs query text")?;
            client.query(&text)
        }
        "batch" => {
            let texts: Vec<String> = positional[2..].iter().map(|s| s.to_string()).collect();
            if texts.is_empty() {
                return Err("op 'batch' needs at least one query text".into());
            }
            client.query_batch(&texts)
        }
        "fsck" => client.fsck(),
        "metrics" => client.metrics(),
        "reload" => client.reload(),
        "shutdown" => client.shutdown(),
        other => return Err(format!("unknown op '{other}'")),
    }
    .map_err(|e| format!("request failed: {e}"))?;
    outln!(
        "{}",
        serde_json::to_string_pretty(&reply.body).map_err(fail)?
    );
    if !reply.ok {
        return Err(format!(
            "daemon replied with error '{}'",
            reply.error_code().unwrap_or("unknown")
        ));
    }
    Ok(())
}
