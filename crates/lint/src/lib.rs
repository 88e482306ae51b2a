//! `sommelier-lint` — execution-free static analysis for Sommelier.
//!
//! The paper's pitch is *curation*: a repository operator should learn
//! about broken or suspicious artifacts before queries trip over them.
//! This crate is the curation gate. It runs a configurable set of
//! [`Pass`]es over a [`LintContext`] — the stored models, the persisted
//! indices, and (optionally) query ASTs — and aggregates structured
//! [`Diagnostic`]s into a [`LintReport`]. Nothing is executed: every
//! check is static, so linting an entire repository is cheap enough to
//! gate CI on.
//!
//! Three pass families ship by default:
//!
//! * **model graph** ([`passes::model`]) — dead layers, width
//!   bottlenecks that zero error propagation, suspicious activation
//!   orderings, family cost outliers, serde round-trip drift, all-zero
//!   weights (`SOM001`–`SOM007`);
//! * **repository & index invariants** ([`passes::index`]) — dangling
//!   keys, unsorted candidate lists, transitive-bound triangle
//!   violations, stale snapshots, score/bound disagreement
//!   (`SOM020`–`SOM027`), non-finite stored profiles (`SOM056`);
//! * **query plans** ([`passes::plan`]) — unsatisfiable `WITHIN`
//!   thresholds, statically empty resource budgets, shadowed
//!   predicates, references that prune to nothing (`SOM040`–`SOM044`);
//! * **snapshot stats header** ([`passes::stats`]) — missing,
//!   unknown-version, negative, or content-inconsistent metrics headers
//!   in persisted snapshots (`SOM050`–`SOM053`);
//! * **binary snapshot image** ([`passes::binary`]) — header/section
//!   CRC mismatches and non-finite resource rows in `.somb` binary
//!   snapshots (`SOM054`, `SOM056`);
//! * **publication epoch** ([`passes::epoch`]) — regressed or missing
//!   publication epochs and candidates referencing keys the snapshot
//!   never registered (`SOM060`–`SOM062`);
//! * **store hygiene** ([`passes::store`]) — the findings of the store
//!   scan `sommelier fsck` prints ([`sommelier_repo::scan_store`]):
//!   quarantined artifacts, orphaned temps, non-canonical file names,
//!   unlistable directories, dangling, corrupt and orphaned chunks,
//!   delta manifests on a missing or cyclic base chain
//!   (`SOM070`–`SOM076`).
//!
//! On top of the shallow families sits the *deep audit*: an
//! abstract-interpretation [`dataflow`] engine feeding the
//! [`passes::deep`] family (`SOM080`–`SOM092`) — shape-incompatible
//! edges, non-finite weights, unreachable subgraphs, saturated
//! activations, constant outputs, rank-collapsed matmuls, declared-cost
//! drift, and the repository ↔ index ↔ snapshot consistency join. The
//! [`audit::Auditor`] runs everything in parallel with per-model
//! results memoized by fingerprint, so re-auditing an unchanged
//! repository is nearly free.
//!
//! The CLI exposes all of this as `sommelier lint <dir>` (shallow,
//! sequential) and `sommelier audit <dir>` (everything, parallel,
//! incremental).

pub mod audit;
pub mod dataflow;
pub mod deny;
pub mod diagnostics;
pub mod passes;

pub use audit::{AuditOutcome, Auditor};
pub use deny::DenySpec;
pub use diagnostics::{codes, Diagnostic, LintReport, Severity};

use sommelier_fault::StdStorage;
use sommelier_graph::Model;
use sommelier_index::{persist, ResourceIndex, SemanticIndex};
use sommelier_query::Query;
use sommelier_repo::{classify, scan_store, ModelRepository, OnDiskRepository, StoreEntry};
use std::path::Path;
use std::time::SystemTime;

/// Everything a lint run can look at. All fields are optional-by-shape:
/// passes skip whatever is absent, so the same runner lints a bare
/// directory of models, a fully indexed repository, or a single query.
#[derive(Default)]
pub struct LintContext {
    /// Stored models as `(repository key, model)`.
    pub models: Vec<(String, Model)>,
    /// The semantic index, if a snapshot was available.
    pub semantic: Option<SemanticIndex>,
    /// The resource index, if a snapshot was available.
    pub resource: Option<ResourceIndex>,
    /// The snapshot's content-derived stats header, if present.
    pub snapshot_stats: Option<persist::SnapshotStats>,
    /// Raw bytes of a binary (`.somb`) snapshot image, when the
    /// repository's index is the binary format. The
    /// [`passes::binary::BinarySnapshotPass`] scans these directly, so
    /// CRC and row findings survive even when the image is too damaged
    /// to decode into `semantic`/`resource`.
    pub binary_snapshot: Option<Vec<u8>>,
    /// Modification time of the index snapshot file.
    pub index_mtime: Option<SystemTime>,
    /// Modification times of stored model files, keyed like `models`.
    pub model_mtimes: Vec<(String, SystemTime)>,
    /// What the store scan ([`sommelier_repo::scan_store`], the one
    /// `sommelier fsck` prints) found wrong with the directory.
    pub store_findings: Vec<sommelier_repo::Finding>,
    /// Queries to lint statically (parsed ASTs).
    pub queries: Vec<Query>,
    /// Findings produced while *loading* the context (unreadable model
    /// files, unparseable snapshots); prepended to every report.
    pub load_diagnostics: Vec<Diagnostic>,
}

impl LintContext {
    /// An empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Load a context from an on-disk repository directory: every
    /// model that loads, the index snapshot (if present), and
    /// file modification times. Unreadable artifacts become
    /// `load_diagnostics` instead of hard failures — a corrupt snapshot
    /// is precisely what the lint layer exists to report.
    pub fn from_repo_dir(dir: &Path) -> Result<LintContext, String> {
        if !dir.exists() {
            return Err(format!("repository '{}' does not exist", dir.display()));
        }
        let repo = OnDiskRepository::open(dir).map_err(|e| e.to_string())?;
        let mut ctx = LintContext::new();
        match scan_store(&StdStorage, dir) {
            Ok(scan) => ctx.store_findings = scan.findings,
            // A listing failure blinds every store check: report it
            // loudly rather than linting an empty-looking repository.
            Err(e) => ctx.load_diagnostics.push(Diagnostic::error(
                codes::STORE_LISTING_FAILED,
                format!("store '{}'", dir.display()),
                format!("repository directory could not be listed: {e}"),
            )),
        }
        for key in repo.keys() {
            match repo.load(&key) {
                Ok(model) => ctx.models.push((key, model)),
                Err(e) => ctx.load_diagnostics.push(Diagnostic::error(
                    codes::MODEL_UNREADABLE,
                    format!("model '{key}'"),
                    format!("stored model could not be loaded: {e}"),
                )),
            }
        }
        // Model-file mtimes, decoded back to the repository keys they
        // store. Both representations count as "the model file" for
        // freshness: a republished manifest must stale the index
        // exactly like a republished flat file.
        if let Ok(entries) = std::fs::read_dir(dir) {
            let mut mtimes = std::collections::BTreeMap::new();
            for entry in entries.flatten() {
                let name = entry.file_name();
                let (StoreEntry::Model(key) | StoreEntry::Manifest(key)) =
                    classify(&name.to_string_lossy())
                else {
                    continue;
                };
                if let Ok(mtime) = entry.metadata().and_then(|m| m.modified()) {
                    let slot = mtimes.entry(key).or_insert(mtime);
                    if mtime > *slot {
                        *slot = mtime;
                    }
                }
            }
            ctx.model_mtimes = mtimes.into_iter().collect();
        }
        let index_path = persist::snapshot_path(dir);
        if index_path.exists() {
            ctx.index_mtime = std::fs::metadata(&index_path)
                .and_then(|m| m.modified())
                .ok();
            // Keep the raw image around for the binary-format lints
            // (sniffed by magic, not extension, so a renamed `.somb`
            // still gets CRC-level findings).
            if let Ok(bytes) = std::fs::read(&index_path) {
                if sommelier_index::somb::is_binary(&bytes) {
                    ctx.binary_snapshot = Some(bytes);
                }
            }
            match persist::read_snapshot(&index_path) {
                Ok(snapshot) => {
                    ctx.snapshot_stats = snapshot.stats;
                    ctx.semantic = Some(snapshot.semantic);
                    ctx.resource = Some(snapshot.resource);
                }
                Err(e) => ctx.load_diagnostics.push(Diagnostic::error(
                    codes::SNAPSHOT_UNREADABLE,
                    "index-snapshot",
                    format!("{e}"),
                )),
            }
        }
        Ok(ctx)
    }

    /// Whether a repository key exists among the loaded models.
    pub fn has_model(&self, key: &str) -> bool {
        self.models.iter().any(|(k, _)| k == key)
    }
}

/// One static analysis. Passes are independent: each walks the context
/// and appends findings; they never mutate what they analyze.
pub trait Pass {
    /// Stable pass name (for reporting and selection).
    fn name(&self) -> &'static str;
    /// Run the analysis, appending findings to `out`.
    fn run(&self, ctx: &LintContext, out: &mut Vec<Diagnostic>);
}

/// Aggregates passes and produces a [`LintReport`].
#[derive(Default)]
pub struct LintRunner {
    passes: Vec<Box<dyn Pass>>,
}

impl LintRunner {
    /// An empty runner (register passes manually).
    pub fn new() -> Self {
        Self::default()
    }

    /// A runner with every built-in pass registered.
    pub fn with_default_passes() -> Self {
        let mut runner = LintRunner::new();
        runner.register(Box::new(passes::model::ModelGraphPass));
        runner.register(Box::new(passes::model::ModelCostPass));
        runner.register(Box::new(passes::model::ModelRoundTripPass));
        runner.register(Box::new(passes::index::IndexIntegrityPass));
        runner.register(Box::new(passes::index::TrianglePass));
        runner.register(Box::new(passes::index::FreshnessPass));
        runner.register(Box::new(passes::plan::QueryPlanPass));
        runner.register(Box::new(passes::stats::SnapshotStatsPass));
        runner.register(Box::new(passes::binary::BinarySnapshotPass));
        runner.register(Box::new(passes::epoch::SnapshotEpochPass));
        runner.register(Box::new(passes::store::StoreHygienePass));
        runner
    }

    /// A runner with every built-in pass *plus* the deep pass family —
    /// the sequential equivalent of one [`audit::Auditor`] run.
    pub fn with_deep_passes() -> Self {
        let mut runner = LintRunner::with_default_passes();
        runner.register(Box::new(passes::deep::DeepModelPass));
        runner.register(Box::new(passes::deep::CrossArtifactPass));
        runner
    }

    /// Add a pass.
    pub fn register(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// Names of the registered passes, in execution order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Run every pass over the context.
    pub fn run(&self, ctx: &LintContext) -> LintReport {
        let mut diagnostics = ctx.load_diagnostics.clone();
        for pass in &self.passes {
            pass.run(ctx, &mut diagnostics);
        }
        LintReport::from_diagnostics(diagnostics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_runner_registers_all_families() {
        let runner = LintRunner::with_default_passes();
        let names = runner.pass_names();
        assert!(names.contains(&"model-graph"));
        assert!(names.contains(&"index-integrity"));
        assert!(names.contains(&"query-plan"));
        assert!(names.contains(&"snapshot-stats"));
        assert!(names.contains(&"binary-snapshot"));
        assert!(names.contains(&"snapshot-epoch"));
        assert!(names.contains(&"store-hygiene"));
        assert_eq!(names.len(), 11);
        let deep = LintRunner::with_deep_passes();
        let names = deep.pass_names();
        assert!(names.contains(&"deep-dataflow"));
        assert!(names.contains(&"cross-artifact"));
        assert_eq!(names.len(), 13);
    }

    #[test]
    fn empty_context_lints_clean() {
        let report = LintRunner::with_default_passes().run(&LintContext::new());
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn load_diagnostics_are_carried_into_the_report() {
        let mut ctx = LintContext::new();
        ctx.load_diagnostics.push(Diagnostic::error(
            codes::SNAPSHOT_UNREADABLE,
            "index-snapshot",
            "boom",
        ));
        let report = LintRunner::with_default_passes().run(&ctx);
        assert_eq!(report.max_severity(), Some(Severity::Error));
    }
}
