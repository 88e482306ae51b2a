//! `sommelier-lint` — execution-free static analysis for Sommelier.
//!
//! The paper's pitch is *curation*: a repository operator should learn
//! about broken or suspicious artifacts before queries trip over them.
//! This crate is the curation gate. [`run`] applies one fixed list of
//! analyses to a [`LintContext`] — the stored models, the persisted
//! indices, and (optionally) query ASTs — and aggregates structured
//! [`Diagnostic`]s into a [`LintReport`]. Nothing is executed: every
//! check is static, so linting an entire repository is cheap enough to
//! gate CI on.
//!
//! Seven pass families always run:
//!
//! * **model graph** ([`passes::model`]) — dead layers, width
//!   bottlenecks that zero error propagation, suspicious activation
//!   orderings, family cost outliers, serde round-trip drift, all-zero
//!   weights (`SOM001`–`SOM007`);
//! * **repository & index invariants** ([`passes::index`]) — dangling
//!   keys, candidate lists that differ from the ones their edge table
//!   derives, measured-bound triangle violations, stale snapshots
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
//!   publication epochs (`SOM060`–`SOM061`);
//! * **store hygiene** ([`passes::store`]) — the findings of the store
//!   scan `sommelier fsck` prints ([`sommelier_repo::scan_store`]):
//!   quarantined artifacts, orphaned temps, non-canonical file names,
//!   unlistable directories, dangling, corrupt and orphaned chunks,
//!   delta manifests on a missing or cyclic base chain
//!   (`SOM070`–`SOM076`).
//!
//! On request [`run`] adds the *deep* families: an
//! abstract-interpretation [`dataflow`] engine feeding the
//! [`passes::deep`] family (`SOM080`–`SOM091`) — shape-incompatible
//! edges, non-finite weights, unreachable subgraphs, saturated
//! activations, constant outputs, rank-collapsed matmuls, declared-cost
//! drift, and the repository ↔ index ↔ snapshot consistency join.
//!
//! The CLI exposes all of this as `sommelier lint <dir>` (the seven
//! families) and `sommelier audit <dir>` (the deep families too).

pub mod dataflow;
pub mod deny;
pub mod diagnostics;
pub mod passes;

pub use deny::DenySpec;
pub use diagnostics::{codes, Diagnostic, LintReport, Severity};

use sommelier_fault::StdStorage;
use sommelier_graph::Model;
use sommelier_index::{persist, ResourceIndex, SemanticIndex};
use sommelier_parallel::ThreadPool;
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
        // Manifest mtimes, decoded back to the repository keys they
        // store: a republished manifest stales the index.
        if let Ok(entries) = std::fs::read_dir(dir) {
            let mut mtimes = std::collections::BTreeMap::new();
            for entry in entries.flatten() {
                let name = entry.file_name();
                let StoreEntry::Manifest(key) = classify(&name.to_string_lossy()) else {
                    continue;
                };
                if let Ok(mtime) = entry.metadata().and_then(|m| m.modified()) {
                    mtimes.insert(key, mtime);
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
}

/// One analysis over the whole context, run once per lint: it looks
/// across models or at the persisted artifacts. It appends findings and
/// never mutates what it analyzes.
pub trait Pass {
    /// Run the analysis, appending findings to `out`.
    fn run(&self, ctx: &LintContext, out: &mut Vec<Diagnostic>);
}

/// Lint everything in the context. The per-model analyses (graph
/// structure and serde round trip, plus the dataflow family when `deep`)
/// fan out over `jobs` lanes (`0` = one per core, `1` = inline); the
/// whole-context passes, plus the cross-artifact join when `deep`, then
/// run once. The report is sorted and deduplicated, so it is identical
/// at any lane count.
pub fn run(ctx: &LintContext, deep: bool, jobs: usize) -> LintReport {
    let pool = ThreadPool::new(sommelier_parallel::effective_jobs(jobs));
    let per_model = pool.par_map(&ctx.models, |(key, model)| {
        let mut found = Vec::new();
        passes::model::model_graph_findings(key, model, &mut found);
        passes::model::round_trip_findings(key, model, &mut found);
        if deep {
            passes::deep::deep_model_findings(key, model, &mut found);
        }
        found
    });
    let mut diagnostics = ctx.load_diagnostics.clone();
    diagnostics.extend(per_model.into_iter().flatten());
    let global: [&dyn Pass; 9] = [
        &passes::model::ModelCostPass,
        &passes::index::IndexIntegrityPass,
        &passes::index::TrianglePass,
        &passes::index::FreshnessPass,
        &passes::plan::QueryPlanPass,
        &passes::stats::SnapshotStatsPass,
        &passes::binary::BinarySnapshotPass,
        &passes::epoch::SnapshotEpochPass,
        &passes::store::StoreHygienePass,
    ];
    for pass in global {
        pass.run(ctx, &mut diagnostics);
    }
    if deep {
        passes::deep::cross_artifact_findings(ctx, &mut diagnostics);
    }
    LintReport::from_diagnostics(diagnostics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_graph::{ModelBuilder, TaskKind};
    use sommelier_tensor::{Prng, Shape};

    fn ctx(n: usize) -> LintContext {
        let mut ctx = LintContext::new();
        for i in 0..n {
            let mut rng = Prng::seed_from_u64(i as u64);
            let m = ModelBuilder::new(format!("m{i}"), TaskKind::Other, Shape::vector(4))
                .dense(8, &mut rng)
                .relu()
                .dense(3, &mut rng)
                .softmax()
                .build()
                .unwrap();
            ctx.models.push((format!("m{i}"), m));
        }
        ctx
    }

    #[test]
    fn empty_context_lints_clean() {
        let report = run(&LintContext::new(), false, 1);
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
        let report = run(&ctx, false, 1);
        assert_eq!(report.max_severity(), Some(Severity::Error));
    }

    #[test]
    fn deep_families_run_only_when_asked() {
        // An all-zero dense layer: SOM006 from the graph family, and a
        // provably constant output (SOM084) from the dataflow family.
        let mut ctx = LintContext::new();
        let model = ModelBuilder::new("flat", TaskKind::Other, Shape::vector(4))
            .dense_with(sommelier_tensor::Tensor::zeros(4, 3), None)
            .softmax()
            .build()
            .unwrap();
        ctx.models.push(("flat".into(), model));
        let codes_of = |deep| -> Vec<String> {
            run(&ctx, deep, 1).diagnostics.into_iter().map(|d| d.code).collect()
        };
        assert_eq!(codes_of(false), [codes::ZERO_WEIGHTS]);
        let deep = codes_of(true);
        assert!(deep.iter().any(|c| c == codes::ZERO_WEIGHTS), "{deep:?}");
        assert!(deep.iter().any(|c| c == codes::CONSTANT_OUTPUT), "{deep:?}");
    }

    #[test]
    fn duplicate_content_under_two_keys_reports_both_keys() {
        let mut ctx = LintContext::new();
        // The same degenerate model stored under two keys: each key gets
        // its own findings.
        let build = || {
            ModelBuilder::new("dup", TaskKind::Other, Shape::vector(4))
                .dense_with(sommelier_tensor::Tensor::zeros(4, 3), None)
                .softmax()
                .build()
                .unwrap()
        };
        ctx.models.push(("first".into(), build()));
        ctx.models.push(("second".into(), build()));
        let report = run(&ctx, true, 1);
        let targets: Vec<&str> = report
            .diagnostics
            .iter()
            .map(|d| d.target.as_str())
            .collect();
        assert!(targets.contains(&"model 'first'"), "{targets:?}");
        assert!(targets.contains(&"model 'second'"), "{targets:?}");
    }

    #[test]
    fn reports_are_identical_across_job_counts() {
        let ctx = ctx(6);
        for deep in [false, true] {
            let r1 = run(&ctx, deep, 1);
            let r4 = run(&ctx, deep, 4);
            let r8 = run(&ctx, deep, 8);
            assert_eq!(r1.to_json(), r4.to_json());
            assert_eq!(r4.to_json(), r8.to_json());
        }
    }
}
