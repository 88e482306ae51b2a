//! The write path (paper Sections 5.2 and 6). A [`MutationBatch`] is
//! checked whole, stored, analyzed in one fan-out over a clone of the
//! current snapshot, and published as the next epoch. The publish is
//! private to this file, so every new epoch goes through it.

use super::analyzer::{EquivAnalyzer, Subject};
use super::reader::SommelierReader;
use super::{CacheStatsShim, EngineSnapshot, QueryError, QueryResult, SommelierConfig};
use crate::plancache::PlanCacheStats;
use sommelier_graph::{Fingerprint, Model, TaskKind};
use sommelier_index::{ResourceIndex, SemanticIndex};
use sommelier_repo::{check_publishable, ModelRepository, RepoError};
use sommelier_runtime::ResourceProfile;
use std::collections::HashMap;
use std::sync::Arc;

/// Make `key` the default reference of `task` unless a smaller key
/// already is: a task's default reference is its smallest indexed key.
pub(super) fn keep_smallest(refs: &mut HashMap<TaskKind, String>, task: TaskKind, key: &str) {
    match refs.get_mut(&task) {
        Some(current) if current.as_str() <= key => {}
        Some(current) => *current = key.to_string(),
        None => {
            refs.insert(task, key.to_string());
        }
    }
}

/// A coalesced set of registrations and unregistrations, applied by
/// [`Sommelier::apply`] as *one* logical mutation: one pairwise-analysis
/// fan-out over the pool, one snapshot publication, one epoch bump —
/// however many models it touches.
///
/// A key appearing in both lists is a replacement (remove + add in the
/// same batch); the repository copy is overwritten.
#[derive(Clone, Debug, Default)]
pub struct MutationBatch {
    removes: Vec<String>,
    adds: Vec<Model>,
}

impl MutationBatch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a key for unregistration. The repository file stays in
    /// place, so a later batch can register it again.
    pub fn unregister(mut self, key: impl Into<String>) -> Self {
        self.removes.push(key.into());
        self
    }

    /// Queue a model for registration — or replacement, when its name is
    /// also queued for unregistration.
    pub fn register(mut self, model: Model) -> Self {
        self.adds.push(model);
        self
    }

    pub fn is_empty(&self) -> bool {
        self.removes.is_empty() && self.adds.is_empty()
    }
}

/// The Sommelier query engine.
///
/// The engine is split along the read/write axis: a mutation clones the
/// [`EngineSnapshot`] this engine last published, applies the batch to
/// the clone and publishes it with one `Arc` swap, while all query
/// execution lives on the [`SommelierReader`] — clone it via
/// [`Sommelier::reader`] to serve queries from other threads while this
/// handle keeps registering. The repository, pool and config are the
/// reader's.
pub struct Sommelier {
    /// The snapshot this engine last published: its only copy of the
    /// indices, the default references and the epoch.
    current: Arc<EngineSnapshot>,
    analyzer: EquivAnalyzer,
    /// Task kind per indexed key — the metadata mutations need (default
    /// reference re-derivation) without touching the repository.
    tasks: HashMap<String, TaskKind>,
    /// On-disk encoding that served the restored indices (`None` when
    /// the engine was built fresh rather than loaded from a snapshot).
    snapshot_format: Option<sommelier_index::SnapshotFormat>,
    /// The read side; holds the published-snapshot cell.
    reader: SommelierReader,
}

impl Sommelier {
    /// Build the engine around a prepared snapshot, publishing it as the
    /// initial one.
    pub(super) fn assemble(
        repo: Arc<dyn ModelRepository>,
        config: SommelierConfig,
        snapshot: EngineSnapshot,
        tasks: HashMap<String, TaskKind>,
    ) -> Self {
        let current = Arc::new(snapshot);
        let analyzer = EquivAnalyzer::new(
            config.equiv,
            config.segment_epsilon,
            config.validation_rows,
            config.seed,
        );
        let reader = SommelierReader::new(repo, &current, config);
        Sommelier {
            current,
            analyzer,
            tasks,
            snapshot_format: None,
            reader,
        }
    }

    /// Publish `next` as the following epoch. Every mutator ends here;
    /// in-flight queries keep their pinned epoch and new queries pick
    /// this one up. The slot's lock covers the swap alone: the retired
    /// snapshot is released after the unlock, so a pin never waits on
    /// its drop.
    fn publish_snapshot(&mut self, mut next: EngineSnapshot) {
        next.epoch += 1;
        self.current = Arc::new(next);
        // The slot's guard is a temporary: it unlocks at the end of this
        // statement, before `retired` drops.
        let retired = std::mem::replace(&mut *self.reader.slot(), Arc::clone(&self.current));
        drop(retired);
    }

    /// Number of indexed models.
    pub fn len(&self) -> usize {
        self.current.semantic.len()
    }

    pub fn is_empty(&self) -> bool {
        self.current.semantic.is_empty()
    }

    /// Immutable access to the semantic index (for inspection/experiments).
    pub fn semantic_index(&self) -> &SemanticIndex {
        &self.current.semantic
    }

    /// Immutable access to the resource index.
    pub fn resource_index(&self) -> &ResourceIndex {
        &self.current.resource
    }

    /// Worker lanes this engine runs on.
    pub fn jobs(&self) -> usize {
        self.reader.jobs()
    }

    /// The current publication epoch (bumped by every mutation).
    pub fn epoch(&self) -> u64 {
        self.current.epoch
    }

    /// The on-disk encoding the restored indices were served from:
    /// `Some` after a snapshot load (or post-rebuild resave), `None` on
    /// an engine built fresh in memory.
    pub fn snapshot_format(&self) -> Option<sommelier_index::SnapshotFormat> {
        self.snapshot_format
    }

    /// Record the encoding the indices were loaded from or resaved in.
    pub(super) fn set_snapshot_format(&mut self, format: sommelier_index::SnapshotFormat) {
        self.snapshot_format = Some(format);
    }

    /// A handle to the read side. Clone freely across
    /// threads; every clone serves from whatever snapshot is current
    /// when it queries, and keeps working while this engine mutates.
    pub fn reader(&self) -> SommelierReader {
        self.reader.clone()
    }

    /// Counters of the plan/result cache (also published as
    /// `plan_cache.*` metrics).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.reader.plan_cache_stats()
    }

    // Kept for `benchmark/src/curate.rs:491`, which no product PR may
    // edit; delete with ROADMAP item 1.
    #[doc(hidden)]
    pub fn cache_stats(&self) -> CacheStatsShim {
        CacheStatsShim::default()
    }

    /// Publish a model to the repository and index it: a one-model
    /// [`Sommelier::apply`].
    pub fn register(&mut self, model: &Model) -> Result<(), QueryError> {
        self.apply(MutationBatch::new().register(model.clone()))
            .map(drop)
    }

    /// Apply a coalesced mutation batch: one pairwise-analysis fan-out,
    /// one snapshot publication, one epoch bump — no matter how many
    /// models it registers, replaces, or unregisters. Additions publish
    /// to the repository (overwriting when the same key is also queued
    /// for removal — a replacement); removals leave the repository file
    /// in place. A batch that changes nothing publishes nothing and
    /// leaves the epoch untouched. A batch is checked whole before
    /// anything is written: one that adds a key twice, adds a key it
    /// does not remove that is indexed or still stored, or holds a model
    /// that [`check_publishable`] refuses writes nothing. Returns the
    /// number of effective mutations applied.
    pub fn apply(&mut self, batch: MutationBatch) -> Result<usize, QueryError> {
        let mut names: Vec<&str> = batch.adds.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(QueryError::DuplicateAdd(w[0].to_string()));
        }
        for model in &batch.adds {
            let key = &model.name;
            if !batch.removes.contains(key) {
                if self.current.semantic.contains(key) {
                    return Err(QueryError::AlreadyIndexed(key.clone()));
                }
                // A removal leaves the stored file, which only a replace
                // may overwrite: refuse here what the publish would.
                if !matches!(self.reader.repo.load(key), Err(RepoError::NotFound { .. })) {
                    return Err(RepoError::AlreadyExists { key: key.clone() }.into());
                }
            }
            check_publishable(key, model)?;
        }
        for model in &batch.adds {
            let overwrite = batch.removes.contains(&model.name);
            self.reader.repo.publish(&model.name, model, overwrite)?;
        }
        Ok(self.apply_indexed(&batch.removes, &batch.adds))
    }

    /// Index every repository model that is not yet indexed — the bulk
    /// build path: resource profiling and all sampled pairwise analyses
    /// fan out across the engine's pool with per-model task granularity,
    /// while index bookkeeping stays sequential in repository key order
    /// (so the result is byte-identical at any `jobs` setting).
    pub fn index_existing(&mut self) -> Result<usize, QueryError> {
        let mut models = Vec::new();
        // `try_keys`, not `keys`: a backend that cannot produce a
        // complete listing must fail the build, not silently index a
        // truncated repository.
        for key in self.reader.repo.try_keys()? {
            if self.current.semantic.contains(&key) {
                continue;
            }
            // The key is the identity: a model stored under another
            // name is indexed under its key.
            let mut model = self.reader.repo.load(&key)?;
            if model.name != key {
                model.name = key;
            }
            models.push(model);
        }
        Ok(self.apply_indexed(&[], &models))
    }

    /// Apply a checked batch to a clone of the current snapshot and
    /// publish it: the models are profiled on the pool, removals and
    /// insertions land in one semantic-index update (a single analysis
    /// fan-out), default references are maintained from indexed
    /// metadata with **zero repository reads**, and one snapshot is
    /// published. Returns the number of effective mutations; 0 means
    /// nothing changed and nothing was cloned or published.
    fn apply_indexed(&mut self, removes: &[String], models: &[Model]) -> usize {
        let current = &self.current;
        let mut indexed: Vec<&str> = removes
            .iter()
            .map(String::as_str)
            .filter(|k| current.semantic.contains(k))
            .collect();
        indexed.sort_unstable();
        indexed.dedup();
        let count = models.len() + indexed.len();
        let mutated = count > 0
            || removes
                .iter()
                .any(|k| current.resource.profile_of(k).is_some());
        if !mutated {
            return 0;
        }
        // An apply's one O(N) copy: the semantic entry map, one `Arc` bump
        // per entry. `by_key`, the edges and the profiles copy on write.
        let mut next = EngineSnapshot::clone(current);
        let (repo, pool) = (Arc::clone(&self.reader.repo), &self.reader.pool);
        let setting = &self.reader.config.exec_setting;
        let profiles = pool.par_map(models, |m| ResourceProfile::under(m, setting));
        let resolve = move |k: &str| repo.load(k).ok();
        let removed: Vec<Fingerprint> = removes
            .iter()
            .filter_map(|k| next.semantic.fingerprint_of(k))
            .collect();
        next.semantic
            .apply(pool, removes, models, &resolve, &self.analyzer);
        // A record leaves with its fingerprint's last key; an alias
        // keeps it.
        self.analyzer.forget(
            removed
                .into_iter()
                .filter(|fp| !next.semantic.contains_fingerprint(*fp)),
        );
        // A task's default reference is its smallest indexed key. A
        // removal that takes it re-derives it from the engine's own task
        // map, without reloading a single model.
        let mut orphaned = Vec::new();
        for key in removes {
            next.resource.remove(key);
            if let Some(task) = self.tasks.remove(key) {
                if next.default_refs.get(&task) == Some(key) {
                    next.default_refs.remove(&task);
                    orphaned.push(task);
                }
            }
        }
        if !orphaned.is_empty() {
            for (key, task) in &self.tasks {
                if orphaned.contains(task) {
                    keep_smallest(&mut next.default_refs, *task, key);
                }
            }
        }
        for (m, p) in models.iter().zip(profiles) {
            next.resource.insert(&m.name, p);
            self.tasks.insert(m.name.clone(), m.task);
            keep_smallest(&mut next.default_refs, m.task, &m.name);
        }
        self.publish_snapshot(next);
        count
    }

    /// Execute a textual query (paper Figure 7 syntax) against the
    /// current published snapshot.
    pub fn query(&self, text: &str) -> Result<Vec<QueryResult>, QueryError> {
        self.reader.query(text)
    }

    /// Materialize a query result into a runnable model.
    ///
    /// Plain keys load from the repository. Synthesized keys
    /// (`host+donor`, paper Section 5.2 case ii) are built on demand:
    /// the donor's matched segments are spliced into the host.
    pub fn materialize(&self, key: &str) -> Result<Model, QueryError> {
        if let Ok(model) = self.reader.repo.load(key) {
            return Ok(model);
        }
        let Some((host_key, donor_key)) = key.split_once('+') else {
            return Err(QueryError::UnknownReference(key.to_string()));
        };
        let host = self.reader.repo.load(host_key)?;
        let donor = self.reader.repo.load(donor_key)?;
        // The index certified the replacement when it recorded the
        // candidate; materialization just re-derives the structural match
        // and splices every matched segment.
        let segments =
            sommelier_equiv::segment::find_matched_segments(&host, &donor, 2);
        if segments.is_empty() {
            return Err(QueryError::Analysis(format!(
                "no structurally matched segments between '{host_key}' and '{donor_key}'"
            )));
        }
        let seg_refs: Vec<&sommelier_equiv::MatchedSegment> = segments.iter().collect();
        let mut model =
            sommelier_equiv::assessment::replace_segments(&host, &donor, &seg_refs);
        model.name = key.to_string();
        Ok(model)
    }

    /// Directly measure the empirical QoR difference between two
    /// registered models on the engine's probe — a convenience for
    /// experiments and the serving integration. A pair the I/O check
    /// rejects has no difference to measure: `QueryError::Analysis`.
    pub fn measure_diff(&self, reference: &str, candidate: &str) -> Result<f64, QueryError> {
        let a = self.reader.repo.load(reference)?;
        let b = self.reader.repo.load(candidate)?;
        let (a, b) = (Subject::held(&a), Subject::held(&b));
        let measured = self.analyzer.whole_pair(&a, &b);
        // Records are kept for indexed models only.
        self.analyzer.forget(
            [a.fp, b.fp]
                .into_iter()
                .filter(|fp| !self.current.semantic.contains_fingerprint(*fp)),
        );
        let [(empirical, _), _] = measured.map_err(|why| {
            QueryError::Analysis(format!(
                "'{reference}' and '{candidate}' are incomparable: {why}"
            ))
        })?;
        Ok(empirical)
    }
}
