//! The read path (paper Section 5.4). A [`SommelierReader`] pins the
//! published [`EngineSnapshot`] and runs parse → plan → semantic filter
//! → resource filter → selection against it, memoized by the
//! plan/result cache. It never changes what it pinned.

use super::{BatchQueryItem, EngineSnapshot, QueryError, QueryResult, SommelierConfig};
use crate::ast::{FinalSelection, Query, RefSpec};
use crate::parser::parse;
use crate::plan::{plan, QueryPlan};
use crate::plancache::{normalize_query, PlanCache, PlanCacheStats};
use sommelier_index::{CandidateKind, CandidateRecord};
use sommelier_parallel::ThreadPool;
use sommelier_repo::ModelRepository;
use sommelier_runtime::metrics::counters::CachedCounter;
use sommelier_runtime::metrics::latency;
use sommelier_runtime::{DeviceProfile, ExecSetting, ResourceProfile};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

// The read path's metrics, resolved once: a served query takes no
// registry lock and allocates no name.
static SNAPSHOT_EPOCH: CachedCounter = CachedCounter::new("query.snapshot_epoch");
static CANDIDATES_SCORED: CachedCounter = CachedCounter::new("query.candidates_scored");
static BATCH_MS: OnceLock<Arc<latency::Histogram>> = OnceLock::new();

/// The read side of the engine.
///
/// A reader holds the published-snapshot slot, the worker pool, and the
/// plan/result cache — all behind `Arc`s — so it is `Clone + Send +
/// Sync` and can be handed to any number of serving threads. Queries
/// pin the current [`EngineSnapshot`] and execute against it without
/// holding any lock: the slot's mutex is held for one `Arc` clone (a
/// pin) or one `Arc` swap (a publish), so a concurrent reindex never
/// waits on an in-flight query, nor a query on a reindex.
#[derive(Clone)]
pub struct SommelierReader {
    pub(super) repo: Arc<dyn ModelRepository>,
    published: Arc<Mutex<Arc<EngineSnapshot>>>,
    pub(super) pool: Arc<ThreadPool>,
    plan_cache: Arc<PlanCache>,
    pub(super) config: SommelierConfig,
}

impl SommelierReader {
    /// A reader whose slot holds `current` until the writer's first swap.
    pub(super) fn new(
        repo: Arc<dyn ModelRepository>,
        current: &Arc<EngineSnapshot>,
        config: SommelierConfig,
    ) -> Self {
        SommelierReader {
            repo,
            published: Arc::new(Mutex::new(Arc::clone(current))),
            pool: Arc::new(ThreadPool::new(sommelier_parallel::effective_jobs(
                config.jobs,
            ))),
            plan_cache: Arc::new(PlanCache::new(config.query_cache_cap)),
            config,
        }
    }

    /// Pin the currently published snapshot. The returned `Arc` stays
    /// valid (and internally consistent) for as long as the caller
    /// holds it, regardless of concurrent publications.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        Arc::clone(&self.slot())
    }

    /// The published-snapshot slot. Every update is one whole-`Arc` swap,
    /// so a guard recovered from a poisoned lock still holds a snapshot.
    pub(super) fn slot(&self) -> MutexGuard<'_, Arc<EngineSnapshot>> {
        self.published.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// A reader driving the same engine through its own pool of `jobs`
    /// lanes (`0` = auto) — the snapshot cell and plan cache stay
    /// shared, so results are identical at any lane count.
    pub fn with_pool(&self, jobs: usize) -> Self {
        let mut reader = self.clone();
        reader.pool = Arc::new(ThreadPool::new(sommelier_parallel::effective_jobs(jobs)));
        reader
    }

    /// Worker lanes this reader fans batches across.
    pub fn jobs(&self) -> usize {
        self.pool.jobs()
    }

    /// Counters of the plan/result cache; also publishes them to the
    /// process-wide metrics registry (`plan_cache.*`).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.publish_metrics();
        self.plan_cache.stats()
    }

    /// Execute a textual query against the current snapshot.
    pub fn query(&self, text: &str) -> Result<Vec<QueryResult>, QueryError> {
        let snap = self.snapshot();
        SNAPSHOT_EPOCH.set(snap.epoch);
        self.query_on(&snap, text)
    }

    /// Execute a programmatically built query against the current
    /// snapshot (bypasses the text-keyed plan cache).
    pub fn query_ast(&self, query: &Query) -> Result<Vec<QueryResult>, QueryError> {
        let snap = self.snapshot();
        SNAPSHOT_EPOCH.set(snap.epoch);
        self.query_ast_cached(&snap, query, None)
    }

    /// Execute a batch of textual queries, fanned across the reader's
    /// pool. The whole batch pins *one* snapshot, so every item is
    /// served from the same epoch; per-lane latency is merged into the
    /// mergeable `query.batch_ms` histogram — one batched merge, not
    /// one registry-lock acquisition per item — so concurrent readers
    /// (the serving daemon) aggregate tail latency without contending.
    /// Items come back in input order, and the result sets are
    /// identical at any lane count.
    pub fn query_batch(&self, texts: &[String]) -> Vec<BatchQueryItem> {
        let snap = self.snapshot();
        SNAPSHOT_EPOCH.set(snap.epoch);
        let items = self.pool.par_map(texts, |text| {
            let start = Instant::now();
            let results = self.query_on(&snap, text);
            BatchQueryItem {
                results,
                latency_ms: start.elapsed().as_secs_f64() * 1e3,
                epoch: snap.epoch,
            }
        });
        let mut local = latency::LocalRecorder::new();
        for item in &items {
            local.record(item.latency_ms);
        }
        local.flush_into(BATCH_MS.get_or_init(|| latency::histogram("query.batch_ms")));
        items
    }

    /// The text-keyed hot path: probe the plan/result cache before
    /// even parsing — a hit skips the parser, planner, and both index
    /// filters outright (the memoized result is exact: the snapshot is
    /// immutable and execution is deterministic).
    fn query_on(
        &self,
        snap: &EngineSnapshot,
        text: &str,
    ) -> Result<Vec<QueryResult>, QueryError> {
        let normalized = normalize_query(text);
        if let Some(results) = self.plan_cache.get(snap.epoch, &normalized) {
            return Ok(results);
        }
        let ast = parse(&normalized)?;
        self.query_ast_cached(snap, &ast, Some(&normalized))
    }

    fn query_ast_cached(
        &self,
        snap: &EngineSnapshot,
        query: &Query,
        cache_text: Option<&str>,
    ) -> Result<Vec<QueryResult>, QueryError> {
        let reference_key = match &query.reference {
            RefSpec::Named(k) => {
                if !snap.semantic.contains(k) {
                    return Err(QueryError::UnknownReference(k.clone()));
                }
                k.as_str()
            }
            RefSpec::Task(t) => snap
                .default_refs
                .get(t)
                .ok_or(QueryError::NoDefaultReference(*t))?,
        };
        // An EXEC clause overrides the indexed profiles: models are
        // re-profiled under the requested execution setting (paper
        // Section 5.3: hardware-dependent metrics are collected per
        // platform; Figure 7's exec-spec). Live re-profiling reads the
        // repository — which sits outside the snapshot — so EXEC
        // queries are never cached.
        if let Some(setting) = self.exec_setting_of(query)? {
            let ref_model = self.repo.load(reference_key)?;
            let ref_profile = ResourceProfile::under(&ref_model, &setting);
            let plan = plan(query, reference_key, &ref_profile);
            return Ok(self.execute_plan(snap, &plan, &ref_profile, Some(&setting)));
        }
        let ref_profile = *snap
            .resource
            .profile_of(reference_key)
            .ok_or_else(|| QueryError::UnknownReference(reference_key.to_string()))?;
        let plan = plan(query, reference_key, &ref_profile);
        let results = self.execute_plan(snap, &plan, &ref_profile, None);
        if let Some(text) = cache_text {
            self.plan_cache.insert(snap.epoch, text, results.clone());
        }
        Ok(results)
    }

    /// Parse the query's `EXEC` clause into an execution setting.
    /// Recognized keys: `device` (`cpu` / `gpu` / `edge`), `batch`
    /// (positive integer), `workspace` (finite float multiplier ≥ 1).
    fn exec_setting_of(&self, query: &Query) -> Result<Option<ExecSetting>, QueryError> {
        if query.exec_spec.is_empty() {
            return Ok(None);
        }
        let mut setting = self.config.exec_setting.clone();
        for (key, value) in &query.exec_spec {
            match key.as_str() {
                "device" => {
                    setting.device = match value.as_str() {
                        "cpu" => DeviceProfile::cpu(),
                        "gpu" => DeviceProfile::gpu(),
                        "edge" => DeviceProfile::edge(),
                        other => {
                            return Err(QueryError::Analysis(format!(
                                "unknown EXEC device '{other}' (expected cpu/gpu/edge)"
                            )))
                        }
                    }
                }
                "batch" => {
                    setting.batch_size = value.parse::<usize>().ok().filter(|&b| b >= 1).ok_or_else(
                        || {
                            QueryError::Analysis(format!(
                                "EXEC batch must be a positive integer, got '{value}'"
                            ))
                        },
                    )?;
                }
                "workspace" => {
                    setting.workspace_factor = value.parse::<f64>().ok().filter(|w| w.is_finite() && *w >= 1.0).ok_or_else(|| {
                        QueryError::Analysis(format!(
                            "EXEC workspace must be a finite multiplier >= 1, got '{value}'"
                        ))
                    })?;
                }
                other => {
                    return Err(QueryError::Analysis(format!(
                        "unknown EXEC setting '{other}' (expected device/batch/workspace)"
                    )))
                }
            }
        }
        Ok(Some(setting))
    }

    fn execute_plan(
        &self,
        snap: &EngineSnapshot,
        plan: &QueryPlan,
        ref_profile: &ResourceProfile,
        setting: Option<&ExecSetting>,
    ) -> Vec<QueryResult> {
        // Statically empty plans short-circuit before touching either
        // index: a zero limit returns nothing by definition, and scores
        // live in [0, 1] so a threshold above 1 admits nothing.
        if plan.limit == 0 || plan.min_score > 1.0 {
            return Vec::new();
        }
        // Stage 1: semantic filter — an early-exit threshold scan over
        // the entry's score-sorted candidate list.
        let candidates: Vec<_> = snap
            .semantic
            .lookup_key(&plan.reference_key, plan.min_score)
            .into_iter()
            .filter(|c| c.key != plan.reference_key)
            .collect();
        CANDIDATES_SCORED.add(candidates.len() as u64);
        // No semantic candidates ⇒ no results; skip the resource probe.
        if candidates.is_empty() {
            return Vec::new();
        }

        // Stage 2: resource filter — work proportional to the candidate
        // list, never to the repository: one O(1) `profile_of` probe per
        // candidate, tested against the bounds. The range index is not
        // consulted (`index.resource.range_scans` stays flat). With an
        // explicit execution setting each candidate is instead loaded
        // and re-profiled — an independent task worth fanning out;
        // `par_map` keeps candidate order, so results are identical to
        // the sequential pipeline.
        let profile_of = |key: &str| -> Option<ResourceProfile> {
            match setting {
                Some(s) => {
                    let model = self.repo.load(key).ok()?;
                    Some(ResourceProfile::under(&model, s))
                }
                None => snap.resource.profile_of(key).copied(),
            }
        };
        // Admission pairs a borrowed record with its profile; only the
        // pairs that survive the sort and the cut become results.
        let admit = |c: &CandidateRecord| -> Option<ResourceProfile> {
            let profile = match &c.kind {
                // Synthesized models share the host's (= reference's)
                // structure, hence its resource profile.
                CandidateKind::Synthesized { .. } => *ref_profile,
                _ => profile_of(&c.key)?,
            };
            plan.constraint.admits(&profile).then_some(profile)
        };
        let mut admitted = Vec::with_capacity(candidates.len());
        match setting {
            Some(_) => admitted.extend(
                candidates
                    .iter()
                    .copied()
                    .zip(self.pool.par_map(&candidates, |c| admit(c)))
                    .filter_map(|(c, profile)| Some((c, profile?))),
            ),
            None => admitted.extend(candidates.iter().filter_map(|&c| Some((c, admit(c)?)))),
        }

        // Stage 3: final selection, a stable sort cut at the limit.
        // Sorting uses `total_cmp` so the pipeline never panics on
        // non-finite scores or profiles (a corrupted snapshot is the
        // lint layer's problem to report, not a reason to abort query
        // execution).
        match plan.selection {
            FinalSelection::Similarity => {
                admitted.sort_by(|(a, _), (b, _)| b.score.total_cmp(&a.score))
            }
            FinalSelection::Memory => {
                admitted.sort_by(|(_, a), (_, b)| a.memory_mb.total_cmp(&b.memory_mb))
            }
            FinalSelection::Flops => {
                admitted.sort_by(|(_, a), (_, b)| a.gflops.total_cmp(&b.gflops))
            }
            FinalSelection::Latency => {
                admitted.sort_by(|(_, a), (_, b)| a.latency_ms.total_cmp(&b.latency_ms))
            }
        }
        admitted.truncate(plan.limit);
        admitted
            .into_iter()
            .map(|(c, profile)| QueryResult {
                key: c.key.clone(),
                score: c.score,
                diff_bound: c.diff_bound,
                profile,
                kind: c.kind.clone(),
            })
            .collect()
    }
}
