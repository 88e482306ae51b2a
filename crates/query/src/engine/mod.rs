//! The `Sommelier` engine facade (paper Section 6).
//!
//! "Sommelier connects with a user-specified DNN model repository during
//! initialization \[and\] exposes a `query()` API in place of the original
//! interfaces between users and the model repository." Registration
//! publishes a model to the underlying repository, profiles its resources
//! under the configured execution setting, and inserts it into both
//! indices; queries are parsed, planned, and executed as the Section 5.4
//! filter pipeline.
//!
//! The engine is four files, one job each. `analyzer.rs` holds the
//! pairwise analysis behind registration, `reader.rs` the query path,
//! `writer.rs` the mutations, and `open.rs` connect, restore, recovery
//! and save. Only the writer publishes a snapshot: its swap and the
//! reader's pin are the only touches of the published slot.

mod analyzer;
mod open;
mod reader;
mod writer;

pub use analyzer::EquivAnalyzer;
pub use reader::SommelierReader;
pub use writer::{MutationBatch, Sommelier};

use crate::parser::ParseError;
use serde::Value;
use sommelier_equiv::EquivConfig;
use sommelier_graph::TaskKind;
use sommelier_index::semantic::SemanticIndexConfig;
use sommelier_index::{CandidateKind, ResourceIndex, SemanticIndex};
use sommelier_repo::RepoError;
use sommelier_runtime::{ExecSetting, ResourceProfile};
use std::collections::HashMap;
use std::fmt;

/// Engine configuration (the knob surface of paper Section 5.5).
#[derive(Clone, Debug)]
pub struct SommelierConfig {
    /// Whole-model equivalence settings (threshold is per-query; this
    /// carries the generalization-bound mode).
    pub equiv: EquivConfig,
    /// Acceptable QoR difference for segment replacements recorded as
    /// synthesized candidates.
    pub segment_epsilon: f64,
    /// Semantic index knobs (sampling, segment analysis on/off).
    pub index: SemanticIndexConfig,
    /// Rows in the seeded validation probe used for pairwise analysis.
    pub validation_rows: usize,
    /// Execution setting under which resource profiles are taken.
    pub exec_setting: ExecSetting,
    /// Master seed for probes and index sampling.
    pub seed: u64,
    /// Worker lanes for index construction and query execution.
    /// `1` = fully sequential (bit-for-bit reference behavior), `0` =
    /// auto-detect available parallelism.
    pub jobs: usize,
    /// Plan/result cache capacity in entries (the read path's memo of
    /// resolved plans and result sets, keyed by normalized query text
    /// and snapshot epoch); `0` disables query caching.
    pub query_cache_cap: usize,
}

impl Default for SommelierConfig {
    fn default() -> Self {
        SommelierConfig {
            equiv: EquivConfig::default(),
            segment_epsilon: 0.10,
            index: SemanticIndexConfig::default(),
            validation_rows: 256,
            exec_setting: ExecSetting::default_cpu(),
            seed: 0x50_4d_4d_31,
            jobs: 1,
            query_cache_cap: 1024,
        }
    }
}

/// One query answer.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResult {
    /// Model key (a repository key, or `host+donor` for synthesized
    /// models).
    pub key: String,
    /// Functional-equivalence score to the reference.
    pub score: f64,
    /// QoR difference bound behind the score.
    pub diff_bound: f64,
    /// The candidate's resource profile.
    pub profile: ResourceProfile,
    /// Relation provenance (whole / transitive / synthesized).
    pub kind: CandidateKind,
}

fn kind_value(kind: &CandidateKind) -> Value {
    match kind {
        CandidateKind::Whole => Value::Str("whole".to_string()),
        CandidateKind::Transitive { via } => Value::Map(vec![
            ("transitive".to_string(), Value::Bool(true)),
            ("via".to_string(), Value::Str(via.clone())),
        ]),
        CandidateKind::Synthesized { donor } => Value::Map(vec![
            ("synthesized".to_string(), Value::Bool(true)),
            ("donor".to_string(), Value::Str(donor.clone())),
        ]),
    }
}

fn result_value(r: &QueryResult) -> Value {
    Value::Map(vec![
        ("key".to_string(), Value::Str(r.key.clone())),
        ("score".to_string(), Value::Float(r.score)),
        ("diff_bound".to_string(), Value::Float(r.diff_bound)),
        ("memory_mb".to_string(), Value::Float(r.profile.memory_mb)),
        ("gflops".to_string(), Value::Float(r.profile.gflops)),
        ("latency_ms".to_string(), Value::Float(r.profile.latency_ms)),
        ("kind".to_string(), kind_value(&r.kind)),
    ])
}

/// Query/processing failures.
#[derive(Debug)]
pub enum QueryError {
    /// The query text failed to parse.
    Parse(ParseError),
    /// The named reference model is not registered.
    UnknownReference(String),
    /// No default reference is registered for the task.
    NoDefaultReference(TaskKind),
    /// Repository failure during registration.
    Repo(RepoError),
    /// The model could not be analyzed (e.g. failed execution).
    Analysis(String),
    /// A mutation batch adds the same key twice.
    DuplicateAdd(String),
    /// A mutation batch adds an indexed key without removing it.
    AlreadyIndexed(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::UnknownReference(k) => {
                write!(f, "reference model '{k}' is not registered")
            }
            QueryError::NoDefaultReference(t) => {
                write!(f, "no default reference model for task '{t}'")
            }
            QueryError::Repo(e) => write!(f, "{e}"),
            QueryError::Analysis(e) => write!(f, "analysis failed: {e}"),
            QueryError::DuplicateAdd(k) => write!(f, "the batch adds '{k}' twice"),
            QueryError::AlreadyIndexed(k) => {
                write!(
                    f,
                    "'{k}' is already indexed and the batch does not remove it"
                )
            }
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ParseError> for QueryError {
    fn from(e: ParseError) -> Self {
        QueryError::Parse(e)
    }
}

impl From<RepoError> for QueryError {
    fn from(e: RepoError) -> Self {
        QueryError::Repo(e)
    }
}

/// How [`Sommelier::connect_or_recover`] brought the engine up.
#[derive(Debug)]
pub enum SnapshotRecovery {
    /// The persisted snapshot loaded cleanly.
    Loaded,
    /// No snapshot existed (or it vanished); indices were rebuilt from
    /// the repository.
    RebuiltMissing,
    /// The snapshot was unreadable: it was quarantined to the contained
    /// path and the indices were rebuilt from the repository.
    RebuiltQuarantined(std::path::PathBuf),
}

impl SnapshotRecovery {
    /// Whether the indices had to be rebuilt.
    pub fn rebuilt(&self) -> bool {
        !matches!(self, SnapshotRecovery::Loaded)
    }
}

#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStatsShim {
    pub hits: u64,
    pub misses: u64,
}

/// An immutable, atomically published view of the engine's queryable
/// state: both indices, the default references, and the publication
/// epoch that stamps them as one consistent generation.
///
/// Mutations never touch a published snapshot: the engine clones the
/// one it last published, applies the batch to the clone and swaps that
/// into the reader's slot, so a query pins exactly one epoch for its
/// whole lifetime and can never observe a half-applied registration.
#[derive(Clone)]
pub struct EngineSnapshot {
    /// The semantic index at this epoch.
    pub semantic: SemanticIndex,
    /// The resource index at this epoch.
    pub resource: ResourceIndex,
    /// Default reference model per task at this epoch.
    pub default_refs: HashMap<TaskKind, String>,
    /// Publication generation: the count of index mutations published
    /// since the engine connected (deterministic — a pure function of
    /// the mutation sequence, never of scheduling).
    pub epoch: u64,
}

/// One lane's answer from [`SommelierReader::query_batch`].
#[derive(Debug)]
pub struct BatchQueryItem {
    /// The query's result set (or its failure).
    pub results: Result<Vec<QueryResult>, QueryError>,
    /// Wall-clock execution time of this lane, milliseconds.
    pub latency_ms: f64,
    /// The snapshot epoch the query was served from. Every item of one
    /// batch carries the same epoch — the batch pins one snapshot.
    pub epoch: u64,
}

impl BatchQueryItem {
    /// The JSON fields of one answered lane — epoch, latency, and the
    /// results or the error text: each item of `query --format json`.
    /// The daemon writes the same members straight from the item,
    /// without this tree; a proptest there holds the two byte for byte.
    pub fn fields(&self) -> Vec<(String, Value)> {
        let mut fields = vec![
            ("epoch".to_string(), Value::UInt(self.epoch)),
            ("latency_ms".to_string(), Value::Float(self.latency_ms)),
        ];
        match &self.results {
            Ok(results) => fields.push((
                "results".to_string(),
                Value::Seq(results.iter().map(result_value).collect()),
            )),
            Err(e) => fields.push(("error".to_string(), Value::Str(e.to_string()))),
        }
        fields
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Query;
    use sommelier_equiv::genbound::architecture_factor;
    use sommelier_equiv::iocheck::PREPROCESSOR_KEY;
    use sommelier_equiv::whole::GenBoundMode;
    use sommelier_graph::task::OutputStyle;
    use sommelier_graph::{Fingerprint, Model, ModelBuilder};
    use sommelier_index::PairAnalyzer;
    use sommelier_repo::{InMemoryRepository, ModelRepository};
    use sommelier_runtime::metrics::counters;
    use sommelier_tensor::{Prng, Shape, Tensor};
    use std::borrow::Cow;
    use std::sync::Arc;
    use sommelier_zoo::families::{Family, FamilyScale};
    use sommelier_zoo::finetune::perturb_all;
    use sommelier_zoo::teacher::{DatasetBias, Teacher};

    fn engine_with_variants() -> (Sommelier, Vec<String>) {
        variants_on(Arc::new(InMemoryRepository::new()))
    }

    fn variants_on(repo: Arc<dyn ModelRepository>) -> (Sommelier, Vec<String>) {
        let teacher = Teacher::for_task(TaskKind::ImageRecognition, 51);
        let bias = DatasetBias::new(&teacher, "imagenet", 0.05);
        let mut cfg = SommelierConfig {
            validation_rows: 128,
            ..SommelierConfig::default()
        };
        cfg.index.sample_size = 16; // small pool: analyze everything
        let mut engine = Sommelier::connect(repo, cfg);
        let mut rng = Prng::seed_from_u64(1);
        let mut names = Vec::new();
        // A ladder of sizes: accurate-and-big down to cheap-and-small.
        for (i, width_factor) in [1.5, 1.0, 0.75, 0.5].into_iter().enumerate() {
            let name = format!("resnetish-v{i}");
            let mut frng = rng.fork();
            let m = Family::Resnetish.build_scaled(
                &name,
                &teacher,
                &bias,
                &FamilyScale::new(width_factor, 3 + i, 0.01),
                &mut frng,
            );
            engine.register(&m).unwrap();
            names.push(name);
        }
        (engine, names)
    }

    /// Remove `key` in a batch of its own; the mutations applied.
    fn unregister(engine: &mut Sommelier, key: &str) -> usize {
        engine.apply(MutationBatch::new().unregister(key)).unwrap()
    }

    /// Replace the model stored under `model.name`: remove and add in
    /// one batch. The mutations applied.
    fn replace(engine: &mut Sommelier, model: &Model) -> usize {
        let batch = MutationBatch::new()
            .unregister(&model.name)
            .register(model.clone());
        engine.apply(batch).unwrap()
    }

    #[test]
    fn register_and_lookup_round_trip() {
        let (engine, names) = engine_with_variants();
        assert_eq!(engine.len(), 4);
        for n in &names {
            assert!(engine.semantic_index().contains(n));
            assert!(engine.resource_index().profile_of(n).is_some());
        }
    }

    #[test]
    fn query_returns_equivalent_cheaper_model() {
        let (engine, names) = engine_with_variants();
        let q = format!(
            "SELECT model CORR {} ON memory <= 90% WITHIN 0.5 ORDER BY similarity",
            names[0]
        );
        let results = engine.query(&q).unwrap();
        assert!(!results.is_empty(), "no results");
        let top = &results[0];
        assert_ne!(top.key, names[0]);
        let ref_mem = engine
            .resource_index()
            .profile_of(&names[0])
            .unwrap()
            .memory_mb;
        assert!(top.profile.memory_mb <= 0.9 * ref_mem);
        assert!(top.score >= 0.5);
    }

    #[test]
    fn order_by_memory_prefers_cheapest() {
        let (engine, names) = engine_with_variants();
        let q = format!(
            "SELECT models 3 CORR {} WITHIN 0.3 ORDER BY memory",
            names[0]
        );
        let results = engine.query(&q).unwrap();
        assert!(results.len() >= 2);
        assert!(results
            .windows(2)
            .all(|w| w[0].profile.memory_mb <= w[1].profile.memory_mb));
    }

    #[test]
    fn unknown_reference_is_an_error() {
        let (engine, _) = engine_with_variants();
        let err = engine.query("SELECT model CORR ghost").unwrap_err();
        assert!(matches!(err, QueryError::UnknownReference(_)));
    }

    #[test]
    fn task_reference_uses_default() {
        let (engine, names) = engine_with_variants();
        let results = engine
            .query("SELECT models 2 CORR TASK image-recognition WITHIN 0.3")
            .unwrap();
        assert!(!results.is_empty());
        // Default reference is the task's smallest key; it must not be
        // returned as its own equivalent.
        assert!(results.iter().all(|r| r.key != names[0]));
    }

    #[test]
    fn default_reference_is_the_smallest_key_live_and_restored() {
        // Registered out of key order: the live engine and one restored
        // from its snapshot must answer `CORR TASK` from the same model.
        let teacher = Teacher::for_task(TaskKind::ImageRecognition, 51);
        let bias = DatasetBias::new(&teacher, "imagenet", 0.05);
        let mut cfg = SommelierConfig {
            validation_rows: 128,
            ..SommelierConfig::default()
        };
        cfg.index.sample_size = 16;
        let mut engine = Sommelier::connect(Arc::new(InMemoryRepository::new()), cfg.clone());
        let mut rng = Prng::seed_from_u64(5);
        for (name, width) in [("zeta", 1.0), ("alpha", 0.75)] {
            let mut frng = rng.fork();
            let scale = FamilyScale::new(width, 3, 0.01);
            let m = Family::Resnetish.build_scaled(name, &teacher, &bias, &scale, &mut frng);
            engine.register(&m).unwrap();
        }
        let q = "SELECT models 10 CORR TASK image-recognition WITHIN 0.0";
        let live = engine.query(q).unwrap();
        assert_eq!(
            live,
            engine
                .query("SELECT models 10 CORR alpha WITHIN 0.0")
                .unwrap()
        );
        let path = std::env::temp_dir().join(format!(
            "somm-engine-default-ref-{}.json",
            std::process::id()
        ));
        engine.save_indices(&path).unwrap();
        let restored =
            Sommelier::connect_with_indices(engine.reader().repo.clone(), cfg, &path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(restored.query(q).unwrap(), live);
    }

    #[test]
    fn apply_refuses_a_conflicting_batch_before_writing() {
        let (mut engine, names) = engine_with_variants();
        let (epoch, reader) = (engine.epoch(), engine.reader());
        let stored = |engine: &Sommelier| {
            let keys = engine.reader().repo.keys();
            let load = |k: &String| engine.reader().repo.load(k).unwrap();
            let models: Vec<Model> = keys.iter().map(load).collect();
            (keys, models)
        };
        let before = stored(&engine);
        let original = engine.reader().repo.load(&names[0]).unwrap();
        let mut other = engine.reader().repo.load(&names[1]).unwrap();
        other.name = names[0].clone();
        let mut fresh = original.clone();
        fresh.name = "fresh".into();

        // A replace that adds its key twice.
        let batch = MutationBatch::new()
            .unregister(&names[0])
            .register(other.clone())
            .register(other);
        let err = engine.apply(batch).unwrap_err();
        assert!(
            matches!(&err, QueryError::DuplicateAdd(k) if k == &names[0]),
            "{err}"
        );
        // A new key added twice.
        let batch = MutationBatch::new()
            .register(fresh.clone())
            .register(fresh.clone());
        let err = engine.apply(batch).unwrap_err();
        assert!(
            matches!(&err, QueryError::DuplicateAdd(k) if k == "fresh"),
            "{err}"
        );
        // A new key beside an indexed key the batch does not remove.
        let batch = MutationBatch::new()
            .register(fresh.clone())
            .register(original.clone());
        let err = engine.apply(batch).unwrap_err();
        assert!(
            matches!(&err, QueryError::AlreadyIndexed(k) if k == &names[0]),
            "{err}"
        );
        assert!(err.to_string().contains(&names[0]));
        // A model `check_publishable` refuses.
        let mut broken = fresh.clone();
        broken.input_shape = Shape::vector(broken.input_width() + 1);
        let err = engine
            .apply(MutationBatch::new().register(broken))
            .unwrap_err();
        assert!(
            matches!(&err, QueryError::Repo(RepoError::Invalid { key, .. }) if key == "fresh"),
            "{err}"
        );

        // Nothing was written, indexed or published: a reader cloned
        // before the refusals still serves the old epoch.
        assert!(stored(&engine) == before);
        assert_eq!(engine.epoch(), epoch);
        assert_eq!(reader.epoch(), epoch);
        assert_eq!(engine.len(), names.len());

        // A new key beside a key that is stored but no longer indexed:
        // a removal leaves the file, and only a replace overwrites it.
        assert_eq!(unregister(&mut engine, &names[0]), 1);
        // One apply is one publish, seen by the engine and the reader.
        assert_eq!((engine.epoch(), reader.epoch()), (epoch + 1, epoch + 1));
        let (before, epoch) = (stored(&engine), engine.epoch());
        let batch = MutationBatch::new()
            .register(fresh)
            .register(original.clone());
        let err = engine.apply(batch).unwrap_err();
        assert!(
            matches!(&err, QueryError::Repo(RepoError::AlreadyExists { key }) if key == &names[0]),
            "{err}"
        );
        assert!(stored(&engine) == before, "an add was stored");
        assert_eq!((engine.epoch(), reader.epoch()), (epoch, epoch));
        assert_eq!(engine.len(), names.len() - 1);
        assert_eq!(replace(&mut engine, &original), 1);
        assert_eq!((engine.epoch(), reader.epoch()), (epoch + 1, epoch + 1));
    }

    #[test]
    fn the_published_snapshot_is_the_engines_only_state() {
        let held_once = |engine: &Sommelier, step: &str| {
            let published = engine.reader().snapshot();
            assert!(
                std::ptr::eq(engine.semantic_index(), &published.semantic),
                "{step}: a second semantic index"
            );
            assert!(
                std::ptr::eq(engine.resource_index(), &published.resource),
                "{step}: a second resource index"
            );
            assert_eq!(engine.epoch(), published.epoch, "{step}");
        };
        let image = TaskKind::ImageRecognition;
        let repo: Arc<dyn ModelRepository> = Arc::new(InMemoryRepository::new());
        let mut engine = Sommelier::connect(Arc::clone(&repo), SommelierConfig::default());
        held_once(&engine, "connect");
        engine.register(&net("a", image, 16, 4, 1)).unwrap();
        held_once(&engine, "register");
        repo.publish("b", &net("b", image, 16, 4, 2), false)
            .unwrap();
        assert_eq!(engine.index_existing().unwrap(), 1);
        held_once(&engine, "index_existing");
        assert_eq!(replace(&mut engine, &net("a", image, 16, 4, 3)), 2);
        held_once(&engine, "replace");

        // A batch that changes nothing keeps the published `Arc`.
        let (pinned, epoch) = (engine.reader().snapshot(), engine.epoch());
        assert_eq!(unregister(&mut engine, "ghost"), 0);
        assert!(Arc::ptr_eq(&pinned, &engine.reader().snapshot()));
        assert_eq!(engine.epoch(), epoch);
        held_once(&engine, "no-op batch");

        let path =
            std::env::temp_dir().join(format!("somm-engine-state-{}.json", std::process::id()));
        engine.save_indices(&path).unwrap();
        let restored =
            Sommelier::connect_with_indices(repo, SommelierConfig::default(), &path).unwrap();
        std::fs::remove_file(&path).ok();
        held_once(&restored, "connect_with_indices");
        assert_eq!(restored.epoch(), epoch);
    }

    #[test]
    fn no_default_reference_for_unseen_task() {
        let (engine, _) = engine_with_variants();
        let err = engine
            .query("SELECT model CORR TASK question-answering")
            .unwrap_err();
        assert!(matches!(err, QueryError::NoDefaultReference(_)));
    }

    #[test]
    fn impossible_resource_budget_returns_empty() {
        let (engine, names) = engine_with_variants();
        let q = format!("SELECT model CORR {} ON memory <= 0.000001 MB", names[0]);
        let results = engine.query(&q).unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn strict_threshold_prunes_more_than_loose() {
        let (engine, names) = engine_with_variants();
        let strict = engine
            .query(&format!("SELECT models 10 CORR {} WITHIN 0.98", names[0]))
            .unwrap();
        let loose = engine
            .query(&format!("SELECT models 10 CORR {} WITHIN 0.2", names[0]))
            .unwrap();
        assert!(strict.len() <= loose.len());
        assert!(!loose.is_empty());
    }

    #[test]
    fn exec_clause_reprofiles_candidates() {
        let (engine, names) = engine_with_variants();
        // Under batch 32, activation memory scales up ~32x while
        // parameters stay put — the admitted set under an absolute bound
        // must shrink relative to batch 1.
        let q1 = format!("SELECT models 10 CORR {} WITHIN 0.0 EXEC batch = 1", names[0]);
        let q32 = format!("SELECT models 10 CORR {} WITHIN 0.0 EXEC batch = 32", names[0]);
        let r1 = engine.query(&q1).unwrap();
        let r32 = engine.query(&q32).unwrap();
        assert_eq!(r1.len(), r32.len());
        for (a, b) in r1.iter().zip(&r32) {
            assert!(
                b.profile.memory_mb > a.profile.memory_mb,
                "batch-32 memory must exceed batch-1 for {}",
                a.key
            );
        }
        // Device selection changes the latency estimate.
        let qgpu = format!("SELECT model CORR {} WITHIN 0.0 EXEC device = gpu", names[0]);
        let rgpu = engine.query(&qgpu).unwrap();
        assert!(!rgpu.is_empty());
    }

    #[test]
    fn exec_clause_rejects_unknown_settings() {
        let (engine, names) = engine_with_variants();
        let err = engine
            .query(&format!("SELECT model CORR {} EXEC turbo = yes", names[0]))
            .unwrap_err();
        assert!(matches!(err, QueryError::Analysis(_)));
        for setting in ["batch = 0", "batch = 2.7", "batch = inf", "workspace = inf"] {
            let err = engine
                .query(&format!("SELECT model CORR {} EXEC {setting}", names[0]))
                .unwrap_err();
            assert!(matches!(err, QueryError::Analysis(_)), "{setting}: {err:?}");
        }
    }

    #[test]
    fn indices_persist_and_restore_through_engine() {
        let (engine, names) = engine_with_variants();
        let path = std::env::temp_dir().join(format!(
            "somm-engine-snap-{}.json",
            std::process::id()
        ));
        engine.save_indices(&path).unwrap();

        // A fresh engine restored from the snapshot answers identically
        // without re-analysis. The repository must be shared.
        let repo = engine.reader().repo.clone();
        let restored = Sommelier::connect_with_indices(
            repo,
            SommelierConfig::default(),
            &path,
        )
        .unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(restored.len(), engine.len());
        let q = format!("SELECT models 5 CORR {} WITHIN 0.2", names[0]);
        let a = engine.query(&q).unwrap();
        let b = restored.query(&q).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.key, y.key);
        }
        // Default references were re-derived.
        assert!(restored
            .query("SELECT model CORR TASK image-recognition WITHIN 0.0")
            .is_ok());
    }

    #[test]
    fn reregister_replaces_a_model_version() {
        let (mut engine, names) = engine_with_variants();
        let teacher = Teacher::for_task(TaskKind::ImageRecognition, 51);
        let bias = DatasetBias::new(&teacher, "imagenet", 0.05);
        let mut rng = Prng::seed_from_u64(77);
        // Publish a very different model under an existing key.
        let replacement = Family::Vggish.build_scaled(
            &names[2],
            &teacher,
            &bias,
            &FamilyScale::new(0.5, 2, 0.05),
            &mut rng,
        );
        let before = *engine.resource_index().profile_of(&names[2]).unwrap();
        assert_eq!(replace(&mut engine, &replacement), 2);
        let after = *engine.resource_index().profile_of(&names[2]).unwrap();
        assert_ne!(before.memory_mb, after.memory_mb);
        assert_eq!(engine.len(), 4, "model count unchanged after update");
        // The repository holds the new version.
        let stored = engine.reader().repo.load(&names[2]).unwrap();
        assert_eq!(stored.metadata["family"], "vggish");
    }

    #[test]
    fn synthesized_results_materialize_into_runnable_models() {
        let (engine, names) = engine_with_variants();
        // Find a synthesized candidate in the raw index.
        let synth_key = engine
            .semantic_index()
            .candidates_of(&names[0])
            .iter()
            .find(|c| matches!(c.kind, CandidateKind::Synthesized { .. }))
            .map(|c| c.key.clone())
            .expect("segment analysis produced synthesized candidates");
        let model = engine.materialize(&synth_key).unwrap();
        assert_eq!(model.name, synth_key);
        // It runs and matches the host's geometry.
        let mut rng = Prng::seed_from_u64(1);
        let x = Tensor::gaussian(4, model.input_width(), 1.0, &mut rng);
        let out = sommelier_runtime::execute(&model, &x).unwrap();
        assert_eq!(out.rows(), 4);
        // Plain keys still load directly; garbage keys fail.
        assert!(engine.materialize(&names[1]).is_ok());
        assert!(engine.materialize("no-such+pair").is_err());
        assert!(engine.materialize("nonsense").is_err());
    }

    #[test]
    fn unregister_removes_model_from_results() {
        let (mut engine, names) = engine_with_variants();
        let q = format!("SELECT models 10 CORR {} WITHIN 0.0", names[0]);
        let before = engine.query(&q).unwrap();
        assert!(before.iter().any(|r| r.key == names[2]));
        assert_eq!(unregister(&mut engine, &names[2]), 1);
        let after = engine.query(&q).unwrap();
        assert!(after.iter().all(|r| r.key != names[2]));
        // Synthesized entries built from the removed donor vanish too.
        assert!(after
            .iter()
            .all(|r| !matches!(&r.kind, CandidateKind::Synthesized { donor } if donor == &names[2])));
        assert_eq!(unregister(&mut engine, &names[2]), 0, "second removal is a no-op");
        assert!(engine.resource_index().profile_of(&names[2]).is_none());
    }

    #[test]
    fn multi_task_repository_keeps_tasks_separate() {
        // One index serves the whole repository (paper Section 5.2); the
        // I/O check keeps incomparable tasks from cross-contaminating
        // candidate lists, and default references resolve per task.
        let repo = Arc::new(InMemoryRepository::new());
        let mut cfg = SommelierConfig {
            validation_rows: 96,
            ..SommelierConfig::default()
        };
        cfg.index.sample_size = 16;
        cfg.index.segments = false;
        let mut engine = Sommelier::connect(repo, cfg);
        let mut rng = Prng::seed_from_u64(3);
        for task in [TaskKind::ImageRecognition, TaskKind::SentimentAnalysis] {
            let teacher = Teacher::for_task(task, 60);
            let ds = sommelier_zoo::Dataset::default_name_for(task);
            let bias = DatasetBias::new(&teacher, ds, 0.05);
            for i in 0..2 {
                let mut frng = rng.fork();
                let m = Family::Resnetish.build_scaled(
                    format!("{}-{i}", task.slug()),
                    &teacher,
                    &bias,
                    &FamilyScale::new(1.0 - 0.3 * i as f64, 3, 0.01),
                    &mut frng,
                );
                engine.register(&m).unwrap();
            }
        }
        // Image-recognition candidates never include sentiment models
        // (their I/O contracts differ) and vice versa.
        let vision = engine
            .query("SELECT models 10 CORR image-recognition-0 WITHIN 0.0")
            .unwrap();
        assert!(!vision.is_empty());
        assert!(vision.iter().all(|r| !r.key.contains("sentiment")));
        let nlp = engine
            .query("SELECT models 10 CORR TASK sentiment-analysis WITHIN 0.0")
            .unwrap();
        assert!(!nlp.is_empty());
        assert!(nlp.iter().all(|r| !r.key.contains("image")));
    }

    #[test]
    fn query_errors_have_readable_messages() {
        let (engine, _) = engine_with_variants();
        let parse = engine.query("garbage !").unwrap_err();
        assert!(parse.to_string().contains("lex error"));
        let unknown = engine.query("SELECT model CORR ghost").unwrap_err();
        assert!(unknown.to_string().contains("not registered"));
        let no_default = engine
            .query("SELECT model CORR TASK named-entity-recognition")
            .unwrap_err();
        assert!(no_default.to_string().contains("no default reference"));
    }

    /// A repository wrapper that counts `load` calls, so tests can
    /// assert a mutation path touched storage exactly as often as
    /// claimed (for unregister: never).
    #[derive(Default)]
    struct CountingRepository {
        inner: InMemoryRepository,
        loads: std::sync::atomic::AtomicUsize,
    }

    impl CountingRepository {
        fn loads(&self) -> usize {
            self.loads.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    impl ModelRepository for CountingRepository {
        fn publish(&self, key: &str, model: &Model, overwrite: bool) -> Result<(), RepoError> {
            self.inner.publish(key, model, overwrite)
        }
        fn load(&self, key: &str) -> Result<Model, RepoError> {
            self.loads
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.inner.load(key)
        }
        fn try_keys(&self) -> Result<Vec<String>, RepoError> {
            self.inner.try_keys()
        }
    }

    #[test]
    fn reindexing_is_incremental_and_publishes_once() {
        let repo = Arc::new(CountingRepository::default());
        let (mut engine, names) = variants_on(Arc::clone(&repo) as Arc<dyn ModelRepository>);
        let model = repo.inner.load(&names[2]).unwrap();
        let (loads_before, epoch_before) = (repo.loads(), engine.epoch());
        // Re-register an unchanged model: the remove and the re-insert
        // coalesce into one batch, the edge table retains every
        // measurement for the unchanged fingerprints, so no partner is
        // loaded, let alone analyzed — and the whole logical mutation
        // is exactly one snapshot publication (one epoch bump), not the
        // historical remove-publish + insert-publish pair.
        assert_eq!(replace(&mut engine, &model), 2);
        assert_eq!(repo.loads(), loads_before, "no new analyses were needed");
        assert_eq!(
            engine.epoch(),
            epoch_before + 1,
            "a replace is one logical mutation: exactly one publish"
        );
    }

    #[test]
    fn dropped_then_readded_model_lands_on_the_pre_drop_image() {
        // A drop as its own mutation kills the model's edges, so the
        // later re-add re-attempts those pairs: at most its sample's
        // worth of partners are loaded, and the measurements land on
        // the pre-drop state byte for byte.
        let repo = Arc::new(CountingRepository::default());
        let (mut engine, names) = variants_on(Arc::clone(&repo) as Arc<dyn ModelRepository>);
        let image = |engine: &Sommelier| {
            let snap = engine.reader().snapshot();
            let stats =
                sommelier_index::persist::SnapshotStats::of(&snap.semantic, &snap.resource, 0);
            sommelier_index::somb::encode(&snap.semantic, &snap.resource, Some(&stats))
        };
        for name in &names {
            let model = repo.inner.load(name).unwrap();
            let before = image(&engine);
            assert_eq!(unregister(&mut engine, name), 1);
            let loads_before = repo.loads();
            assert_eq!(replace(&mut engine, &model), 1);
            let loaded = repo.loads() - loads_before;
            assert!(
                loaded <= engine.reader().config.index.sample_size,
                "{name}: re-add loaded {loaded} partners"
            );
            assert!(image(&engine) == before, "{name}: re-add drifted from the pre-drop state");
        }
    }

    #[test]
    fn unregister_rederives_defaults_without_storage_reads() {
        let teacher = Teacher::for_task(TaskKind::ImageRecognition, 51);
        let bias = DatasetBias::new(&teacher, "imagenet", 0.05);
        let repo = Arc::new(CountingRepository::default());
        let mut cfg = SommelierConfig {
            validation_rows: 128,
            ..SommelierConfig::default()
        };
        cfg.index.sample_size = 16;
        let mut engine = Sommelier::connect(Arc::clone(&repo) as Arc<dyn ModelRepository>, cfg);
        let mut rng = Prng::seed_from_u64(17);
        let mut names = Vec::new();
        for (i, scale) in [1.0, 0.8, 0.6].iter().enumerate() {
            let mut frng = rng.fork();
            let model = Family::Resnetish.build_scaled(
                format!("def-{i}"),
                &teacher,
                &bias,
                &FamilyScale::new(*scale, 3, 0.01),
                &mut frng,
            );
            names.push(model.name.clone());
            engine.register(&model).unwrap();
        }
        // "def-0" is the task's smallest key, so it is the default
        // reference.
        let reads_before = repo.loads();
        assert_eq!(unregister(&mut engine, &names[0]), 1);
        assert_eq!(
            repo.loads(),
            reads_before,
            "unregister must derive the new default from indexed metadata, \
             with zero repository reads"
        );
        // The default moved to the lexicographically smallest survivor.
        let results = engine
            .query("SELECT models 10 CORR TASK image-recognition WITHIN 0.0")
            .unwrap();
        assert!(results.iter().all(|r| r.key != names[0]));
        assert_eq!(
            unregister(&mut engine, &names[0]),
            0,
            "second removal is a no-op"
        );
    }

    #[test]
    fn mutation_batch_coalesces_into_one_publish() {
        let (mut engine, names) = engine_with_variants();
        let epoch_before = engine.epoch();
        let replacement = engine.reader().repo.load(&names[1]).unwrap();
        let batch = MutationBatch::new()
            .unregister(&names[0])
            .unregister(&names[1])
            .register(replacement);
        let applied = engine.apply(batch).unwrap();
        assert_eq!(applied, 3, "two removes and one add are three mutations");
        assert_eq!(
            engine.epoch(),
            epoch_before + 1,
            "a batch is one snapshot publication, however many mutations it holds"
        );
        let results = engine
            .query("SELECT models 10 CORR TASK image-recognition WITHIN 1.0")
            .unwrap();
        assert!(results.iter().all(|r| r.key != names[0]));
        // An empty batch is free: nothing published, epoch untouched.
        assert_eq!(engine.apply(MutationBatch::new()).unwrap(), 0);
        assert_eq!(engine.epoch(), epoch_before + 1);
    }

    #[test]
    fn index_build_is_byte_identical_across_job_counts() {
        let teacher = Teacher::for_task(TaskKind::ImageRecognition, 51);
        let bias = DatasetBias::new(&teacher, "imagenet", 0.05);
        let build = |jobs: usize| -> String {
            let repo = Arc::new(InMemoryRepository::new());
            let mut rng = Prng::seed_from_u64(1);
            for (i, wf) in [1.25, 1.0, 0.75, 0.5, 0.6].into_iter().enumerate() {
                let mut frng = rng.fork();
                let m = Family::Resnetish.build_scaled(
                    format!("m{i}"),
                    &teacher,
                    &bias,
                    &FamilyScale::new(wf, 3, 0.01),
                    &mut frng,
                );
                repo.publish(&m.name, &m, false).unwrap();
            }
            let mut cfg = SommelierConfig {
                validation_rows: 64,
                jobs,
                ..SommelierConfig::default()
            };
            cfg.index.sample_size = 3;
            let mut engine = Sommelier::connect(repo, cfg);
            engine.index_existing().unwrap();
            let path =
                std::env::temp_dir().join(format!("somm-jobs-{jobs}-{}.json", std::process::id()));
            engine.save_indices(&path).unwrap();
            let bytes = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).ok();
            bytes
        };
        let baseline = build(1);
        for jobs in [4, 8] {
            assert_eq!(build(jobs), baseline, "jobs={jobs} diverged");
        }
    }

    #[test]
    fn query_batch_is_identical_across_lane_counts() {
        let (engine, names) = engine_with_variants();
        let texts: Vec<String> = (0..12)
            .map(|i| {
                format!(
                    "SELECT models 3 CORR {} WITHIN 0.{} ORDER BY memory",
                    names[i % names.len()],
                    2 + (i % 3)
                )
            })
            .collect();
        let baseline: Vec<Vec<QueryResult>> = engine
            .reader()
            .with_pool(1)
            .query_batch(&texts)
            .into_iter()
            .map(|i| i.results.unwrap())
            .collect();
        for lanes in [4, 8] {
            let got: Vec<Vec<QueryResult>> = engine
                .reader()
                .with_pool(lanes)
                .query_batch(&texts)
                .into_iter()
                .map(|i| i.results.unwrap())
                .collect();
            assert_eq!(got, baseline, "lanes={lanes} diverged");
        }
        // Every item of one batch is served from the same epoch.
        let items = engine.reader().query_batch(&texts);
        assert!(items.iter().all(|i| i.epoch == engine.epoch()));
        assert!(items.iter().all(|i| i.latency_ms >= 0.0));
    }

    #[test]
    fn plan_cache_serves_repeats_and_epoch_invalidates() {
        let (mut engine, names) = engine_with_variants();
        let q = format!("SELECT models 5 CORR {} WITHIN 0.2", names[0]);
        let first = engine.query(&q).unwrap();
        let stats0 = engine.plan_cache_stats();
        assert_eq!(stats0.hits, 0);
        assert!(stats0.entries > 0, "miss populated the cache");
        // Textual whitespace variants share the entry.
        let variant = q.replace(' ', "  ");
        assert_eq!(engine.query(&variant).unwrap(), first);
        let stats1 = engine.plan_cache_stats();
        assert_eq!(stats1.hits, 1, "repeat query must hit");
        assert_eq!(stats1.misses, stats0.misses, "no re-execution");
        // A mutation publishes a new epoch: the same text re-executes
        // and reflects the new index state.
        let epoch_before = engine.epoch();
        assert_eq!(unregister(&mut engine, &names[2]), 1);
        assert!(engine.epoch() > epoch_before);
        let after = engine.query(&q).unwrap();
        assert!(after.iter().all(|r| r.key != names[2]));
        let stats2 = engine.plan_cache_stats();
        assert!(stats2.misses > stats1.misses, "new epoch must miss");
    }

    #[test]
    fn reader_serves_pinned_snapshot_across_mutations() {
        let (mut engine, names) = engine_with_variants();
        let reader = engine.reader();
        let q = format!("SELECT models 10 CORR {} WITHIN 0.0", names[0]);
        let pinned = reader.snapshot();
        let before_epoch = pinned.epoch;
        assert_eq!(unregister(&mut engine, &names[3]), 1);
        // The pinned snapshot still holds the unregistered model; the
        // live read path already serves the new epoch.
        assert!(pinned.semantic.contains(&names[3]));
        assert_eq!(reader.epoch(), before_epoch + 1);
        let live = reader.query(&q).unwrap();
        assert!(live.iter().all(|r| r.key != names[3]));
    }

    #[test]
    fn retired_snapshot_is_freed_when_its_last_pin_drops() {
        let (mut engine, names) = engine_with_variants();
        let reader = engine.reader();
        let pinned = reader.snapshot();
        let retired = Arc::downgrade(&pinned);
        let applied = engine.apply(MutationBatch::new().unregister(&names[3])).unwrap();
        assert_eq!(applied, 1);
        // The engine has published past it, yet the pin keeps it alive.
        assert!(retired.upgrade().is_some(), "a pinned snapshot was freed");
        assert_eq!(reader.epoch(), pinned.epoch + 1);
        let second_pin = Arc::clone(&pinned);
        drop(pinned);
        assert!(retired.upgrade().is_some(), "freed with a pin outstanding");
        drop(second_pin);
        assert!(retired.upgrade().is_none(), "the last pin dropped; nothing else holds it");
    }

    #[test]
    fn statically_empty_plans_short_circuit() {
        let (engine, names) = engine_with_variants();
        // `SELECT models 0` only arises programmatically (the parser
        // rejects it); the executor must prune it without index work.
        let zero = engine
            .reader()
            .query_ast(&Query::corr(&names[0]).top(0).within(0.0))
            .unwrap();
        assert!(zero.is_empty());
        let impossible = engine
            .reader()
            .query_ast(&Query::corr(&names[0]).top(5).within(1.5))
            .unwrap();
        assert!(impossible.is_empty());
    }

    #[test]
    fn served_queries_never_scan_the_range_index() {
        // The counter is process-wide, and this is the only test in the
        // binary that asks the resource index a range query.
        let scans = || counters::get("index.resource.range_scans");
        let (engine, names) = engine_with_variants();
        let texts: Vec<String> = [
            "WITHIN 0.2",
            "ON memory <= 90% WITHIN 0.2 ORDER BY memory",
            "ON memory <= 90% AND flops <= 1000 GFLOPS WITHIN 0.3 ORDER BY latency",
            "ON latency <= 0.000001 MS WITHIN 0.0",
        ]
        .iter()
        .flat_map(|tail| names.iter().map(move |n| format!("SELECT models 3 CORR {n} {tail}")))
        .collect();
        let before = scans();
        // Every text misses the plan cache once, then hits it.
        for pass in 0..2 {
            for item in engine.reader().with_pool(4).query_batch(&texts) {
                item.results.expect("query executes");
            }
            assert_eq!(
                engine.plan_cache_stats().hits,
                (pass * texts.len()) as u64,
                "pass {pass}"
            );
        }
        engine
            .reader()
            .query_ast(&Query::corr(&names[0]).top(3).within(0.2).memory_at_most_frac(0.9))
            .expect("uncached AST query executes");
        assert_eq!(scans(), before, "a served query swept the resource index");
        engine.resource_index().query(&sommelier_index::ResourceConstraint::default());
        assert_eq!(scans(), before + 1, "the counter does not see a direct range query");
    }

    #[test]
    fn restored_engine_resumes_the_publication_epoch() {
        let (engine, _) = engine_with_variants();
        assert_eq!(engine.epoch(), 4, "four registrations, four epochs");
        let path = std::env::temp_dir().join(format!(
            "somm-epoch-resume-{}.json",
            std::process::id()
        ));
        engine.save_indices(&path).unwrap();
        let restored = Sommelier::connect_with_indices(
            engine.reader().repo.clone(),
            SommelierConfig::default(),
            &path,
        )
        .unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(restored.epoch(), 4);
        assert_eq!(restored.reader().epoch(), 4);
    }

    /// Recovery of a damaged snapshot at `path`, as both recovery tests
    /// assert it: the evidence is quarantined, the rebuild is counted
    /// (at least once: the counter is process-wide and the sibling tests
    /// rebuild too), the engine answers like `engine`, and the file left at
    /// `path` is a current-version image that loads without a rebuild.
    fn assert_recovers(engine: &Sommelier, names: &[String], path: &std::path::Path, case: &str) {
        let config = SommelierConfig {
            validation_rows: 128,
            ..SommelierConfig::default()
        };
        let before = counters::get("recovery.rebuilds");
        let (restored, outcome) =
            Sommelier::connect_or_recover(engine.reader().repo.clone(), config.clone(), path).unwrap();
        match &outcome {
            SnapshotRecovery::RebuiltQuarantined(q) => {
                assert!(q.exists(), "{case}: evidence file preserved")
            }
            other => panic!("{case}: expected quarantine, got {other:?}"),
        }
        assert!(counters::get("recovery.rebuilds") > before, "{case}");
        assert_eq!(restored.len(), engine.len(), "{case}");
        assert_eq!(
            restored.snapshot_format(),
            Some(sommelier_index::SnapshotFormat::for_path(path)),
            "{case}: resave keeps the format"
        );
        let q = format!("SELECT models 3 CORR {} WITHIN 0.2", names[0]);
        let answer = restored.query(&q).unwrap();
        assert!(!answer.is_empty(), "{case}");
        assert_eq!(answer, engine.query(&q).unwrap(), "{case}: same answer as a fresh build");
        let resaved = sommelier_index::persist::read_snapshot(path).expect("resaved image reads");
        assert_eq!(resaved.version, sommelier_index::persist::SNAPSHOT_VERSION, "{case}");
        let (_again, outcome) =
            Sommelier::connect_or_recover(engine.reader().repo.clone(), config, path).unwrap();
        assert!(matches!(outcome, SnapshotRecovery::Loaded), "{case}");
    }

    fn assert_refused_as_version_2(path: &std::path::Path) {
        use sommelier_index::persist::{read_snapshot_with, PersistError};
        assert!(matches!(
            read_snapshot_with(&sommelier_fault::StdStorage, path),
            Err(PersistError::Version { found: 2, expected: 3 })
        ));
    }

    #[test]
    fn corrupt_snapshot_recovers_by_quarantine_and_rebuild() {
        let (engine, names) = engine_with_variants();
        let dir = std::env::temp_dir().join(format!(
            "somm-recover-{}",
            std::process::id()
        ));
        let path = dir.join("sommelier.index.json");
        for case in ["torn", "version 2"] {
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            engine.save_indices(&path).unwrap();
            let whole = std::fs::read_to_string(&path).unwrap();
            if case == "torn" {
                // Tear the snapshot the way a mid-write crash would.
                std::fs::write(&path, &whole[..whole.len() / 2]).unwrap();
            } else {
                // The image the previous format version wrote: its
                // version number and its resource members.
                let old = whole.replacen("\"version\":3", "\"version\":2", 1).replacen(
                    "\"resource\":{",
                    "\"resource\":{\"removed\":[],\"lsh\":{\"dim\":3},\"exhaustive\":false,",
                    1,
                );
                assert_ne!(old, whole);
                std::fs::write(&path, old).unwrap();
                assert_refused_as_version_2(&path);
            }
            assert_recovers(&engine, &names, &path, case);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_snapshot_restores_identically_to_json() {
        let (engine, names) = engine_with_variants();
        let dir = std::env::temp_dir().join(format!("somm-binfmt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let jpath = dir.join("sommelier.index.json");
        let bpath = dir.join("sommelier.index.somb");
        engine.save_indices(&jpath).unwrap();
        engine.save_indices(&bpath).unwrap();
        assert!(engine.snapshot_format().is_none(), "fresh engine, no load");

        let from_json = Sommelier::connect_with_indices(
            engine.reader().repo.clone(),
            SommelierConfig::default(),
            &jpath,
        )
        .unwrap();
        let from_bin = Sommelier::connect_with_indices(
            engine.reader().repo.clone(),
            SommelierConfig::default(),
            &bpath,
        )
        .unwrap();
        assert_eq!(from_json.snapshot_format(), Some(sommelier_index::SnapshotFormat::Json));
        assert_eq!(from_bin.snapshot_format(), Some(sommelier_index::SnapshotFormat::Binary));
        assert_eq!(from_bin.epoch(), from_json.epoch(), "epoch resumes from either format");
        // Both restored engines serve identical results.
        let q = format!("SELECT models 5 CORR {} WITHIN 0.2", names[0]);
        let a = from_json.query(&q).unwrap();
        let b = from_bin.query(&q).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "bit-equal scores");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_binary_snapshot_recovers_by_quarantine_and_rebuild() {
        let (engine, names) = engine_with_variants();
        let dir = std::env::temp_dir().join(format!("somm-binrec-{}", std::process::id()));
        let path = dir.join("sommelier.index.somb");
        let damaged = |damage: &dyn Fn(&[u8]) -> Vec<u8>| {
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            engine.save_indices(&path).unwrap();
            let whole = std::fs::read(&path).unwrap();
            std::fs::write(&path, damage(&whole)).unwrap();
        };
        for kind in sommelier_fault::BinaryTearKind::ALL {
            damaged(&|whole| sommelier_fault::tear_binary(whole, 31, kind));
            assert_recovers(&engine, &names, &path, kind.name());
        }
        // The header the previous format version wrote: 204 bytes, six
        // sections. Refused on the version word alone — nothing after it
        // is laid out the way this build reads.
        damaged(&|whole| {
            let mut old = whole.to_vec();
            old[4..8].copy_from_slice(&2u32.to_le_bytes());
            old[8..12].copy_from_slice(&204u32.to_le_bytes());
            old
        });
        assert_refused_as_version_2(&path);
        assert_recovers(&engine, &names, &path, "version 2");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_snapshot_recovers_without_quarantine() {
        let (engine, _) = engine_with_variants();
        let path = std::env::temp_dir().join(format!(
            "somm-recover-missing-{}.json",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let (restored, outcome) = Sommelier::connect_or_recover(
            engine.reader().repo.clone(),
            SommelierConfig {
                validation_rows: 128,
                ..SommelierConfig::default()
            },
            &path,
        )
        .unwrap();
        assert!(matches!(outcome, SnapshotRecovery::RebuiltMissing));
        assert_eq!(restored.len(), engine.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn measure_diff_is_zero_for_self() {
        let (engine, names) = engine_with_variants();
        let d = engine.measure_diff(&names[0], &names[0]).unwrap();
        assert_eq!(d, 0.0);
        let d2 = engine.measure_diff(&names[0], &names[3]).unwrap();
        assert!(d2 > 0.0);
    }

    /// A two-layer net; `softmax` makes it a classifier's head.
    fn net(name: &str, task: TaskKind, input: usize, output: usize, seed: u64) -> Model {
        let mut rng = Prng::seed_from_u64(seed);
        let mut b = ModelBuilder::new(name, task, Shape::vector(input));
        b.dense(24, &mut rng).relu().dense(output, &mut rng);
        if task.output_style() == OutputStyle::Classification {
            b.softmax();
        }
        b.build().unwrap()
    }

    #[test]
    fn measure_diff_refuses_pairs_of_different_output_widths() {
        // Regression outputs of different widths used to panic in the
        // row distance; classification ones got back a top-1 agreement
        // of unrelated label spaces.
        for task in [TaskKind::ObjectDetection, TaskKind::ImageRecognition] {
            let mut engine = Sommelier::connect(
                Arc::new(InMemoryRepository::new()),
                SommelierConfig::default(),
            );
            let (a, b) = (net("wide", task, 16, 8, 1), net("narrow", task, 16, 6, 2));
            engine.register(&a).unwrap();
            engine.register(&b).unwrap();
            let err = engine.measure_diff("wide", "narrow").unwrap_err();
            assert!(
                matches!(&err, QueryError::Analysis(why) if why.contains("output widths differ")),
                "{task}: {err}"
            );
        }
    }

    /// Whole-model analysis as `EquivAnalyzer` computed it before probe
    /// records: `assess_whole` with the bound off over the reference's
    /// probe, plus the bound term recomposed from the two models'
    /// architecture factors.
    fn whole_diff_before_records(
        analyzer: &EquivAnalyzer,
        equiv: EquivConfig,
        reference: &Model,
        candidate: &Model,
    ) -> Option<f64> {
        let probe = analyzer.probe(reference.input_width());
        let empirical_cfg = EquivConfig {
            epsilon: equiv.epsilon,
            genbound: GenBoundMode::Off,
        };
        let report =
            sommelier_equiv::assess_whole(reference, candidate, &probe, &empirical_cfg).ok()?;
        let term = match equiv.genbound {
            GenBoundMode::Off => 0.0,
            GenBoundMode::On(gb) => {
                let fa = architecture_factor(reference, &probe, &gb);
                let fb = architecture_factor(candidate, &probe, &gb);
                let n = (probe.rows().max(1) as f64).sqrt();
                gb.constant * 0.5 * (fa + fb) / (gb.gamma * n) + gb.concentration / n
            }
        };
        Some(report.empirical_diff + term)
    }

    #[test]
    fn probe_records_reproduce_the_pairwise_analysis_bit_for_bit() {
        let image = TaskKind::ImageRecognition;
        let base = net("base", image, 32, 8, 1);
        let mut rng = Prng::seed_from_u64(2);
        let mut near = perturb_all(&base, 0.05, &mut rng);
        near.name = "near".into();
        let mut far = perturb_all(&base, 0.5, &mut rng);
        far.name = "far".into();
        let [cats, dogs] = [("cats", 3), ("dogs", 4)].map(|(label, seed)| {
            let mut m = net(label, image, 32, 8, seed);
            m.output_syntax = Some((0..8).map(|i| format!("{label}-{i}")).collect());
            m
        });
        let [narrow, wide] = [(32, 5), (40, 6)].map(|(width, seed)| {
            let mut m = net(&format!("pre-{width}"), image, width, 8, seed);
            m.metadata
                .insert(PREPROCESSOR_KEY.into(), format!("resize-{width}"));
            m
        });
        let teacher = Teacher::for_task(image, 51);
        let bias = DatasetBias::new(&teacher, "imagenet", 0.05);
        let family = [1.0, 0.75].map(|wf| {
            let mut frng = rng.fork();
            Family::Resnetish.build_scaled(
                format!("resnetish-{wf}"),
                &teacher,
                &bias,
                &FamilyScale::new(wf, 3, 0.01),
                &mut frng,
            )
        });
        let mut zoo = vec![
            base,
            near,
            far,
            // Same I/O, the other output style: compared in both
            // directions, each in its reference's style.
            net("boxes", TaskKind::ObjectDetection, 32, 8, 7),
            net("boxes-2", TaskKind::ObjectDetection, 32, 8, 8),
            // Another task, other input shape.
            net("sentiment", TaskKind::SentimentAnalysis, 24, 8, 9),
            narrow,
            wide,
            // Both labelled, differently.
            cats,
            dogs,
        ];
        zoo.extend(family);
        let fps: Vec<Fingerprint> = zoo.iter().map(Fingerprint::of_model).collect();
        let load = |fp: Fingerprint| {
            zoo.iter()
                .zip(&fps)
                .find(|(_, f)| **f == fp)
                .map(|(m, _)| Cow::Borrowed(m))
        };
        let at = |name: &str| zoo.iter().position(|m| m.name == name).unwrap();
        let bits = |d: Option<f64>| d.map(f64::to_bits);
        for genbound in [GenBoundMode::On(Default::default()), GenBoundMode::Off] {
            for rows in [64, 256] {
                let equiv = EquivConfig {
                    epsilon: 0.05,
                    genbound,
                };
                let case = format!("{genbound:?} at {rows} rows");
                let analyzer = EquivAnalyzer::new(equiv, 0.1, rows, 7);
                let expected = |i: usize, j: usize| {
                    bits(whole_diff_before_records(
                        &analyzer, equiv, &zoo[i], &zoo[j],
                    ))
                };
                // The index's path: fingerprints and a loader, each
                // pair once.
                for i in 0..zoo.len() {
                    for j in i + 1..zoo.len() {
                        let m = analyzer.analyze_pair(fps[i], fps[j], &load, true);
                        assert_eq!(
                            bits(m.fwd),
                            expected(i, j),
                            "{case}: {} -> {}",
                            zoo[i].name,
                            zoo[j].name
                        );
                        assert_eq!(
                            bits(m.rev),
                            expected(j, i),
                            "{case}: {} -> {}",
                            zoo[j].name,
                            zoo[i].name
                        );
                        assert_eq!(m.seg_fwd, analyzer.segment_diff(&zoo[i], &zoo[j]), "{case}");
                        assert_eq!(m.seg_rev, analyzer.segment_diff(&zoo[j], &zoo[i]), "{case}");
                    }
                }
                // The benchmark's path: two models, every ordered pair.
                for i in 0..zoo.len() {
                    for j in 0..zoo.len() {
                        let got = bits(analyzer.whole_diff(&zoo[i], &zoo[j]));
                        assert_eq!(
                            got,
                            expected(i, j),
                            "{case}: {} -> {}",
                            zoo[i].name,
                            zoo[j].name
                        );
                    }
                }
                // The zoo holds what the comparison must tell apart.
                let whole = |a: &str, b: &str| analyzer.whole_diff(&zoo[at(a)], &zoo[at(b)]);
                assert!(whole("base", "near").is_some(), "{case}");
                assert!(whole("resnetish-1", "resnetish-0.75").is_some(), "{case}");
                assert!(whole("base", "sentiment").is_none(), "{case}");
                assert!(whole("cats", "dogs").is_none(), "{case}: output syntax");
                assert!(
                    whole("cats", "base").is_some(),
                    "{case}: one side unlabelled"
                );
                assert!(
                    whole("pre-32", "pre-40").is_none(),
                    "{case}: no probe in common"
                );
                let (there, back) = (
                    whole("base", "boxes").unwrap(),
                    whole("boxes", "base").unwrap(),
                );
                assert_ne!(
                    there, back,
                    "{case}: each direction in its reference's style"
                );
            }
        }
    }
}
