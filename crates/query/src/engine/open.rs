//! Bringing an engine up: fresh, from a persisted snapshot, or by
//! rebuilding from the repository when that snapshot is missing or
//! unreadable; and saving one. Every engine is built by the writer's
//! `assemble`.

use super::writer::{keep_smallest, Sommelier};
use super::{EngineSnapshot, QueryError, SnapshotRecovery, SommelierConfig};
use sommelier_index::{ResourceIndex, SemanticIndex};
use sommelier_repo::ModelRepository;
use sommelier_runtime::metrics::counters;
use std::collections::HashMap;
use std::sync::Arc;

impl Sommelier {
    /// Connect to a repository. Models already present can be indexed with
    /// [`Sommelier::index_existing`].
    pub fn connect(repo: Arc<dyn ModelRepository>, config: SommelierConfig) -> Self {
        let snapshot = EngineSnapshot {
            semantic: SemanticIndex::new(config.index, config.seed),
            resource: ResourceIndex::default(),
            default_refs: HashMap::new(),
            epoch: 0,
        };
        Self::assemble(repo, config, snapshot, HashMap::new())
    }

    /// Connect with default configuration.
    pub fn connect_default(repo: Arc<dyn ModelRepository>) -> Self {
        Self::connect(repo, SommelierConfig::default())
    }

    /// Persist both indices to a snapshot file (paper Section 5.5:
    /// indices are lightweight and can be populated to disk), stamped
    /// with the current publication epoch. The on-disk encoding follows
    /// the path extension: `.somb` writes the binary snapshot format,
    /// anything else writes JSON.
    pub fn save_indices(&self, path: &std::path::Path) -> Result<(), QueryError> {
        let (semantic, resource) = (self.semantic_index(), self.resource_index());
        let epoch = self.epoch();
        match sommelier_index::SnapshotFormat::for_path(path) {
            sommelier_index::SnapshotFormat::Binary => {
                sommelier_index::persist::save_binary(semantic, resource, epoch, path)
            }
            sommelier_index::SnapshotFormat::Json => {
                sommelier_index::persist::save(semantic, resource, epoch, path)
            }
        }
        .map_err(|e| QueryError::Analysis(e.to_string()))
    }

    /// Connect to a repository restoring previously persisted indices —
    /// registration analysis does not have to be repeated after a
    /// restart. The snapshot format (JSON or binary) is sniffed from the
    /// file contents. Default reference models are re-derived from the
    /// indexed order; the publication epoch resumes from the snapshot's
    /// stats header (pre-epoch snapshots resume from 0).
    pub fn connect_with_indices(
        repo: Arc<dyn ModelRepository>,
        config: SommelierConfig,
        path: &std::path::Path,
    ) -> Result<Self, QueryError> {
        Self::open_snapshot(&repo, &config, path).map_err(|e| QueryError::Analysis(e.to_string()))
    }

    /// Read the snapshot at `path` (either format), assemble the engine
    /// around it and record the format it was read in.
    fn open_snapshot(
        repo: &Arc<dyn ModelRepository>,
        config: &SommelierConfig,
        path: &std::path::Path,
    ) -> Result<Self, sommelier_index::persist::PersistError> {
        let (snapshot, format) = sommelier_index::persist::read_snapshot_sniffed_with(
            &sommelier_fault::StdStorage,
            path,
        )?;
        let mut engine = Self::assemble_from_snapshot(Arc::clone(repo), config.clone(), snapshot);
        engine.set_snapshot_format(format);
        Ok(engine)
    }

    /// [`Sommelier::connect_with_indices`] over a snapshot already in
    /// memory: decoded from a file, or put together from live index
    /// structures as they stand.
    pub fn assemble_from_snapshot(
        repo: Arc<dyn ModelRepository>,
        config: SommelierConfig,
        snapshot: sommelier_index::persist::IndexSnapshot,
    ) -> Self {
        let epoch = snapshot
            .stats
            .and_then(|s| s.epoch)
            .map(|e| e.max(0) as u64)
            .unwrap_or(0);
        let mut default_refs = HashMap::new();
        let mut tasks = HashMap::new();
        for key in snapshot.semantic.keys() {
            if let Ok(model) = repo.load(key) {
                keep_smallest(&mut default_refs, model.task, key);
                tasks.insert(key.to_string(), model.task);
            }
        }
        let snapshot = EngineSnapshot {
            semantic: snapshot.semantic,
            resource: snapshot.resource,
            default_refs,
            epoch,
        };
        Self::assemble(repo, config, snapshot, tasks)
    }

    /// Connect restoring persisted indices, degrading gracefully when
    /// the snapshot is missing or unreadable: a corrupt snapshot is
    /// quarantined (`<name>.corrupt-<epoch>`) and the indices are
    /// transparently rebuilt from the repository — the query path comes
    /// up either way, it never errors on a bad snapshot file. Counters:
    /// `recovery.loads` on a clean load, `recovery.rebuilds` per
    /// rebuild, `recovery.quarantined` per file moved aside (bumped by
    /// the quarantine itself), `recovery.resave_failures` when the
    /// rebuilt snapshot could not be re-persisted.
    pub fn connect_or_recover(
        repo: Arc<dyn ModelRepository>,
        config: SommelierConfig,
        path: &std::path::Path,
    ) -> Result<(Self, SnapshotRecovery), QueryError> {
        use sommelier_index::persist::PersistError;
        match Self::open_snapshot(&repo, &config, path) {
            Ok(engine) => {
                counters::add("recovery.loads", 1);
                Ok((engine, SnapshotRecovery::Loaded))
            }
            Err(PersistError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                let engine = Self::rebuild_from_repository(repo, config, path)?;
                Ok((engine, SnapshotRecovery::RebuiltMissing))
            }
            Err(_) => {
                // Torn/garbage/unsupported snapshot: move the evidence
                // aside (best effort — an unmovable file must not block
                // recovery) and rebuild from the source of truth.
                let quarantined =
                    sommelier_fault::quarantine(&sommelier_fault::StdStorage, path).ok();
                let engine = Self::rebuild_from_repository(repo, config, path)?;
                Ok((
                    engine,
                    match quarantined {
                        Some(q) => SnapshotRecovery::RebuiltQuarantined(q),
                        None => SnapshotRecovery::RebuiltMissing,
                    },
                ))
            }
        }
    }

    fn rebuild_from_repository(
        repo: Arc<dyn ModelRepository>,
        config: SommelierConfig,
        path: &std::path::Path,
    ) -> Result<Self, QueryError> {
        counters::add("recovery.rebuilds", 1);
        let mut engine = Self::connect(repo, config);
        engine.index_existing()?;
        // Re-persist so the next start loads instead of re-analyzing;
        // failing to write the fresh snapshot must not fail recovery —
        // the engine is already serving from memory.
        if engine.save_indices(path).is_err() {
            counters::add("recovery.resave_failures", 1);
        } else {
            engine.set_snapshot_format(sommelier_index::SnapshotFormat::for_path(path));
        }
        Ok(engine)
    }
}
