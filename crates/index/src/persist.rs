//! Index persistence (paper Section 5.5).
//!
//! "As the two indices use vanilla data structures such as hashtables and
//! LSH, both indices are lightweight and can be populated to disk when
//! they grow large." Both index types serialize to a single JSON snapshot;
//! models themselves are *not* stored here — only keys, scores, and
//! profile vectors, matching the paper's note that models stay in the
//! storage system.

use crate::resource::ResourceIndex;
use crate::semantic::SemanticIndex;
use serde::{Deserialize, Serialize};
use sommelier_fault::{StdStorage, Storage};
use std::fmt;
use std::path::{Path, PathBuf};

/// On-disk encoding of a snapshot. Readers sniff the format from the
/// leading bytes ([`crate::somb::MAGIC`] marks binary, anything else is
/// treated as JSON); writers choose by path extension (`.somb` →
/// binary). JSON stays fully supported read-side — `sommelier compact`
/// rewrites it to binary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotFormat {
    /// Human-readable JSON (the original format).
    Json,
    /// The `.somb` binary image ([`crate::somb`]).
    Binary,
}

impl SnapshotFormat {
    /// Stable lowercase name (CLI output, metrics).
    pub fn as_str(self) -> &'static str {
        match self {
            SnapshotFormat::Json => "json",
            SnapshotFormat::Binary => "binary",
        }
    }

    /// The format a path's extension selects for *writing*.
    pub fn for_path(path: &Path) -> Self {
        match path.extension().and_then(|e| e.to_str()) {
            Some("somb") => SnapshotFormat::Binary,
            _ => SnapshotFormat::Json,
        }
    }
}

impl fmt::Display for SnapshotFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// File name (inside a repository directory) of the JSON snapshot.
pub const INDEX_FILE: &str = "sommelier.index.json";

/// File name of the binary (`.somb`) snapshot, `sommelier compact`'s
/// output.
pub const INDEX_FILE_BIN: &str = "sommelier.index.somb";

/// The snapshot a repository directory serves from: the binary one
/// when it exists (a compacted repository), the JSON one otherwise.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    let bin = dir.join(INDEX_FILE_BIN);
    if bin.exists() {
        bin
    } else {
        dir.join(INDEX_FILE)
    }
}

/// A persisted snapshot of both indices.
#[derive(Debug, Serialize, Deserialize)]
pub struct IndexSnapshot {
    /// Snapshot format version.
    pub version: u32,
    /// Content-derived metrics header. A hand-built snapshot may leave
    /// it out; [`decode_snapshot`] refuses a file without one.
    pub stats: Option<SnapshotStats>,
    /// The semantic index.
    pub semantic: SemanticIndex,
    /// The resource index.
    pub resource: ResourceIndex,
}

/// Current snapshot format version. Version 2 (incremental index
/// maintenance) added the semantic edge table to the JSON image;
/// version 3 reduced the resource index to its key-ordered entries.
/// Older snapshots are refused with [`PersistError::Version`] and
/// rebuilt from the repository by the engine's recovery path.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Current stats-header version (evolves independently of
/// [`SNAPSHOT_VERSION`]; [`decode_snapshot`] refuses any other).
/// Version 2 added the publication `epoch`.
pub const STATS_VERSION: u32 = 2;

/// Content-derived metrics header written alongside the indices.
///
/// Every field is a pure function of the index *contents*, never of
/// the build schedule: that keeps the snapshot file byte-identical at
/// any `--jobs` setting, and lets [`decode_snapshot`] hold each count to
/// the contents it decoded. Counters are `i64`, so a hand-edited
/// negative value still decodes and is refused as a mismatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotStats {
    /// Version of this header's schema.
    pub stats_version: u32,
    /// Models registered in the semantic index.
    pub models: i64,
    /// Total candidate records across all semantic entries.
    pub candidate_records: i64,
    /// Entries in the resource index.
    pub resource_entries: i64,
    /// Publication epoch of the engine state this snapshot captures —
    /// the count of index mutations published before the save. Every
    /// writer stamps one; [`decode_snapshot`] refuses a header without
    /// it, and a negative one.
    pub epoch: Option<i64>,
}

impl SnapshotStats {
    /// Derive the header from live indices at a publication epoch.
    pub fn of(semantic: &SemanticIndex, resource: &ResourceIndex, epoch: u64) -> Self {
        SnapshotStats {
            stats_version: STATS_VERSION,
            models: semantic.len() as i64,
            candidate_records: semantic.candidate_records() as i64,
            resource_entries: resource.len() as i64,
            epoch: Some(epoch as i64),
        }
    }
}

/// Persistence failures.
#[derive(Debug)]
pub enum PersistError {
    /// File I/O failed.
    Io(std::io::Error),
    /// JSON (de)serialization failed.
    Format(String),
    /// The snapshot parsed but declares an unsupported format version.
    Version { found: u32, expected: u32 },
    /// The snapshot decoded but breaks a rule its writers keep.
    Invalid(Violation),
}

/// A rule every snapshot writer keeps and [`decode_snapshot`] checks:
/// each names what a decoded snapshot got wrong. Only an edit behind the
/// library's back (past the `.somb` checksums, or of the JSON text)
/// breaks one.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// The snapshot has no stats header.
    NoStats,
    /// The stats header is not [`STATS_VERSION`].
    StatsVersion(u32),
    /// A header count disagrees with the decoded contents.
    Count {
        field: &'static str,
        stored: i64,
        actual: usize,
    },
    /// The header carries no publication epoch.
    NoEpoch,
    /// The publication epoch is negative.
    NegativeEpoch(i64),
    /// The snapshot holds models at epoch 0, which no publish leaves.
    ZeroEpoch { models: usize },
    /// A semantically indexed key has no resource profile.
    Unprofiled(String),
    /// A stored resource profile holds a NaN or infinite dimension.
    NonFinite(String),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::NoStats => write!(f, "no stats header"),
            Violation::StatsVersion(v) => {
                write!(f, "stats header version {v} (this build reads version {STATS_VERSION})")
            }
            Violation::Count {
                field,
                stored,
                actual,
            } => write!(f, "stats header records {field} {stored} but the snapshot holds {actual}"),
            Violation::NoEpoch => write!(f, "stats header carries no publication epoch"),
            Violation::NegativeEpoch(e) => write!(f, "publication epoch {e} is negative"),
            Violation::ZeroEpoch { models } => {
                write!(f, "{models} model(s) at publication epoch 0, which no publish leaves")
            }
            Violation::Unprofiled(key) => write!(f, "indexed key '{key}' has no resource profile"),
            Violation::NonFinite(key) => write!(f, "resource profile of '{key}' is non-finite"),
        }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "index snapshot I/O error: {e}"),
            PersistError::Format(e) => write!(f, "malformed index snapshot: {e}"),
            PersistError::Version { found, expected } => write!(
                f,
                "unsupported snapshot version {found} (this build reads version {expected})"
            ),
            PersistError::Invalid(v) => write!(f, "invalid index snapshot: {v}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Write both indices to a snapshot file, stamped with the publication
/// epoch the engine reached. The write is crash-safe: it goes through
/// [`Storage::write_atomic`] (temp → fsync → rename), so an interrupted
/// save leaves the previous snapshot intact instead of torn JSON.
pub fn save(
    semantic: &SemanticIndex,
    resource: &ResourceIndex,
    epoch: u64,
    path: &Path,
) -> Result<(), PersistError> {
    save_with(&StdStorage, semantic, resource, epoch, path)
}

/// [`save`] over an explicit storage backend (the fault-injection
/// hook).
pub fn save_with(
    storage: &dyn Storage,
    semantic: &SemanticIndex,
    resource: &ResourceIndex,
    epoch: u64,
    path: &Path,
) -> Result<(), PersistError> {
    let snapshot = IndexSnapshot {
        version: SNAPSHOT_VERSION,
        stats: Some(SnapshotStats::of(semantic, resource, epoch)),
        semantic: semantic.clone(),
        resource: resource.clone(),
    };
    let json = serde_json::to_string(&snapshot).map_err(|e| PersistError::Format(e.to_string()))?;
    storage.write_atomic(path, json.as_bytes())?;
    Ok(())
}

/// Write both indices as a `.somb` binary snapshot, stamped with the
/// publication epoch. Crash-safe through the same
/// [`Storage::write_atomic`] protocol as the JSON path.
pub fn save_binary(
    semantic: &SemanticIndex,
    resource: &ResourceIndex,
    epoch: u64,
    path: &Path,
) -> Result<(), PersistError> {
    save_binary_with(&StdStorage, semantic, resource, epoch, path)
}

/// [`save_binary`] over an explicit storage backend (the
/// fault-injection hook). Publishes the `snapshot.save_ns` metrics
/// counter (encode and durable write).
pub fn save_binary_with(
    storage: &dyn Storage,
    semantic: &SemanticIndex,
    resource: &ResourceIndex,
    epoch: u64,
    path: &Path,
) -> Result<(), PersistError> {
    use sommelier_runtime::metrics::counters;
    let started = std::time::Instant::now();
    let stats = SnapshotStats::of(semantic, resource, epoch);
    let bytes = crate::somb::encode(semantic, resource, Some(&stats));
    storage.write_atomic(path, &bytes)?;
    counters::set("snapshot.save_ns", started.elapsed().as_nanos() as u64);
    Ok(())
}

/// Write an already-assembled snapshot in the given format (the
/// `compact` conversion path — the snapshot is re-encoded verbatim, not
/// rebuilt, so stats and epoch carry over exactly). Publishes the
/// `snapshot.save_ns` metrics counter.
pub fn save_snapshot_as(
    storage: &dyn Storage,
    snapshot: &IndexSnapshot,
    format: SnapshotFormat,
    path: &Path,
) -> Result<(), PersistError> {
    use sommelier_runtime::metrics::counters;
    let started = std::time::Instant::now();
    let bytes = match format {
        SnapshotFormat::Json => serde_json::to_string(snapshot)
            .map_err(|e| PersistError::Format(e.to_string()))?
            .into_bytes(),
        SnapshotFormat::Binary => {
            crate::somb::encode(&snapshot.semantic, &snapshot.resource, snapshot.stats.as_ref())
        }
    };
    storage.write_atomic(path, &bytes)?;
    counters::set("snapshot.save_ns", started.elapsed().as_nanos() as u64);
    Ok(())
}

/// Read and validate a snapshot file without unpacking it — the entry
/// point audit tooling uses so it can inspect the snapshot as stored.
pub fn read_snapshot(path: &Path) -> Result<IndexSnapshot, PersistError> {
    read_snapshot_with(&StdStorage, path)
}

/// [`read_snapshot`] over an explicit storage backend. The format is
/// sniffed from the leading bytes, so either encoding loads through the
/// same call regardless of extension.
pub fn read_snapshot_with(
    storage: &dyn Storage,
    path: &Path,
) -> Result<IndexSnapshot, PersistError> {
    read_snapshot_sniffed_with(storage, path).map(|(snapshot, _)| snapshot)
}

/// [`read_snapshot_with`], also reporting which format served the
/// snapshot. Publishes the `snapshot.{open_ns,bytes_mapped,format}`
/// metrics counters (format: 1 = JSON, 2 = binary).
pub fn read_snapshot_sniffed_with(
    storage: &dyn Storage,
    path: &Path,
) -> Result<(IndexSnapshot, SnapshotFormat), PersistError> {
    use sommelier_runtime::metrics::counters;
    let started = std::time::Instant::now();
    let bytes = storage.read(path)?;
    counters::set("snapshot.bytes_mapped", bytes.len() as u64);
    let (snapshot, format) = decode_snapshot(&bytes)?;
    counters::set("snapshot.open_ns", started.elapsed().as_nanos() as u64);
    counters::set(
        "snapshot.format",
        match format {
            SnapshotFormat::Json => 1,
            SnapshotFormat::Binary => 2,
        },
    );
    Ok((snapshot, format))
}

/// Decode a snapshot image in either format, sniffed from its leading
/// bytes, and refuse it with [`PersistError::Invalid`] unless it keeps
/// every [`Violation`] rule: the one way bytes become an
/// [`IndexSnapshot`].
pub fn decode_snapshot(bytes: &[u8]) -> Result<(IndexSnapshot, SnapshotFormat), PersistError> {
    let (snapshot, format) = if crate::somb::is_binary(bytes) {
        // Binary open: O(1) header validation up front, then section
        // decode.
        (crate::somb::decode(bytes)?, SnapshotFormat::Binary)
    } else {
        let json = std::str::from_utf8(bytes)
            .map_err(|e| PersistError::Format(format!("snapshot is not UTF-8: {e}")))?;
        let snapshot: IndexSnapshot =
            serde_json::from_str(json).map_err(|e| PersistError::Format(e.to_string()))?;
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(PersistError::Version {
                found: snapshot.version,
                expected: SNAPSHOT_VERSION,
            });
        }
        (snapshot, SnapshotFormat::Json)
    };
    check(&snapshot).map_err(PersistError::Invalid)?;
    Ok((snapshot, format))
}

/// The first [`Violation`] a decoded snapshot commits, if any.
fn check(snapshot: &IndexSnapshot) -> Result<(), Violation> {
    let (semantic, resource) = (&snapshot.semantic, &snapshot.resource);
    let stats = snapshot.stats.ok_or(Violation::NoStats)?;
    if stats.stats_version != STATS_VERSION {
        return Err(Violation::StatsVersion(stats.stats_version));
    }
    for (field, stored, actual) in [
        ("models", stats.models, semantic.len()),
        ("candidate_records", stats.candidate_records, semantic.candidate_records()),
        ("resource_entries", stats.resource_entries, resource.len()),
    ] {
        if stored != actual as i64 {
            return Err(Violation::Count {
                field,
                stored,
                actual,
            });
        }
    }
    match stats.epoch {
        None => return Err(Violation::NoEpoch),
        Some(e) if e < 0 => return Err(Violation::NegativeEpoch(e)),
        Some(0) if !semantic.is_empty() => {
            return Err(Violation::ZeroEpoch {
                models: semantic.len(),
            })
        }
        Some(_) => {}
    }
    // One pass each, no sort: the smallest offending key is named.
    let unprofiled = semantic.keys_unordered().filter(|k| resource.profile_of(k).is_none());
    if let Some(key) = unprofiled.min() {
        return Err(Violation::Unprofiled(key.to_string()));
    }
    let non_finite = resource.entries_unordered().filter(|(_, p)| !p.is_finite());
    match non_finite.map(|(key, _)| key).min() {
        Some(key) => Err(Violation::NonFinite(key.to_string())),
        None => Ok(()),
    }
}

/// Load both indices from a snapshot file.
pub fn load(path: &Path) -> Result<(SemanticIndex, ResourceIndex), PersistError> {
    let snapshot = read_snapshot(path)?;
    Ok((snapshot.semantic, snapshot.resource))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::ResourceConstraint;
    use crate::semantic::{PairAnalyzer, SemanticIndexConfig};
    use sommelier_graph::{Model, ModelBuilder, TaskKind};
    use sommelier_parallel::ThreadPool;
    use sommelier_runtime::ResourceProfile;
    use sommelier_tensor::{Prng, Shape};

    struct ConstAnalyzer;
    impl PairAnalyzer for ConstAnalyzer {
        fn whole_diff(&self, _: &Model, _: &Model) -> Option<f64> {
            Some(0.07)
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let mut sem = SemanticIndex::new(SemanticIndexConfig::default(), 1);
        let mut res = ResourceIndex::default();
        let models: Vec<Model> = (0..4)
            .map(|i| {
                let mut rng = Prng::seed_from_u64(i);
                ModelBuilder::new(format!("m{i}"), TaskKind::Other, Shape::vector(4))
                    .dense(2, &mut rng)
                    .build()
                    .unwrap()
            })
            .collect();
        let pool = models.clone();
        let resolve = move |k: &str| pool.iter().find(|m| m.name == k).cloned();
        sem.apply(&ThreadPool::new(1), &[], &models, &resolve, &ConstAnalyzer);
        for (i, m) in models.iter().enumerate() {
            res.insert(
                &m.name,
                ResourceProfile {
                    memory_mb: i as f64 + 1.0,
                    gflops: 1.0,
                    latency_ms: 1.0,
                },
            );
        }

        let path = std::env::temp_dir().join(format!("sommelier-snap-{}.json", std::process::id()));
        save(&sem, &res, 4, &path).unwrap();
        let (sem2, res2) = load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(sem2.len(), sem.len());
        // Scores may lose a final ulp through JSON; compare structure and
        // the exact diff bounds.
        let (a, b) = (sem2.candidates_of("m3"), sem.candidates_of("m3"));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.kind, y.kind);
            assert!((x.diff_bound - y.diff_bound).abs() < 1e-12);
            assert!((x.score - y.score).abs() < 1e-12);
        }
        let c = ResourceConstraint {
            max_memory_mb: Some(2.5),
            ..Default::default()
        };
        assert_eq!(res2.query(&c), res.query(&c));
    }

    #[test]
    fn snapshot_carries_a_content_derived_stats_header() {
        let mut sem = SemanticIndex::new(SemanticIndexConfig::default(), 1);
        let mut res = ResourceIndex::default();
        let models: Vec<Model> = (0..3)
            .map(|i| {
                let mut rng = Prng::seed_from_u64(i + 40);
                ModelBuilder::new(format!("s{i}"), TaskKind::Other, Shape::vector(4))
                    .dense(2, &mut rng)
                    .build()
                    .unwrap()
            })
            .collect();
        let pool = models.clone();
        let resolve = move |k: &str| pool.iter().find(|m| m.name == k).cloned();
        sem.apply(&ThreadPool::new(1), &[], &models, &resolve, &ConstAnalyzer);
        for m in &models {
            res.insert(
                &m.name,
                ResourceProfile {
                    memory_mb: 1.0,
                    gflops: 1.0,
                    latency_ms: 1.0,
                },
            );
        }
        let path =
            std::env::temp_dir().join(format!("sommelier-stats-{}.json", std::process::id()));
        save(&sem, &res, 3, &path).unwrap();
        let snap = read_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let stats = snap.stats.expect("save() writes a stats header");
        assert_eq!(stats.stats_version, STATS_VERSION);
        assert_eq!(stats.models, 3);
        assert_eq!(stats.resource_entries, 3);
        assert_eq!(stats.epoch, Some(3), "save stamps the publication epoch");
        let expected: i64 = snap
            .semantic
            .entries_audit()
            .iter()
            .map(|(_, _, r)| r.len() as i64)
            .sum();
        assert_eq!(stats.candidate_records, expected);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load(Path::new("/nonexistent/snap.json")).unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
    }

    #[test]
    fn version_mismatch_is_typed() {
        let sem = SemanticIndex::new(SemanticIndexConfig::default(), 1);
        let res = ResourceIndex::default();
        let path =
            std::env::temp_dir().join(format!("sommelier-vers-{}.json", std::process::id()));
        save(&sem, &res, 0, &path).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, json.replacen("\"version\":3", "\"version\":9", 1)).unwrap();
        let err = load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            err,
            PersistError::Version {
                found: 9,
                expected: SNAPSHOT_VERSION
            }
        ));
    }

    #[test]
    fn interrupted_save_preserves_the_previous_snapshot() {
        use sommelier_fault::{FaultPlan, FaultyStorage};
        let sem = SemanticIndex::new(SemanticIndexConfig::default(), 1);
        let res = ResourceIndex::default();
        let path = std::env::temp_dir().join(format!(
            "sommelier-atomic-{}.json",
            std::process::id()
        ));
        save(&sem, &res, 1, &path).unwrap();
        let before = std::fs::read(&path).unwrap();
        // Crash every primitive step of the atomic save (write, fsync,
        // rename): the on-disk snapshot must stay byte-identical.
        for at in 0..3 {
            let faulty = FaultyStorage::new(StdStorage, FaultPlan::crash_at(42, at));
            let err = save_with(&faulty, &sem, &res, 2, &path).unwrap_err();
            assert!(matches!(err, PersistError::Io(_)));
            assert_eq!(std::fs::read(&path).unwrap(), before, "torn at op {at}");
            let snap = read_snapshot(&path).unwrap();
            assert_eq!(snap.stats.unwrap().epoch, Some(1));
        }
        // Clean up the snapshot and any stranded temp siblings.
        for name in StdStorage.list(&std::env::temp_dir()).unwrap() {
            if name.starts_with(&format!("sommelier-atomic-{}", std::process::id())) {
                std::fs::remove_file(std::env::temp_dir().join(name)).ok();
            }
        }
    }

    #[test]
    fn binary_snapshot_round_trips_and_is_sniffed() {
        let mut sem = SemanticIndex::new(SemanticIndexConfig::default(), 1);
        let mut res = ResourceIndex::default();
        let models: Vec<Model> = (0..4)
            .map(|i| {
                let mut rng = Prng::seed_from_u64(i + 90);
                ModelBuilder::new(format!("b{i}"), TaskKind::Other, Shape::vector(4))
                    .dense(2, &mut rng)
                    .build()
                    .unwrap()
            })
            .collect();
        let pool = models.clone();
        let resolve = move |k: &str| pool.iter().find(|m| m.name == k).cloned();
        sem.apply(&ThreadPool::new(1), &[], &models, &resolve, &ConstAnalyzer);
        for (i, m) in models.iter().enumerate() {
            res.insert(
                &m.name,
                ResourceProfile {
                    memory_mb: i as f64 + 1.0,
                    gflops: 0.25 * (i as f64 + 1.0),
                    latency_ms: 0.125,
                },
            );
        }
        let dir = std::env::temp_dir();
        let jpath = dir.join(format!("sommelier-fmt-{}.json", std::process::id()));
        let bpath = dir.join(format!("sommelier-fmt-{}.somb", std::process::id()));
        save(&sem, &res, 7, &jpath).unwrap();
        save_binary(&sem, &res, 7, &bpath).unwrap();

        let (jsnap, jfmt) = read_snapshot_sniffed_with(&StdStorage, &jpath).unwrap();
        let (bsnap, bfmt) = read_snapshot_sniffed_with(&StdStorage, &bpath).unwrap();
        std::fs::remove_file(&jpath).ok();
        std::fs::remove_file(&bpath).ok();
        assert_eq!(jfmt, SnapshotFormat::Json);
        assert_eq!(bfmt, SnapshotFormat::Binary);
        // Both load paths construct the same indices, to the JSON byte.
        assert_eq!(
            serde_json::to_string(&jsnap.semantic).unwrap(),
            serde_json::to_string(&bsnap.semantic).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&jsnap.resource).unwrap(),
            serde_json::to_string(&bsnap.resource).unwrap()
        );
        assert_eq!(jsnap.stats, bsnap.stats);
        assert_eq!(bsnap.stats.unwrap().epoch, Some(7));
        // The open metrics counters were published (values race with
        // concurrent tests that also open snapshots, so only presence
        // and range are asserted here).
        use sommelier_runtime::metrics::counters;
        assert!(matches!(counters::get("snapshot.format"), 1 | 2));
        assert!(counters::get("snapshot.bytes_mapped") > 0);
        assert!(counters::get("snapshot.save_ns") > 0);
    }

    #[test]
    fn interrupted_binary_save_preserves_the_previous_snapshot() {
        use sommelier_fault::{FaultPlan, FaultyStorage};
        let sem = SemanticIndex::new(SemanticIndexConfig::default(), 1);
        let res = ResourceIndex::default();
        let path = std::env::temp_dir().join(format!(
            "sommelier-batomic-{}.somb",
            std::process::id()
        ));
        save_binary(&sem, &res, 1, &path).unwrap();
        let before = std::fs::read(&path).unwrap();
        for at in 0..3 {
            let faulty = FaultyStorage::new(StdStorage, FaultPlan::crash_at(43, at));
            let err = save_binary_with(&faulty, &sem, &res, 2, &path).unwrap_err();
            assert!(matches!(err, PersistError::Io(_)));
            assert_eq!(std::fs::read(&path).unwrap(), before, "torn at op {at}");
            let snap = read_snapshot(&path).unwrap();
            assert_eq!(snap.stats.unwrap().epoch, Some(1));
        }
        for name in StdStorage.list(&std::env::temp_dir()).unwrap() {
            if name.starts_with(&format!("sommelier-batomic-{}", std::process::id())) {
                std::fs::remove_file(std::env::temp_dir().join(name)).ok();
            }
        }
    }

    #[test]
    fn format_selection_follows_the_extension() {
        assert_eq!(
            SnapshotFormat::for_path(Path::new("/a/sommelier.index.somb")),
            SnapshotFormat::Binary
        );
        assert_eq!(
            SnapshotFormat::for_path(Path::new("/a/sommelier.index.json")),
            SnapshotFormat::Json
        );
        assert_eq!(
            SnapshotFormat::for_path(Path::new("/a/noext")),
            SnapshotFormat::Json
        );
    }

    #[test]
    fn garbage_is_format_error() {
        let path = std::env::temp_dir().join(format!("sommelier-garbage-{}.json", std::process::id()));
        std::fs::write(&path, "not json").unwrap();
        let err = load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, PersistError::Format(_)));
    }

    #[test]
    fn a_forged_edge_row_is_a_format_error() {
        // A row whose `hi` names no entry parses as JSON, but the next
        // `apply` to reach it would panic: the load refuses it instead,
        // and refuses a semantic index with no edge table at all.
        let mut sem = SemanticIndex::new(SemanticIndexConfig::default(), 1);
        let models: Vec<Model> = (0..4)
            .map(|i| {
                let mut rng = Prng::seed_from_u64(i + 70);
                ModelBuilder::new(format!("e{i}"), TaskKind::Other, Shape::vector(4))
                    .dense(2, &mut rng)
                    .build()
                    .unwrap()
            })
            .collect();
        let pool = models.clone();
        let resolve = move |k: &str| pool.iter().find(|m| m.name == k).cloned();
        sem.apply(&ThreadPool::new(1), &[], &models, &resolve, &ConstAnalyzer);
        let last = sem.edge_rows().pop().expect("four models share edges");
        assert!(!sem.contains_fingerprint(sommelier_graph::Fingerprint(last.hi + 1)));
        let path =
            std::env::temp_dir().join(format!("sommelier-edges-{}.json", std::process::id()));
        let res = models.iter().map(|m| (m.name.clone(), ResourceProfile::of(m))).collect();
        save(&sem, &res, 1, &path).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let start = json.find("\"edges\":[").unwrap();
        let end = start + json[start..].find(']').unwrap();
        let forged_row = format!(
            r#",{{"lo":{},"hi":{},"fwd":0.5,"rev":null,"seg_fwd":null,"seg_rev":null}}"#,
            last.lo,
            last.hi + 1
        );
        let forged = [&json[..end], &forged_row, &json[end..]].concat();
        let edgeless = [&json[..start - 1], &json[end + 1..]].concat();
        for (what, text) in [
            ("unforged", &json),
            ("forged", &forged),
            ("edgeless", &edgeless),
        ] {
            std::fs::write(&path, text).unwrap();
            let read = load(&path);
            assert_eq!(read.is_ok(), what == "unforged", "{what}");
            if let Err(err) = read {
                assert!(matches!(err, PersistError::Format(_)), "{what}: {err}");
            }
        }
        std::fs::remove_file(&path).ok();
    }
    /// Three indexed models with candidates between them, their
    /// profiles, and the header that fits them at epoch 3.
    struct Fixture {
        sem: SemanticIndex,
        res: ResourceIndex,
        stats: SnapshotStats,
    }

    fn fixture() -> Fixture {
        let mut sem = SemanticIndex::new(SemanticIndexConfig::default(), 1);
        let models: Vec<Model> = (0..3)
            .map(|i| {
                let mut rng = Prng::seed_from_u64(i + 120);
                ModelBuilder::new(format!("r{i}"), TaskKind::Other, Shape::vector(4))
                    .dense(2, &mut rng)
                    .build()
                    .unwrap()
            })
            .collect();
        let pool = models.clone();
        let resolve = move |k: &str| pool.iter().find(|m| m.name == k).cloned();
        sem.apply(&ThreadPool::new(1), &[], &models, &resolve, &ConstAnalyzer);
        let res: ResourceIndex =
            models.iter().map(|m| (m.name.clone(), ResourceProfile::of(m))).collect();
        let stats = SnapshotStats::of(&sem, &res, 3);
        assert!(stats.candidate_records > 0, "the fixture has candidates to count");
        Fixture { sem, res, stats }
    }

    /// A scratch directory of its own for each test, which run in
    /// parallel.
    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sommelier-rule-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A latency the JSON text can carry until it is edited to one it
    /// cannot spell but reads: `1e999` is +inf. The `.somb` image holds
    /// a NaN in its place.
    const SENTINEL: f64 = 12345.5;

    /// Write the fixture under `stats`, with `plant` applied to its
    /// resource index, as a JSON image and as a `.somb` image with
    /// valid CRCs, and assert that each read refuses it as `rule`.
    fn assert_refused(
        tag: &str,
        fx: &Fixture,
        rule: Violation,
        stats: Option<SnapshotStats>,
        plant: impl Fn(&mut ResourceIndex),
    ) {
        let dir = scratch(tag);
        let (jpath, bpath) = (dir.join("rule.json"), dir.join("rule.somb"));
        let mut resource = fx.res.clone();
        plant(&mut resource);
        let snapshot = IndexSnapshot {
            version: SNAPSHOT_VERSION,
            stats,
            semantic: fx.sem.clone(),
            resource: resource.clone(),
        };
        let json = serde_json::to_string(&snapshot).unwrap();
        std::fs::write(&jpath, json.replace(&format!("{SENTINEL:?}"), "1e999")).unwrap();
        if let Violation::NonFinite(key) = &rule {
            let profile = resource.profile_of(key).cloned().unwrap();
            resource.insert(key.clone(), ResourceProfile { latency_ms: f64::NAN, ..profile });
        }
        // `encode` stamps valid CRCs: only the rule is broken.
        std::fs::write(&bpath, crate::somb::encode(&fx.sem, &resource, stats.as_ref())).unwrap();
        assert!(crate::somb::decode(&std::fs::read(&bpath).unwrap()).is_ok());
        for path in [&jpath, &bpath] {
            match read_snapshot_with(&StdStorage, path) {
                Err(PersistError::Invalid(found)) => assert_eq!(found, rule, "{path:?}"),
                other => panic!("{rule} in {path:?}: {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Save both indices at `epoch` in both formats through the real
    /// writers and assert that each image reads.
    fn assert_reads(tag: &str, sem: &SemanticIndex, res: &ResourceIndex, epoch: u64) {
        let dir = scratch(tag);
        let (jpath, bpath) = (dir.join("ok.json"), dir.join("ok.somb"));
        save(sem, res, epoch, &jpath).unwrap();
        save_binary(sem, res, epoch, &bpath).unwrap();
        for path in [&jpath, &bpath] {
            let snap = read_snapshot_with(&StdStorage, path).unwrap();
            assert_eq!(snap.stats, Some(SnapshotStats::of(sem, res, epoch)), "{path:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_snapshot_without_a_stats_header_is_refused() {
        let fx = fixture();
        assert_refused("nostats", &fx, Violation::NoStats, None, |_| {});
    }

    #[test]
    fn a_pre_stats_json_image_is_refused() {
        // A snapshot written before the stats header existed has no
        // `stats` member at all: it parses to `None` and is refused like
        // any header-less image, so the engine rebuilds it.
        let sem = SemanticIndex::new(SemanticIndexConfig::default(), 1);
        let res = ResourceIndex::default();
        let path =
            std::env::temp_dir().join(format!("sommelier-nostats-{}.json", std::process::id()));
        save(&sem, &res, 0, &path).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        // The stats value is a flat object: drop the member, its closing
        // brace and its trailing comma.
        let start = json.find("\"stats\":").expect("stats field present");
        let close = start + json[start..].find('}').unwrap();
        let tail = &json[close + 1..];
        let stripped = [&json[..start], tail.strip_prefix(',').unwrap_or(tail)].concat();
        assert!(!stripped.contains("\"stats\""), "{stripped}");
        std::fs::write(&path, stripped).unwrap();
        let read = read_snapshot(&path);
        std::fs::remove_file(&path).ok();
        match read {
            Err(PersistError::Invalid(Violation::NoStats)) => {}
            other => panic!("a pre-stats image: {other:?}"),
        }
    }

    #[test]
    fn another_stats_version_is_refused_before_its_counts_are_read() {
        let fx = fixture();
        let version = STATS_VERSION + 1;
        let stats = SnapshotStats {
            stats_version: version,
            models: -3,
            ..fx.stats
        };
        assert_refused("version-counts", &fx, Violation::StatsVersion(version), Some(stats), |_| {});
    }

    #[test]
    fn another_stats_version_is_refused_before_its_epoch_is_read() {
        let fx = fixture();
        let version = STATS_VERSION + 1;
        let stats = SnapshotStats {
            stats_version: version,
            epoch: None,
            ..fx.stats
        };
        assert_refused("version-epoch", &fx, Violation::StatsVersion(version), Some(stats), |_| {});
    }

    #[test]
    fn a_negative_count_is_refused() {
        let fx = fixture();
        let rule = Violation::Count {
            field: "models",
            stored: -3,
            actual: 3,
        };
        let stats = SnapshotStats { models: -3, ..fx.stats };
        assert_refused("negative-count", &fx, rule, Some(stats), |_| {});
    }

    #[test]
    fn each_count_off_by_one_is_refused() {
        let fx = fixture();
        for delta in [-1, 1] {
            for field in ["models", "candidate_records", "resource_entries"] {
                let mut forged = fx.stats;
                let slot = match field {
                    "models" => &mut forged.models,
                    "candidate_records" => &mut forged.candidate_records,
                    _ => &mut forged.resource_entries,
                };
                let actual = *slot as usize;
                *slot += delta;
                let rule = Violation::Count {
                    field,
                    stored: *slot,
                    actual,
                };
                assert_refused(&format!("{field}{delta}"), &fx, rule, Some(forged), |_| {});
            }
        }
    }

    #[test]
    fn a_header_without_an_epoch_is_refused() {
        let fx = fixture();
        let stats = SnapshotStats { epoch: None, ..fx.stats };
        assert_refused("no-epoch", &fx, Violation::NoEpoch, Some(stats), |_| {});
    }

    #[test]
    fn a_negative_epoch_or_models_at_epoch_zero_are_refused() {
        let fx = fixture();
        for (rule, epoch) in [
            (Violation::NegativeEpoch(-1), -1),
            (Violation::ZeroEpoch { models: 3 }, 0),
        ] {
            let stats = SnapshotStats {
                epoch: Some(epoch),
                ..fx.stats
            };
            assert_refused(&format!("epoch{epoch}"), &fx, rule, Some(stats), |_| {});
        }
    }

    #[test]
    fn an_unprofiled_key_or_a_non_finite_profile_is_refused() {
        let fx = fixture();
        let profile = fx.res.profile_of("r1").cloned().unwrap();
        assert_refused("non-finite", &fx, Violation::NonFinite("r1".into()), Some(fx.stats), |r| {
            r.insert("r1", ResourceProfile { latency_ms: SENTINEL, ..profile })
        });
        let stats = SnapshotStats {
            resource_entries: fx.stats.resource_entries - 1,
            ..fx.stats
        };
        assert_refused("unprofiled", &fx, Violation::Unprofiled("r2".into()), Some(stats), |r| {
            assert!(r.remove("r2"))
        });
    }

    #[test]
    fn a_consistent_header_decodes_in_both_formats() {
        let fx = fixture();
        assert_reads("consistent", &fx.sem, &fx.res, 3);
    }

    #[test]
    fn a_well_formed_epoch_decodes() {
        // Epoch 0 is where every engine starts, with an empty index; the
        // first publish leaves epoch 1.
        let empty = SemanticIndex::new(SemanticIndexConfig::default(), 1);
        assert_reads("epoch0", &empty, &ResourceIndex::default(), 0);
        let fx = fixture();
        assert_reads("epoch1", &fx.sem, &fx.res, 1);
    }
}
