//! The one reader of the store directory.
//!
//! Three decisions live here and nowhere else: how a file name maps to
//! what the file is ([`classify`], [`classify_chunk`]), what is wrong
//! with a store ([`scan_store`], over the pure [`cross_check`]), and
//! what repair does about each kind of finding ([`repair_store`]).
//! `sommelier fsck`, the lint layer's store-hygiene pass and
//! [`crate::OnDiskRepository`] all read the directory through these.

use crate::chunks::{
    chunk_hash, list_chunk_dir, Manifest, CHUNK_DIR, CHUNK_SUFFIX, MANIFEST_SUFFIX,
};
use crate::store::{decode_key, MODEL_SUFFIX};
use sommelier_fault::storage::{is_quarantine_name, is_temp_name};
use sommelier_fault::{quarantine, Storage};
use sommelier_graph::serde_model;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

/// What a file name in the store root says the file is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreEntry {
    /// Flat model file of this key.
    Model(String),
    /// Chunk manifest of this key.
    Manifest(String),
    /// Model or manifest suffix over a stem that is not the canonical
    /// encoding of any key: never listed, never written by us.
    NonCanonical,
    /// Temp sibling of an atomic write.
    Temp,
    /// Artifact set aside by [`quarantine`].
    Quarantine,
    /// Not the store's business (index snapshots, `chunks/`, notes).
    Other,
}

/// Classify a file name of the store root. The suffix test comes
/// first: temp and quarantine names append their marker *after* the
/// suffix, so a key that merely contains `.tmp-` stays a key.
pub fn classify(name: &str) -> StoreEntry {
    if let Some(stem) = name.strip_suffix(MODEL_SUFFIX) {
        decode_key(stem).map_or(StoreEntry::NonCanonical, StoreEntry::Model)
    } else if let Some(stem) = name.strip_suffix(MANIFEST_SUFFIX) {
        decode_key(stem).map_or(StoreEntry::NonCanonical, StoreEntry::Manifest)
    } else if is_quarantine_name(name) {
        StoreEntry::Quarantine
    } else if is_temp_name(name) {
        StoreEntry::Temp
    } else {
        StoreEntry::Other
    }
}

/// What a file name inside `chunks/` says the file is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkEntry<'a> {
    /// Canonical chunk name (32 lowercase hex chars + `.chunk`),
    /// carrying the content hash it claims.
    Chunk(&'a str),
    Temp,
    Quarantine,
    /// Anything else: no manifest can reference it.
    Stray,
}

/// Classify a file name of the `chunks/` namespace.
pub fn classify_chunk(name: &str) -> ChunkEntry<'_> {
    let canonical = |stem: &&str| {
        stem.len() == 32 && stem.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
    };
    if let Some(hash) = name.strip_suffix(CHUNK_SUFFIX).filter(canonical) {
        ChunkEntry::Chunk(hash)
    } else if is_quarantine_name(name) {
        ChunkEntry::Quarantine
    } else if is_temp_name(name) {
        ChunkEntry::Temp
    } else {
        ChunkEntry::Stray
    }
}

/// Follow delta-base links from `start` until a key stored without a
/// base; `false` when a key repeats first (a cycle). `base_of` answers
/// `Ok(None)` for a key that needs no base and fails for one that is
/// not stored.
pub(crate) fn base_chain_terminates<E>(
    start: &str,
    mut base_of: impl FnMut(&str) -> Result<Option<String>, E>,
) -> Result<bool, E> {
    let mut seen = BTreeSet::new();
    let mut cur = start.to_string();
    while seen.insert(cur.clone()) {
        match base_of(&cur)? {
            Some(next) => cur = next,
            None => return Ok(true),
        }
    }
    Ok(false)
}

/// Every way a store file can be wrong.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FindingKind {
    /// Set aside by [`quarantine`] and still on disk.
    Quarantined,
    /// Left behind by an interrupted atomic write.
    OrphanedTemp,
    /// See [`StoreEntry::NonCanonical`].
    NonCanonicalName,
    UnreadableModel,
    UnreadableManifest,
    /// Content does not hash to the name; the chunk counts as absent.
    CorruptChunk,
    /// See [`ChunkEntry::Stray`].
    StrayChunkFile,
    /// Referenced by no manifest that can be loaded.
    OrphanedChunk,
    /// The manifest names a chunk that is absent.
    DanglingChunkRef,
    /// Base chain reaches a key that cannot be loaded, or cycles.
    BrokenDeltaBase,
}

/// What [`repair_store`] does about a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fix {
    /// Deleted under `--prune`.
    Prune,
    /// Deleted under `--repair`.
    Remove,
    /// Quarantined under `--repair` (and the fresh quarantine deleted
    /// under `--prune`).
    Quarantine,
    /// Never touched: the operator has to republish.
    Manual,
}

impl Fix {
    /// What to tell the operator, in every report.
    pub fn hint(self) -> &'static str {
        match self {
            Fix::Prune => "remove with `sommelier fsck --prune`",
            Fix::Remove => "remove with `sommelier fsck --repair`",
            Fix::Quarantine => "restore it, or quarantine with `sommelier fsck --repair`",
            Fix::Manual => "republish through the repository API and delete the file",
        }
    }
}

impl FindingKind {
    /// The kind's short name and what repair does about it.
    fn row(self) -> (&'static str, Fix) {
        match self {
            FindingKind::Quarantined => ("quarantined file", Fix::Prune),
            FindingKind::OrphanedTemp => ("orphaned temp file", Fix::Remove),
            FindingKind::NonCanonicalName => ("non-canonical file name", Fix::Manual),
            FindingKind::UnreadableModel => ("unreadable model file", Fix::Quarantine),
            FindingKind::UnreadableManifest => ("unreadable manifest file", Fix::Quarantine),
            FindingKind::CorruptChunk => ("corrupt chunk", Fix::Quarantine),
            FindingKind::StrayChunkFile => ("stray file in chunk dir", Fix::Remove),
            FindingKind::OrphanedChunk => ("orphaned chunk", Fix::Remove),
            FindingKind::DanglingChunkRef => ("dangling chunk reference(s)", Fix::Quarantine),
            FindingKind::BrokenDeltaBase => ("broken delta base", Fix::Quarantine),
        }
    }

    /// Short name of the finding, shared by every report.
    pub fn label(self) -> &'static str {
        self.row().0
    }

    pub fn fix(self) -> Fix {
        self.row().1
    }
}

/// One thing wrong with one file. A scan reports at most one finding
/// per file, so repair touches each file once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub kind: FindingKind,
    /// Path relative to the store root (`name` or `chunks/name`).
    pub file: String,
    /// The kind's label, then whatever the scan knows beyond it (the
    /// parse error, the missing hash, the lost base).
    pub message: String,
}

impl Finding {
    fn new(kind: FindingKind, file: impl Into<String>, detail: &str) -> Finding {
        let message = match detail {
            "" => kind.label().to_string(),
            detail => format!("{}: {detail}", kind.label()),
        };
        Finding {
            kind,
            file: file.into(),
            message,
        }
    }
}

/// Outcome of [`scan_store`].
#[derive(Clone, Debug, Default)]
pub struct StoreScan {
    /// Directory entries looked at (root and `chunks/`).
    pub files_checked: usize,
    pub findings: Vec<Finding>,
}

fn chunk_path(name: &str) -> String {
    format!("{CHUNK_DIR}/{name}")
}

/// The half of the scan that needs no directory: compare the names of
/// the store root (`files`) and of `chunks/` (`chunk_files`) with the
/// manifests that parsed (by file name). A chunk whose content failed
/// verification counts as absent and is left out of `chunk_files`.
///
/// A manifest is *loadable* when every chunk it names is present and
/// its base chain ends, through loadable manifests, at a flat file or
/// a full manifest; every other manifest is a finding, so one repair
/// pass sets aside a manifest that lost a chunk together with every
/// delta that `load`s through it. A chunk is orphaned only when *no*
/// parsed manifest names it: the chunks of a manifest just
/// quarantined wait for the next pass, after the operator has seen
/// what was lost.
pub fn cross_check(
    files: &[String],
    chunk_files: &[String],
    manifests: &BTreeMap<String, Manifest>,
) -> Vec<Finding> {
    use FindingKind::*;
    let mut out = Vec::new();
    let mut flat = BTreeSet::new();
    for name in files {
        let kind = match classify(name) {
            StoreEntry::Model(key) => {
                flat.insert(key);
                continue;
            }
            StoreEntry::Quarantine => Quarantined,
            StoreEntry::Temp => OrphanedTemp,
            StoreEntry::NonCanonical => NonCanonicalName,
            StoreEntry::Manifest(_) | StoreEntry::Other => continue,
        };
        out.push(Finding::new(kind, name, ""));
    }
    // Chunks by content hash.
    let mut present = BTreeMap::new();
    for name in chunk_files {
        let kind = match classify_chunk(name) {
            ChunkEntry::Chunk(hash) => {
                present.insert(hash, name);
                continue;
            }
            ChunkEntry::Quarantine => Quarantined,
            ChunkEntry::Temp => OrphanedTemp,
            ChunkEntry::Stray => StrayChunkFile,
        };
        out.push(Finding::new(kind, chunk_path(name), ""));
    }
    // Manifests with every chunk present, by key; the base-chain walk
    // below decides which of them are loadable.
    let mut whole = BTreeMap::new();
    for (file, manifest) in manifests {
        let missing: BTreeSet<&str> = manifest
            .chunk_refs()
            .into_iter()
            .filter(|hash| !present.contains_key(hash))
            .collect();
        if let Some(first) = missing.first() {
            let detail = format!("{} chunk(s) absent (first: {first})", missing.len());
            out.push(Finding::new(DanglingChunkRef, file, &detail));
        } else if let StoreEntry::Manifest(key) = classify(file) {
            whole.insert(key, (file, manifest));
        }
    }
    for (key, (file, _)) in &whole {
        // The flat file wins on load, so a chain ends at one.
        let chain = base_chain_terminates(key, |cur| match whole.get(cur) {
            _ if flat.contains(cur) => Ok(None),
            Some((_, m)) => Ok(m.base.clone()),
            None => Err(format!("base chain reaches '{cur}', which is not loadable")),
        });
        match chain {
            Ok(true) => {}
            Ok(false) => out.push(Finding::new(BrokenDeltaBase, *file, "base chain cycles")),
            Err(lost) => out.push(Finding::new(BrokenDeltaBase, *file, &lost)),
        }
    }
    let referenced: BTreeSet<&str> = manifests.values().flat_map(Manifest::chunk_refs).collect();
    for (hash, name) in present {
        if !referenced.contains(hash) {
            out.push(Finding::new(OrphanedChunk, chunk_path(name), ""));
        }
    }
    out
}

/// Read a store file as text and parse it.
fn read_parsed<T>(
    storage: &dyn Storage,
    path: &Path,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, String> {
    let bytes = storage.read(path).map_err(|e| e.to_string())?;
    let text = String::from_utf8(bytes).map_err(|e| e.to_string())?;
    parse(&text)
}

/// Walk the store at `dir` and report everything wrong with it: every
/// model and manifest must parse, every chunk must hash to its name,
/// and the names, chunk references and base chains must agree
/// ([`cross_check`]). Fails only when a directory cannot be listed.
pub fn scan_store(storage: &dyn Storage, dir: &Path) -> io::Result<StoreScan> {
    use FindingKind::*;
    let mut files = storage.list(dir)?;
    files.sort();
    let chunk_dir = dir.join(CHUNK_DIR);
    let mut chunk_files = list_chunk_dir(storage, &chunk_dir)?;
    chunk_files.sort();
    let mut findings = Vec::new();
    let mut manifests = BTreeMap::new();
    for name in &files {
        let path = dir.join(name);
        match classify(name) {
            StoreEntry::Model(_) => {
                let parse = |text: &str| serde_model::from_json(text).map_err(|e| e.to_string());
                if let Err(e) = read_parsed(storage, &path, parse) {
                    findings.push(Finding::new(UnreadableModel, name, &e));
                }
            }
            StoreEntry::Manifest(_) => match read_parsed(storage, &path, Manifest::from_json) {
                Ok(manifest) => {
                    manifests.insert(name.clone(), manifest);
                }
                Err(e) => findings.push(Finding::new(UnreadableManifest, name, &e)),
            },
            _ => {}
        }
    }
    let files_checked = files.len() + chunk_files.len();
    chunk_files.retain(|name| {
        let ChunkEntry::Chunk(hash) = classify_chunk(name) else {
            return true;
        };
        let detail = match storage.read(&chunk_dir.join(name)) {
            Ok(bytes) if chunk_hash(&bytes) == hash => return true,
            Ok(_) => "content does not match its hash".to_string(),
            Err(e) => e.to_string(),
        };
        findings.push(Finding::new(CorruptChunk, chunk_path(name), &detail));
        false
    });
    findings.extend(cross_check(&files, &chunk_files, &manifests));
    Ok(StoreScan {
        files_checked,
        findings,
    })
}

/// What [`repair_store`] did about one finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Reported only.
    Left,
    Removed,
    /// Moved aside under this file name (and, under `--prune`, that
    /// fresh quarantine deleted in the same run).
    Quarantined(String),
}

/// Apply each finding's [`Fix`], returning one outcome per finding in
/// order. `repair` enables removal and quarantine, `prune` the
/// deletion of quarantined files; with neither, nothing is touched.
/// Every step leaves every loadable key loadable, so a crash between
/// any two is safe and a rerun finishes the job. This is the store's
/// only prune site.
pub fn repair_store(
    storage: &dyn Storage,
    dir: &Path,
    scan: &StoreScan,
    repair: bool,
    prune: bool,
) -> io::Result<Vec<Outcome>> {
    let mut outcomes = Vec::with_capacity(scan.findings.len());
    for finding in &scan.findings {
        let path = dir.join(&finding.file);
        outcomes.push(match finding.kind.fix() {
            Fix::Prune if prune => storage.remove(&path).map(|()| Outcome::Removed)?,
            Fix::Remove if repair => storage.remove(&path).map(|()| Outcome::Removed)?,
            Fix::Quarantine if repair => {
                let moved = quarantine(storage, &path)?;
                if prune {
                    storage.remove(&moved)?;
                }
                let to = moved.file_name().and_then(|n| n.to_str()).unwrap_or("?");
                Outcome::Quarantined(to.to_string())
            }
            _ => Outcome::Left,
        });
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelRepository, OnDiskRepository};
    use sommelier_fault::StdStorage;
    use sommelier_graph::{Model, ModelBuilder, TaskKind};
    use sommelier_tensor::{Prng, Shape};

    #[test]
    fn names_classify_once_for_every_reader() {
        use StoreEntry::*;
        for (name, want) in [
            ("alpha.model.json", Model("alpha".into())),
            ("a%2Fb.manifest.json", Manifest("a/b".into())),
            // A key may contain the temp marker; the suffix decides.
            ("x.tmp-1.model.json", Model("x.tmp-1".into())),
            ("a%2fb.model.json", NonCanonical),
            ("nul%0.manifest.json", NonCanonical),
            ("alpha.model.json.tmp-123-7", Temp),
            ("sommelier.index.json.corrupt-1700000000", Quarantine),
            ("sommelier.index.json", Other),
            ("chunks", Other),
        ] {
            assert_eq!(classify(name), want, "{name}");
        }
        let hash = chunk_hash(b"x");
        let name = format!("{hash}{CHUNK_SUFFIX}");
        assert_eq!(classify_chunk(&name), ChunkEntry::Chunk(&hash));
        assert_eq!(classify_chunk(&format!("{name}.tmp-1-1")), ChunkEntry::Temp);
        assert_eq!(
            classify_chunk(&format!("{name}.corrupt-9")),
            ChunkEntry::Quarantine
        );
        assert_eq!(classify_chunk("deadbeef.chunk"), ChunkEntry::Stray);
        assert_eq!(classify_chunk(&name.to_uppercase()), ChunkEntry::Stray);
    }

    fn model(name: &str) -> Model {
        ModelBuilder::new(name, TaskKind::Other, Shape::vector(4))
            .dense(2, &mut Prng::seed_from_u64(1))
            .build()
            .unwrap()
    }

    fn manifest(base: Option<&str>, chunks: &[&str]) -> Manifest {
        Manifest {
            format_version: crate::chunks::MANIFEST_VERSION,
            base: base.map(String::from),
            skeleton: model("m").strip_params().0,
            layers: vec![crate::chunks::LayerDelta {
                layer: 1,
                replace: true,
                weight: Some(crate::chunks::TensorRef {
                    rows: 2,
                    cols: 4,
                    chunks: chunks.iter().map(|s| s.to_string()).collect(),
                    sparse: None,
                }),
                bias: None,
            }],
        }
    }

    fn hex(fill: char) -> String {
        fill.to_string().repeat(32)
    }

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// `(kind, file)` of every finding, sorted.
    fn summary(findings: &[Finding]) -> Vec<(FindingKind, String)> {
        let mut out: Vec<_> = findings.iter().map(|f| (f.kind, f.file.clone())).collect();
        out.sort();
        out
    }

    /// One planted defect: the listing (root names, `chunks/` names,
    /// parsed manifests) and exactly the findings it must produce.
    struct Row {
        what: &'static str,
        files: Vec<&'static str>,
        chunk_files: Vec<String>,
        manifests: Vec<(&'static str, Manifest)>,
        want: Vec<(FindingKind, String)>,
    }

    #[test]
    fn cross_check_reports_each_planted_kind_on_its_file() {
        use FindingKind::*;
        let (a, b) = (hex('a'), hex('b'));
        let chunk = |h: &str| format!("{h}{CHUNK_SUFFIX}");
        let in_chunks = |name: String| format!("chunks/{name}");
        let rows = vec![
            Row {
                what: "healthy flat + full + delta",
                files: vec![
                    "base.model.json",
                    "full.manifest.json",
                    "v1.manifest.json",
                    "sommelier.index.json",
                    "chunks",
                ],
                chunk_files: vec![chunk(&a), chunk(&b)],
                manifests: vec![
                    ("full.manifest.json", manifest(None, &[&a])),
                    ("v1.manifest.json", manifest(Some("base"), &[&b])),
                ],
                want: vec![],
            },
            Row {
                what: "quarantined",
                files: vec!["sommelier.index.json.corrupt-1700000000"],
                chunk_files: vec![chunk(&a) + ".corrupt-3"],
                manifests: vec![],
                want: vec![
                    (Quarantined, in_chunks(chunk(&a) + ".corrupt-3")),
                    (
                        Quarantined,
                        "sommelier.index.json.corrupt-1700000000".into(),
                    ),
                ],
            },
            Row {
                what: "orphaned temp",
                files: vec!["alpha.model.json.tmp-123-7"],
                chunk_files: vec![chunk(&a) + ".tmp-1-1"],
                manifests: vec![],
                want: vec![
                    (OrphanedTemp, "alpha.model.json.tmp-123-7".into()),
                    (OrphanedTemp, in_chunks(chunk(&a) + ".tmp-1-1")),
                ],
            },
            Row {
                what: "non-canonical names",
                files: vec!["a%2fb.model.json", "nul%0.manifest.json"],
                chunk_files: vec![],
                manifests: vec![],
                want: vec![
                    (NonCanonicalName, "a%2fb.model.json".into()),
                    (NonCanonicalName, "nul%0.manifest.json".into()),
                ],
            },
            Row {
                what: "stray + orphaned chunk",
                files: vec!["m.manifest.json"],
                chunk_files: vec![chunk(&a), chunk(&b), "notes.txt".into()],
                manifests: vec![("m.manifest.json", manifest(None, &[&a]))],
                want: vec![
                    (StrayChunkFile, "chunks/notes.txt".into()),
                    (OrphanedChunk, in_chunks(chunk(&b))),
                ],
            },
            Row {
                what: "dangling ref (a missing or corrupt chunk): the manifest's \
                       other chunk is still named, so not yet orphaned",
                files: vec!["m.manifest.json"],
                chunk_files: vec![chunk(&a)],
                manifests: vec![("m.manifest.json", manifest(None, &[&a, &b]))],
                want: vec![(DanglingChunkRef, "m.manifest.json".into())],
            },
            Row {
                what: "missing base, reached through a chain",
                files: vec!["a.manifest.json", "b.manifest.json"],
                chunk_files: vec![],
                manifests: vec![
                    ("a.manifest.json", manifest(Some("b"), &[])),
                    ("b.manifest.json", manifest(Some("ghost"), &[])),
                ],
                want: vec![
                    (BrokenDeltaBase, "a.manifest.json".into()),
                    (BrokenDeltaBase, "b.manifest.json".into()),
                ],
            },
            Row {
                what: "a base with a dangling ref takes its deltas with it",
                files: vec!["base.manifest.json", "v1.manifest.json"],
                chunk_files: vec![],
                manifests: vec![
                    ("base.manifest.json", manifest(None, &[&a])),
                    ("v1.manifest.json", manifest(Some("base"), &[])),
                ],
                want: vec![
                    (DanglingChunkRef, "base.manifest.json".into()),
                    (BrokenDeltaBase, "v1.manifest.json".into()),
                ],
            },
            Row {
                what: "cycle, and a delta hanging off it",
                files: vec!["a.manifest.json", "b.manifest.json", "c.manifest.json"],
                chunk_files: vec![],
                manifests: vec![
                    ("a.manifest.json", manifest(Some("b"), &[])),
                    ("b.manifest.json", manifest(Some("a"), &[])),
                    ("c.manifest.json", manifest(Some("a"), &[])),
                ],
                want: vec![
                    (BrokenDeltaBase, "a.manifest.json".into()),
                    (BrokenDeltaBase, "b.manifest.json".into()),
                    (BrokenDeltaBase, "c.manifest.json".into()),
                ],
            },
            Row {
                what: "a flat file ends the chain: it wins on load",
                files: vec!["a.manifest.json", "b.model.json", "b.manifest.json"],
                chunk_files: vec![],
                manifests: vec![
                    ("a.manifest.json", manifest(Some("b"), &[])),
                    ("b.manifest.json", manifest(Some("a"), &[])),
                ],
                want: vec![],
            },
        ];
        for row in rows {
            let manifests = row
                .manifests
                .into_iter()
                .map(|(file, m)| (file.to_string(), m))
                .collect();
            let got = cross_check(&names(&row.files), &row.chunk_files, &manifests);
            assert_eq!(summary(&got), row.want, "{}: {got:?}", row.what);
            // At most one finding per file: repair touches each once.
            let files: BTreeSet<&str> = got.iter().map(|f| f.file.as_str()).collect();
            assert_eq!(files.len(), got.len(), "{}: {got:?}", row.what);
        }
    }

    fn temp_store(tag: &str) -> (std::path::PathBuf, OnDiskRepository) {
        let dir = std::env::temp_dir().join(format!("sommelier-scan-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let repo = OnDiskRepository::open(&dir).unwrap();
        (dir, repo)
    }

    /// The kinds only a directory can show: files that do not parse and
    /// a chunk whose bytes do not hash to its name.
    #[test]
    fn scan_reports_unreadable_files_and_corrupt_chunks() {
        use FindingKind::*;
        let (dir, repo) = temp_store("io");
        repo.plant_flat("flat", &model("flat"));
        repo.publish("chunked", &model("chunked"), false).unwrap();
        let clean = scan_store(&StdStorage, &dir).unwrap();
        assert!(clean.findings.is_empty(), "{:?}", clean.findings);
        assert_eq!(
            clean.files_checked, 5,
            "flat, manifest, chunks/, weight, bias"
        );

        std::fs::write(dir.join("torn.model.json"), "{ not a model").unwrap();
        std::fs::write(dir.join("torn.manifest.json"), "{\"format_version\":99}").unwrap();
        let mut chunks = list_chunk_dir(&StdStorage, &dir.join(CHUNK_DIR)).unwrap();
        chunks.sort();
        let victim = &chunks[0];
        let path = dir.join(CHUNK_DIR).join(victim);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();

        let scan = scan_store(&StdStorage, &dir).unwrap();
        assert_eq!(
            summary(&scan.findings),
            vec![
                (UnreadableModel, "torn.model.json".to_string()),
                (UnreadableManifest, "torn.manifest.json".to_string()),
                (CorruptChunk, format!("chunks/{victim}")),
                (DanglingChunkRef, "chunked.manifest.json".to_string()),
            ]
        );
        // Findings and load agree on which keys are lost.
        assert!(repo.load("chunked").is_err());
        assert!(repo.load("flat").is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repair_sets_aside_every_unloadable_key_then_sweeps_its_chunks() {
        let (dir, repo) = temp_store("repair");
        let base = model("base");
        repo.publish_chunked("base", &base, false).unwrap();
        repo.publish_delta("v1", &base.renamed("v1"), "base", false)
            .unwrap();
        repo.plant_flat("keep", &model("keep"));
        // Losing one of base's chunks loses base and, through the
        // chain, v1: fsck used to call the store clean right after
        // quarantining base.
        let chunks = list_chunk_dir(&StdStorage, &dir.join(CHUNK_DIR)).unwrap();
        let victim = chunks.into_iter().min().unwrap();
        std::fs::remove_file(dir.join(CHUNK_DIR).join(&victim)).unwrap();
        std::fs::write(dir.join("keep.model.json.tmp-1-0"), "partial").unwrap();
        std::fs::write(dir.join("old.model.json.corrupt-17"), "evidence").unwrap();
        std::fs::write(dir.join("a%2fb.model.json"), "invisible").unwrap();

        let scan = scan_store(&StdStorage, &dir).unwrap();
        assert!(scan
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::BrokenDeltaBase && f.file == "v1.manifest.json"));
        // Report-only touches nothing.
        let left = repair_store(&StdStorage, &dir, &scan, false, false).unwrap();
        assert!(left.iter().all(|o| *o == Outcome::Left));
        assert_eq!(
            scan_store(&StdStorage, &dir).unwrap().findings,
            scan.findings
        );

        let outcomes = repair_store(&StdStorage, &dir, &scan, true, true).unwrap();
        assert_eq!(outcomes.len(), scan.findings.len());
        for (finding, outcome) in scan.findings.iter().zip(&outcomes) {
            match finding.kind.fix() {
                Fix::Manual => assert_eq!(*outcome, Outcome::Left),
                Fix::Prune | Fix::Remove => assert_eq!(*outcome, Outcome::Removed),
                Fix::Quarantine => assert!(matches!(outcome, Outcome::Quarantined(_))),
            }
        }
        // Every unloadable key went in that pass; what it leaves is the
        // chunk only the quarantined base named, for the follow-up
        // sweep, and the file repair never touches.
        assert_eq!(repo.try_keys().unwrap(), vec!["keep"]);
        let survivor = list_chunk_dir(&StdStorage, &dir.join(CHUNK_DIR))
            .unwrap()
            .remove(0);
        let sweep = scan_store(&StdStorage, &dir).unwrap();
        assert_eq!(
            summary(&sweep.findings),
            vec![
                (
                    FindingKind::NonCanonicalName,
                    "a%2fb.model.json".to_string()
                ),
                (FindingKind::OrphanedChunk, format!("chunks/{survivor}")),
            ]
        );
        repair_store(&StdStorage, &dir, &sweep, true, true).unwrap();
        let after = scan_store(&StdStorage, &dir).unwrap();
        assert_eq!(
            summary(&after.findings),
            vec![(
                FindingKind::NonCanonicalName,
                "a%2fb.model.json".to_string()
            )]
        );
        assert!(repo.load("keep").is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
