//! Publish/load model storage.

use crate::chunks::{self, ChunkStore, Manifest, CHUNK_DIR, MANIFEST_SUFFIX};
use crate::scan::{classify, StoreEntry};
use parking_lot::RwLock;
use sommelier_fault::{StdStorage, Storage};
use sommelier_graph::{Model, ModelError};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Repository failures.
#[derive(Debug)]
pub enum RepoError {
    /// No model is stored under the requested key.
    NotFound { key: String },
    /// A model is already stored under the key (publish without
    /// `overwrite`).
    AlreadyExists { key: String },
    /// Storage-layer failure (I/O, serialization).
    Storage(String),
    /// The model fails [`Model::validate`]: a publish refuses to store
    /// it, and a load refuses to hand out a stored one.
    Invalid { key: String, error: ModelError },
}

impl fmt::Display for RepoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepoError::NotFound { key } => write!(f, "no model stored under '{key}'"),
            RepoError::AlreadyExists { key } => {
                write!(f, "a model is already stored under '{key}'")
            }
            RepoError::Storage(e) => write!(f, "storage failure: {e}"),
            RepoError::Invalid { key, error } => write!(f, "model '{key}' is invalid: {error}"),
        }
    }
}

impl std::error::Error for RepoError {}

/// Refuse a model that [`Model::new`] would not build. Every `publish`
/// runs this before it writes anything.
pub fn check_publishable(key: &str, model: &Model) -> Result<(), RepoError> {
    model.validate().map_err(|error| RepoError::Invalid {
        key: key.into(),
        error,
    })
}

/// The primitive repository interface: exactly publish, load, and list.
/// This is the entire API surface a pre-Sommelier repository offers
/// (paper Section 2.1) — retrieval requires knowing the precise key.
pub trait ModelRepository: Send + Sync {
    /// Store a model under a key. Fails with [`RepoError::AlreadyExists`]
    /// unless `overwrite` is set.
    fn publish(&self, key: &str, model: &Model, overwrite: bool) -> Result<(), RepoError>;

    /// Retrieve the model stored under `key`.
    fn load(&self, key: &str) -> Result<Model, RepoError>;

    /// All stored keys, sorted — or the storage error that kept the
    /// backend from producing a complete listing. Callers that cannot
    /// tolerate a truncated view (index builds, lint, fsck) go through
    /// this; [`ModelRepository::keys`] is the infallible convenience
    /// wrapper.
    fn try_keys(&self) -> Result<Vec<String>, RepoError>;

    /// All stored keys, sorted; an unlistable backend reads as empty.
    fn keys(&self) -> Vec<String> {
        self.try_keys().unwrap_or_default()
    }

    /// Number of stored models.
    fn len(&self) -> usize {
        self.keys().len()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// In-memory repository (the default for experiments).
#[derive(Clone, Default)]
pub struct InMemoryRepository {
    models: Arc<RwLock<BTreeMap<String, Model>>>,
}

impl InMemoryRepository {
    pub fn new() -> Self {
        Self::default()
    }
}

impl ModelRepository for InMemoryRepository {
    fn publish(&self, key: &str, model: &Model, overwrite: bool) -> Result<(), RepoError> {
        check_publishable(key, model)?;
        let mut map = self.models.write();
        if !overwrite && map.contains_key(key) {
            return Err(RepoError::AlreadyExists { key: key.into() });
        }
        map.insert(key.to_string(), model.clone());
        Ok(())
    }

    fn load(&self, key: &str) -> Result<Model, RepoError> {
        self.models
            .read()
            .get(key)
            .cloned()
            .ok_or_else(|| RepoError::NotFound { key: key.into() })
    }

    fn try_keys(&self) -> Result<Vec<String>, RepoError> {
        Ok(self.models.read().keys().cloned().collect())
    }

    fn len(&self) -> usize {
        self.models.read().len()
    }
}

/// Bytes that survive key encoding verbatim. Everything else —
/// crucially `%`, `/`, and whitespace — is percent-escaped, which makes
/// the encoding injective: two distinct keys can never share a file.
fn is_plain(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.'
}

/// Injective (percent) encoding of a repository key into a file stem.
pub fn encode_key(key: &str) -> String {
    let mut out = String::with_capacity(key.len());
    for &b in key.as_bytes() {
        if is_plain(b) {
            out.push(b as char);
        } else {
            out.push('%');
            out.push_str(&format!("{b:02X}"));
        }
    }
    out
}

/// Decode a file stem back into the original key. Returns `None` for
/// stems that are not the *canonical* encoding of any key (malformed
/// escapes, lowercase hex, escaped-but-plain bytes, invalid UTF-8) —
/// such files are never repository entries, and the lint layer flags
/// them.
pub fn decode_key(stem: &str) -> Option<String> {
    let bytes = stem.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3)?;
                let hi = (hex[0] as char).to_digit(16)?;
                let lo = (hex[1] as char).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b if is_plain(b) => {
                out.push(b);
                i += 1;
            }
            _ => return None,
        }
    }
    let key = String::from_utf8(out).ok()?;
    // Canonical round-trip: rejects non-canonical spellings (e.g.
    // "%2f" vs "%2F", or "%41" for plain 'A') so no two on-disk names
    // can decode to the same key.
    (encode_key(&key) == stem).then_some(key)
}

/// On-disk repository: one manifest per key under a root directory,
/// over content-addressed chunks ([`crate::chunks`]). Keys map to file
/// names through the injective [`encode_key`] / [`decode_key`] pair,
/// every publish goes through the crash-safe [`Storage`] composites
/// (atomic rename for overwrites, an `O_EXCL`-style link for first
/// publishes), and listing failures surface as [`RepoError::Storage`]
/// instead of truncating silently.
pub struct OnDiskRepository {
    root: PathBuf,
    storage: Arc<dyn Storage>,
}

impl OnDiskRepository {
    /// Open (creating if needed) a repository rooted at `root`, backed
    /// by the real filesystem.
    pub fn open(root: &Path) -> Result<Self, RepoError> {
        Self::open_with(root, Arc::new(StdStorage))
    }

    /// Open a repository over an explicit storage backend (the
    /// fault-injection hook).
    pub fn open_with(root: &Path, storage: Arc<dyn Storage>) -> Result<Self, RepoError> {
        std::fs::create_dir_all(root.join(CHUNK_DIR))
            .map_err(|e| RepoError::Storage(e.to_string()))?;
        Ok(OnDiskRepository {
            root: root.into(),
            storage,
        })
    }

    fn manifest_path_for(&self, key: &str) -> PathBuf {
        self.root
            .join(format!("{}{MANIFEST_SUFFIX}", encode_key(key)))
    }

    /// The repository's content-addressed chunk namespace.
    pub fn chunk_store(&self) -> ChunkStore {
        ChunkStore::new(&self.root, Arc::clone(&self.storage))
    }

    fn storage_err(key: Option<&str>, e: io::Error) -> RepoError {
        match (key, e.kind()) {
            (Some(key), io::ErrorKind::NotFound) => RepoError::NotFound { key: key.into() },
            (Some(key), io::ErrorKind::AlreadyExists) => {
                RepoError::AlreadyExists { key: key.into() }
            }
            _ => RepoError::Storage(e.to_string()),
        }
    }

    fn read_manifest(&self, key: &str) -> Result<Manifest, RepoError> {
        let bytes = self
            .storage
            .read(&self.manifest_path_for(key))
            .map_err(|e| Self::storage_err(Some(key), e))?;
        let json = String::from_utf8(bytes).map_err(|e| RepoError::Storage(e.to_string()))?;
        Manifest::from_json(&json)
            .map_err(|e| RepoError::Storage(format!("manifest for '{key}': {e}")))
    }

    /// What every publish does before it writes a chunk. Without
    /// `overwrite`, a stored key is refused here (advisory: the link in
    /// [`Self::cut_over`] arbitrates races) so the loser leaves no
    /// orphaned chunks. With it, the deltas stored against `key` are
    /// detached first — unless `model` is what `key` already loads to,
    /// when they reconstruct as before.
    fn make_way(&self, key: &str, model: &Model, overwrite: bool) -> Result<(), RepoError> {
        check_publishable(key, model)?;
        if !overwrite {
            if self.storage.exists(&self.manifest_path_for(key)) {
                return Err(RepoError::AlreadyExists { key: key.into() });
            }
            return Ok(());
        }
        match self.load(key) {
            Ok(stored) if stored == *model => Ok(()),
            Err(RepoError::NotFound { .. }) => Ok(()),
            _ => self.detach_dependents(key),
        }
    }

    /// Republish every delta manifest whose base is `key` as a full
    /// manifest of the model it loads to now: a delta carries no check
    /// of its base's content, so replacing the base under it would
    /// silently change what it reconstructs. Unchanged layers keep
    /// sharing the base's chunks by content, and a crash between any two
    /// ops leaves each dependent as its old delta on the old base or as
    /// the full manifest — the same model. A dependent that does not
    /// load fails the overwrite; a manifest that does not parse names no
    /// base and is passed over. One listing plus one read per manifest.
    fn detach_dependents(&self, key: &str) -> Result<(), RepoError> {
        let names = self
            .storage
            .list(&self.root)
            .map_err(|e| Self::storage_err(None, e))?;
        for name in names {
            let StoreEntry::Manifest(dependent) = classify(&name) else {
                continue;
            };
            let on_key = |m: Manifest| m.base.as_deref() == Some(key);
            if dependent != key && self.read_manifest(&dependent).is_ok_and(on_key) {
                let model = self.load(&dependent)?;
                let manifest = self.full_manifest(&dependent, &model)?;
                self.cut_over(&dependent, &manifest, true)?;
            }
        }
        Ok(())
    }

    fn full_manifest(&self, key: &str, model: &Model) -> Result<Manifest, RepoError> {
        chunks::encode_full(model, &self.chunk_store()).map_err(|e| Self::storage_err(Some(key), e))
    }

    /// A delta manifest of `model` against the stored `base_key`
    /// (full when the two are not structurally aligned). Fails if the
    /// base is absent or if the link would close a base-chain cycle
    /// through `key`, which would make `key` unloadable.
    fn delta_manifest(
        &self,
        key: &str,
        model: &Model,
        base_key: &str,
    ) -> Result<Manifest, RepoError> {
        // The base's chain is walked once, by its load, with `key` on it
        // already: the link about to be written.
        let cycle = |_: &str| {
            RepoError::Storage(format!(
                "publishing '{key}' with base '{base_key}' would create a delta cycle"
            ))
        };
        let base = self.load_chain(base_key, &mut BTreeSet::from([key.to_string()]), &cycle)?;
        chunks::encode_delta(model, base_key, &base, &self.chunk_store())
            .map_err(|e| Self::storage_err(Some(key), e))
    }

    /// Land a manifest under `key` in one atomic step: chunks are
    /// immutable and already durable, so the rename (overwrite) or the
    /// exclusive link (first publish) is the visibility flip.
    fn cut_over(&self, key: &str, manifest: &Manifest, overwrite: bool) -> Result<(), RepoError> {
        let path = self.manifest_path_for(key);
        let json = manifest.to_json();
        let landed = if overwrite {
            self.storage.write_atomic(&path, json.as_bytes())
        } else {
            self.storage.create_exclusive(&path, json.as_bytes())
        };
        landed.map_err(|e| Self::storage_err(Some(key), e))
    }

    /// Store a model as a full manifest over content-addressed chunks,
    /// whatever its `base` hint says.
    pub fn publish_chunked(
        &self,
        key: &str,
        model: &Model,
        overwrite: bool,
    ) -> Result<(), RepoError> {
        self.make_way(key, model, overwrite)?;
        let manifest = self.full_manifest(key, model)?;
        self.cut_over(key, &manifest, overwrite)
    }

    /// Store a model as a delta manifest against the already-stored
    /// `base_key`: only layers that differ from the base are written
    /// (sparsely, when few elements changed). Falls back to a full
    /// manifest when the two models are not structurally aligned.
    /// Fails if the base is absent or if deltaing against it would
    /// create a base-chain cycle through `key`.
    pub fn publish_delta(
        &self,
        key: &str,
        model: &Model,
        base_key: &str,
        overwrite: bool,
    ) -> Result<(), RepoError> {
        self.make_way(key, model, overwrite)?;
        let manifest = self.delta_manifest(key, model, base_key)?;
        self.cut_over(key, &manifest, overwrite)
    }

    /// `key`'s model, following its base chain. `visiting` holds the
    /// keys already on the chain; reaching one of them again is a cycle,
    /// refused with `cycle(key)` before `key` is read in any form.
    fn load_chain(
        &self,
        key: &str,
        visiting: &mut BTreeSet<String>,
        cycle: &dyn Fn(&str) -> RepoError,
    ) -> Result<Model, RepoError> {
        if !visiting.insert(key.to_string()) {
            return Err(cycle(key));
        }
        let manifest = self.read_manifest(key)?;
        let base = match &manifest.base {
            Some(base_key) => Some(self.load_chain(base_key, visiting, cycle).map_err(
                |e| match e {
                    RepoError::NotFound { key: missing } => {
                        RepoError::Storage(format!("delta base '{missing}' of '{key}' is missing"))
                    }
                    other => other,
                },
            )?),
            None => None,
        };
        let store = self.chunk_store();
        chunks::reconstruct(&manifest, base.as_ref(), &store).map_err(|e| {
            match e.get_ref().and_then(|source| source.downcast_ref::<ModelError>()) {
                Some(error) => RepoError::Invalid {
                    key: key.into(),
                    error: error.clone(),
                },
                None => RepoError::Storage(format!("reconstructing '{key}': {e}")),
            }
        })
    }
}

/// One listing of the store's keys, returning how many there are. Held
/// only for the benchmark's `curate` checkpoint, which calls it by name,
/// until ROADMAP item 1a routes that checkpoint elsewhere.
pub fn dedup_store(repo: &OnDiskRepository) -> Result<usize, RepoError> {
    repo.try_keys().map(|keys| keys.len())
}

impl ModelRepository for OnDiskRepository {
    /// Writes a delta manifest when `metadata["base"]` names another
    /// stored key that `key` can delta against (see
    /// [`OnDiskRepository::publish_delta`]), a full manifest otherwise:
    /// a hint that dangles, names `key` itself, would close a cycle or
    /// whose base cannot be read is no reason to refuse the model.
    fn publish(&self, key: &str, model: &Model, overwrite: bool) -> Result<(), RepoError> {
        self.make_way(key, model, overwrite)?;
        let hint = model.metadata.get("base").filter(|base| *base != key);
        let manifest = match hint.map(|base| self.delta_manifest(key, model, base)) {
            Some(Ok(delta)) => delta,
            _ => self.full_manifest(key, model)?,
        };
        self.cut_over(key, &manifest, overwrite)
    }

    fn load(&self, key: &str) -> Result<Model, RepoError> {
        let cycle =
            |cur: &str| RepoError::Storage(format!("delta base chain cycles through '{cur}'"));
        self.load_chain(key, &mut BTreeSet::new(), &cycle)
    }

    fn try_keys(&self) -> Result<Vec<String>, RepoError> {
        let names = self
            .storage
            .list(&self.root)
            .map_err(|e| Self::storage_err(None, e))?;
        // Non-canonical stems are not repository entries (we never
        // write them); the store scan reports them rather than keys()
        // inventing a key.
        let mut out: Vec<String> = names
            .iter()
            .filter_map(|name| match classify(name) {
                StoreEntry::Manifest(key) => Some(key),
                _ => None,
            })
            .collect();
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_graph::{serde_model, ModelBuilder, TaskKind};
    use sommelier_tensor::{Prng, Shape};

    fn model(name: &str) -> Model {
        let mut rng = Prng::seed_from_u64(1);
        ModelBuilder::new(name, TaskKind::Other, Shape::vector(4))
            .dense(2, &mut rng)
            .build()
            .unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sommelier-repo-{tag}-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn publish_then_load_round_trips() {
        let repo = InMemoryRepository::new();
        let m = model("a");
        repo.publish("a", &m, false).unwrap();
        assert_eq!(repo.load("a").unwrap(), m);
    }

    #[test]
    fn load_missing_key_fails() {
        let repo = InMemoryRepository::new();
        assert!(matches!(
            repo.load("nope"),
            Err(RepoError::NotFound { .. })
        ));
    }

    #[test]
    fn double_publish_requires_overwrite() {
        let repo = InMemoryRepository::new();
        let m = model("a");
        repo.publish("a", &m, false).unwrap();
        assert!(matches!(
            repo.publish("a", &m, false),
            Err(RepoError::AlreadyExists { .. })
        ));
        repo.publish("a", &m.renamed("a2"), true).unwrap();
        assert_eq!(repo.load("a").unwrap().name, "a2");
    }

    #[test]
    fn keys_are_sorted() {
        let repo = InMemoryRepository::new();
        for k in ["zeta", "alpha", "mid"] {
            repo.publish(k, &model(k), false).unwrap();
        }
        assert_eq!(repo.keys(), vec!["alpha", "mid", "zeta"]);
        assert_eq!(repo.len(), 3);
    }

    #[test]
    fn key_encoding_is_injective_and_round_trips() {
        // The old sanitizer mapped both of these to "a_b".
        for pair in [("a/b", "a_b"), ("a b", "a%b"), ("x:y", "x_y")] {
            assert_ne!(encode_key(pair.0), encode_key(pair.1));
        }
        for key in ["a/b", "a_b", "disk/one:v1", "100% legit", "ünïcode/κ", "..", ""] {
            assert_eq!(decode_key(&encode_key(key)).as_deref(), Some(key));
        }
        // Non-canonical or malformed stems never decode.
        for stem in ["%2f", "%ZZ", "a%4", "%41", "a b"] {
            assert_eq!(decode_key(stem), None, "{stem}");
        }
    }

    #[test]
    fn on_disk_round_trip() {
        let dir = temp_dir("rt");
        let repo = OnDiskRepository::open(&dir).unwrap();
        let m = model("disk/one:v1");
        repo.publish("disk/one:v1", &m, false).unwrap();
        assert!(dir.join("disk%2Fone%3Av1.manifest.json").exists());
        assert_eq!(repo.load("disk/one:v1").unwrap(), m);
        assert_eq!(repo.try_keys().unwrap(), vec!["disk/one:v1"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn on_disk_colliding_keys_stay_distinct() {
        // Regression: "a/b" and "a_b" used to sanitize to the same
        // file and silently overwrite each other.
        let dir = temp_dir("collide");
        let repo = OnDiskRepository::open(&dir).unwrap();
        let m1 = model("a/b");
        let m2 = model("a_b");
        repo.publish("a/b", &m1, false).unwrap();
        repo.publish("a_b", &m2, false).unwrap();
        assert_eq!(repo.load("a/b").unwrap().name, "a/b");
        assert_eq!(repo.load("a_b").unwrap().name, "a_b");
        assert_eq!(repo.try_keys().unwrap(), vec!["a/b", "a_b"]);
        assert_eq!(repo.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn on_disk_missing_key() {
        let dir = temp_dir("missing");
        let repo = OnDiskRepository::open(&dir).unwrap();
        assert!(matches!(
            repo.load("ghost"),
            Err(RepoError::NotFound { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_exclusive_publishes_have_one_winner() {
        // Regression for the publish TOCTOU: `exists()`-then-write let
        // two racing non-overwrite publishes both "succeed", one
        // silently clobbering the other. The link-based publish makes
        // the filesystem the arbiter.
        let dir = temp_dir("race");
        let repo = Arc::new(OnDiskRepository::open(&dir).unwrap());
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let wins: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let repo = Arc::clone(&repo);
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        let m = model(&format!("contender-{i}"));
                        barrier.wait();
                        match repo.publish("the-key", &m, false) {
                            Ok(()) => true,
                            Err(RepoError::AlreadyExists { .. }) => false,
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            wins.iter().filter(|&&w| w).count(),
            1,
            "exactly one racing publish may win"
        );
        // Whoever won, the stored file is whole and parseable.
        let stored = repo.load("the-key").unwrap();
        assert!(stored.name.starts_with("contender-"));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn perturbed(base: &Model, name: &str, delta: f32) -> Model {
        let mut m = base.renamed(name);
        let id = m.linear_layers()[0];
        let mut p = m.layer(id).params.clone();
        let w = p.weight.as_ref().unwrap();
        let mut data = w.as_slice().to_vec();
        data[0] += delta;
        p.weight = Some(sommelier_tensor::Tensor::from_vec(w.rows(), w.cols(), data));
        m.set_params(id, p).unwrap();
        m
    }

    #[test]
    fn chunked_publish_is_transparent_to_load() {
        let dir = temp_dir("chunked");
        let repo = OnDiskRepository::open(&dir).unwrap();
        let m = model("chunky");
        repo.publish_chunked("chunky", &m, false).unwrap();
        assert!(repo.manifest_path_for("chunky").exists());
        assert_eq!(repo.load("chunky").unwrap(), m);
        assert_eq!(repo.try_keys().unwrap(), vec!["chunky"]);
        assert_eq!(repo.len(), 1);
        // Byte-identical: the reconstructed model serializes to the
        // same JSON the flat representation would have stored.
        assert_eq!(
            serde_model::to_json(&repo.load("chunky").unwrap()).unwrap(),
            serde_model::to_json(&m).unwrap()
        );
        assert!(matches!(
            repo.publish_chunked("chunky", &m, false),
            Err(RepoError::AlreadyExists { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_publish_reconstructs_through_base_chain() {
        let dir = temp_dir("delta");
        let repo = OnDiskRepository::open(&dir).unwrap();
        let base = model("fam-base");
        let v1 = perturbed(&base, "fam-v1", 0.5);
        let v2 = perturbed(&v1, "fam-v2", -0.25);
        repo.publish_chunked("fam-base", &base, false).unwrap();
        repo.publish_delta("fam-v1", &v1, "fam-base", false).unwrap();
        // Chained delta: v2 deltas against v1, itself a delta.
        repo.publish_delta("fam-v2", &v2, "fam-v1", false).unwrap();
        assert_eq!(repo.load("fam-v1").unwrap(), v1);
        assert_eq!(repo.load("fam-v2").unwrap(), v2);
        assert_eq!(repo.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_against_missing_or_cyclic_base_fails() {
        let dir = temp_dir("deltabad");
        let repo = OnDiskRepository::open(&dir).unwrap();
        let m = model("solo");
        assert!(repo.publish_delta("solo", &m, "ghost", false).is_err());
        assert!(matches!(
            repo.publish_delta("solo", &m, "solo", false),
            Err(RepoError::Storage(_))
        ));
        // a -> b stored; republishing a as a delta on b would cycle.
        let a = model("a");
        let b = perturbed(&a, "b", 0.1);
        repo.publish_chunked("a", &a, false).unwrap();
        repo.publish_delta("b", &b, "a", false).unwrap();
        assert!(matches!(
            repo.publish_delta("a", &a, "b", true),
            Err(RepoError::Storage(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn hinted(mut m: Model, base: &str) -> Model {
        m.metadata.insert("base".into(), base.into());
        m
    }

    fn base_of(repo: &OnDiskRepository, key: &str) -> Option<String> {
        repo.read_manifest(key).unwrap().base
    }

    #[test]
    fn publish_deltas_by_the_base_hint_and_degrades_to_full() {
        let dir = temp_dir("hint");
        let repo = OnDiskRepository::open(&dir).unwrap();
        // `a` hints at a key that is not stored yet: full.
        let a = hinted(model("a"), "b");
        repo.publish("a", &a, false).unwrap();
        assert_eq!(base_of(&repo, "a"), None);
        // `b` hints at the stored `a`: a delta against it.
        let b = hinted(perturbed(&a, "b", 0.5), "a");
        repo.publish("b", &b, false).unwrap();
        assert_eq!(base_of(&repo, "b").as_deref(), Some("a"));
        // Publishing `a` again now finds its hint stored, but `b`
        // loads through `a`: the link would close a cycle, so full.
        repo.publish("a", &a, true).unwrap();
        assert_eq!(base_of(&repo, "a"), None);
        // A hint at oneself is no base either.
        let own = hinted(model("own"), "own");
        repo.publish("own", &own, false).unwrap();
        assert_eq!(base_of(&repo, "own"), None);
        for (key, want) in [("a", &a), ("b", &b), ("own", &own)] {
            assert_eq!(&repo.load(key).unwrap(), want, "{key}");
        }
        // The hint decides the representation, never whether the key
        // is taken.
        assert!(matches!(
            repo.publish("b", &b, false),
            Err(RepoError::AlreadyExists { .. })
        ));
        let scan = crate::scan_store(&StdStorage, &dir).unwrap();
        assert!(scan.findings.is_empty(), "{:?}", scan.findings);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Change the first bias element, which a `perturbed` fine-tune
    /// (first weight element) inherits from its base.
    fn rebiased(base: &Model, name: &str, delta: f32) -> Model {
        let mut m = base.renamed(name);
        let id = m.linear_layers()[0];
        let mut p = m.layer(id).params.clone();
        let b = p.bias.as_ref().unwrap();
        let mut data = b.as_slice().to_vec();
        data[0] += delta;
        p.bias = Some(sommelier_tensor::Tensor::from_vec(b.rows(), b.cols(), data));
        m.set_params(id, p).unwrap();
        m
    }

    #[test]
    fn overwriting_a_delta_base_keeps_its_dependents() {
        let dir = temp_dir("rebase");
        let repo = OnDiskRepository::open(&dir).unwrap();
        let base = model("fam-base");
        let v1 = perturbed(&base, "fam-v1", 0.5);
        let v2 = perturbed(&v1, "fam-v2", -0.25);
        repo.publish_chunked("fam-base", &base, false).unwrap();
        repo.publish_delta("fam-v1", &v1, "fam-base", false).unwrap();
        repo.publish_delta("fam-v2", &v2, "fam-v1", false).unwrap();
        // Unchanged content: nothing under the base moves.
        repo.publish("fam-base", &base, true).unwrap();
        assert_eq!(base_of(&repo, "fam-v1").as_deref(), Some("fam-base"));
        // The new base differs where neither fine-tune overrides it.
        let rebased = rebiased(&base, "fam-base", 4.0);
        repo.publish("fam-base", &rebased, true).unwrap();
        assert_eq!(repo.load("fam-base").unwrap(), rebased);
        assert_eq!(repo.load("fam-v1").unwrap(), v1);
        assert_eq!(repo.load("fam-v2").unwrap(), v2);
        // Only the direct dependent was rewritten; the chain above it
        // still deltas against the model it always did.
        assert_eq!(base_of(&repo, "fam-v1"), None);
        assert_eq!(base_of(&repo, "fam-v2").as_deref(), Some("fam-v1"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The filesystem, counting the reads of each file.
    #[derive(Default)]
    struct CountingStorage {
        reads: parking_lot::Mutex<BTreeMap<PathBuf, usize>>,
    }

    impl CountingStorage {
        fn reads_of(&self, path: &Path) -> usize {
            self.reads.lock().get(path).copied().unwrap_or(0)
        }
    }

    impl Storage for CountingStorage {
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            *self.reads.lock().entry(path.into()).or_default() += 1;
            StdStorage.read(path)
        }
        fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            StdStorage.write_file(path, bytes)
        }
        fn fsync(&self, path: &Path) -> io::Result<()> {
            StdStorage.fsync(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            StdStorage.rename(from, to)
        }
        fn link(&self, existing: &Path, new: &Path) -> io::Result<()> {
            StdStorage.link(existing, new)
        }
        fn remove(&self, path: &Path) -> io::Result<()> {
            StdStorage.remove(path)
        }
        fn exists(&self, path: &Path) -> bool {
            StdStorage.exists(path)
        }
        fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
            StdStorage.list(dir)
        }
    }

    #[test]
    fn a_delta_publish_reads_each_manifest_on_its_base_chain_once() {
        let dir = temp_dir("basereads");
        let storage = Arc::new(CountingStorage::default());
        let repo = OnDiskRepository::open_with(&dir, Arc::clone(&storage) as _).unwrap();
        let base = model("fam-base");
        let v1 = hinted(perturbed(&base, "fam-v1", 0.5), "fam-base");
        let v2 = perturbed(&v1, "fam-v2", -0.25);
        repo.publish_chunked("fam-base", &base, false).unwrap();
        let reads = |key: &str| storage.reads_of(&repo.manifest_path_for(key));
        repo.publish("fam-v1", &v1, false).unwrap();
        assert_eq!(base_of(&repo, "fam-v1").as_deref(), Some("fam-base"));
        assert_eq!(reads("fam-base"), 1);
        let before = (reads("fam-base"), reads("fam-v1"));
        repo.publish_delta("fam-v2", &v2, "fam-v1", false).unwrap();
        assert_eq!(
            (reads("fam-base"), reads("fam-v1")),
            (before.0 + 1, before.1 + 1)
        );
        assert_eq!(repo.load("fam-v2").unwrap(), v2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn try_keys_surfaces_listing_errors() {
        let dir = temp_dir("unlistable");
        let repo = OnDiskRepository::open(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(repo.try_keys(), Err(RepoError::Storage(_))));
        // The infallible wrapper degrades to empty; len follows suit.
        assert!(repo.keys().is_empty());
        assert_eq!(repo.len(), 0);
    }

    #[test]
    fn stray_files_are_not_keys() {
        let dir = temp_dir("stray");
        let repo = OnDiskRepository::open(&dir).unwrap();
        repo.publish("real", &model("real"), false).unwrap();
        // Temp orphans, quarantined artifacts, and non-canonical names
        // must not surface as repository keys.
        for stray in [
            "real.model.json.tmp-1-1",
            "real.model.json.corrupt-7",
            "%2f.model.json",
            "notes.txt",
        ] {
            std::fs::write(dir.join(stray), b"junk").unwrap();
        }
        assert_eq!(repo.try_keys().unwrap(), vec!["real"]);
        assert_eq!(repo.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_flat_model_file_is_never_read() {
        let dir = temp_dir("flat");
        let repo = OnDiskRepository::open(&dir).unwrap();
        let real = model("real");
        repo.publish("real", &real, false).unwrap();
        // Whole models under the old flat names: one beside a manifest,
        // one alone. Neither is a key, and neither shadows a manifest.
        let other = serde_model::to_json(&perturbed(&real, "other", 1.0)).unwrap();
        for name in ["real.model.json", "flat.model.json"] {
            std::fs::write(dir.join(name), &other).unwrap();
        }
        assert_eq!(repo.try_keys().unwrap(), vec!["real"]);
        assert_eq!(repo.load("real").unwrap(), real);
        assert!(matches!(repo.load("flat"), Err(RepoError::NotFound { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }
    #[test]
    fn a_stored_model_that_lies_about_itself_does_not_load() {
        let dir = temp_dir("lies");
        let repo = OnDiskRepository::open(&dir).unwrap();
        let mut rng = Prng::seed_from_u64(3);
        let m = ModelBuilder::new("m", TaskKind::Other, Shape::vector(4))
            .dense(8, &mut rng)
            .relu()
            .dense(3, &mut rng)
            .build()
            .unwrap();
        repo.publish("m", &m, false).unwrap();
        let path = repo.manifest_path_for("m");
        let stored = std::fs::read_to_string(&path).unwrap();
        let weight = |rows: usize, cols: usize| format!(r#""rows":{rows},"cols":{cols}"#);
        for (what, from, to, layer) in [
            // The sabotage matrix's shape break: widths[1] bumped.
            ("width", r#""widths":[4,8,8,3]"#.into(), r#""widths":[4,9,8,3]"#.into(), 1),
            ("forward input", "\"inputs\":[1]".into(), "\"inputs\":[3]".into(), 2),
            ("weight shape", weight(4, 8), weight(8, 4), 1),
        ] {
            let edited = stored.replacen(&from, &to, 1);
            assert_ne!(edited, stored, "{what}: the edit must land");
            std::fs::write(&path, edited).unwrap();
            match repo.load("m") {
                Err(RepoError::Invalid { key, error }) => {
                    assert_eq!(key, "m", "{what}");
                    let at = match error {
                        ModelError::StaleWidth { layer }
                        | ModelError::BadInputRef { layer, .. }
                        | ModelError::BadParams { layer, .. } => layer,
                        other => panic!("{what}: {other}"),
                    };
                    assert_eq!(at, layer, "{what}");
                }
                other => panic!("{what}: {other:?}"),
            }
        }
        std::fs::write(&path, &stored).unwrap();
        assert_eq!(repo.load("m").unwrap(), m);
        std::fs::remove_dir_all(&dir).ok();
    }
}
