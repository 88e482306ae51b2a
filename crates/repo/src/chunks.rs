//! Content-addressed tensor chunks and per-model delta manifests.
//!
//! Fine-tune families share most of their weights (the NeurStore
//! observation), so the on-disk repository can store a model as a
//! *manifest* instead of a standalone JSON file:
//!
//! * a **full manifest** carries the parameter-free model skeleton plus,
//!   for every parameterized layer, references to content-addressed
//!   chunks of the raw tensor bytes (f32 little-endian, split at
//!   [`MAX_CHUNK_BYTES`]);
//! * a **delta manifest** additionally names a *base* model and only
//!   carries the layers that differ from it — either as chunk
//!   references or, when few elements changed, as sparse
//!   `(index, value)` overrides applied to the base tensor.
//!
//! Chunks live under the repository's `chunks/` namespace, named by a
//! 128-bit content hash, so identical tensors (a frozen prefix across a
//! family, or a chunk-aligned run of unchanged bytes) are stored once.
//! Chunk files are immutable: a chunk is only ever created via
//! `Storage::create_exclusive`, where `AlreadyExists` *is* the dedup
//! hit, and its content is re-verified against its name on every read.

use serde::{Deserialize, Serialize};
use sommelier_fault::Storage;
use sommelier_graph::{LayerId, Model, Params};
use sommelier_tensor::Tensor;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Directory (under the repository root) holding content-addressed
/// chunks.
pub const CHUNK_DIR: &str = "chunks";

/// Suffix of chunk files inside [`CHUNK_DIR`].
pub const CHUNK_SUFFIX: &str = ".chunk";

/// Suffix of manifest files, the store's one model layout.
pub const MANIFEST_SUFFIX: &str = ".manifest.json";

/// Current manifest format version.
pub const MANIFEST_VERSION: u32 = 1;

/// Maximum chunk payload size. 64 KiB keeps frozen prefixes deduping
/// at tensor granularity while bounding the cost of rewriting one
/// changed tensor.
pub const MAX_CHUNK_BYTES: usize = 64 * 1024;

/// A stored tensor: either a dense chunk list or sparse overrides over
/// the base model's tensor in the same layer/slot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TensorRef {
    pub rows: usize,
    pub cols: usize,
    /// Content hashes of the tensor's byte chunks, in order. Empty
    /// when `sparse` carries the tensor instead.
    pub chunks: Vec<String>,
    /// Sparse overrides `(flat index, new value)` applied to the base
    /// tensor. Only meaningful in delta manifests (`base` is set) for
    /// a slot the base populates at identical shape.
    pub sparse: Option<Vec<(usize, f64)>>,
}

/// Per-layer parameter payload of a manifest.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LayerDelta {
    /// Topological layer index in the skeleton.
    pub layer: usize,
    /// When true this entry fully defines the layer's parameters;
    /// when false, slots absent here are inherited from the base.
    pub replace: bool,
    pub weight: Option<TensorRef>,
    pub bias: Option<TensorRef>,
}

/// The on-disk manifest: skeleton + chunked/sparse parameters, with an
/// optional base model for delta storage.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    pub format_version: u32,
    /// Repository key of the base model this manifest deltas against;
    /// `None` for a full manifest.
    pub base: Option<String>,
    /// Parameter-free model skeleton ([`Model::strip_params`]).
    pub skeleton: Model,
    /// Changed (delta) or all (full) parameterized layers.
    pub layers: Vec<LayerDelta>,
}

impl Manifest {
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("manifest serialization is infallible")
    }

    pub fn from_json(json: &str) -> Result<Manifest, String> {
        let m: Manifest = serde_json::from_str(json).map_err(|e| e.to_string())?;
        if m.format_version != MANIFEST_VERSION {
            return Err(format!(
                "unsupported manifest format version {} (supported: {MANIFEST_VERSION})",
                m.format_version
            ));
        }
        Ok(m)
    }

    /// Every chunk hash this manifest references, in order of
    /// appearance (duplicates preserved).
    pub fn chunk_refs(&self) -> Vec<&str> {
        let mut out = Vec::new();
        for entry in &self.layers {
            for slot in [&entry.weight, &entry.bias].into_iter().flatten() {
                out.extend(slot.chunks.iter().map(String::as_str));
            }
        }
        out
    }
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// 128-bit content hash of a chunk payload, as 32 lowercase hex chars.
/// Two interleaved splitmix64 streams over the little-endian words plus
/// a length finalizer — not cryptographic, but collision-resistant far
/// beyond repository scale, and fully deterministic across runs.
pub fn chunk_hash(bytes: &[u8]) -> String {
    let mut h1: u64 = 0x6a09_e667_f3bc_c908;
    let mut h2: u64 = 0xbb67_ae85_84ca_a73b;
    for word in bytes.chunks(8) {
        let mut buf = [0u8; 8];
        buf[..word.len()].copy_from_slice(word);
        let x = u64::from_le_bytes(buf);
        h1 = mix64(h1 ^ x);
        h2 = mix64(h2 ^ x.rotate_left(32) ^ h1);
    }
    let len = bytes.len() as u64;
    h1 = mix64(h1 ^ len);
    h2 = mix64(h2 ^ len.rotate_left(32) ^ h1);
    format!("{h1:016x}{h2:016x}")
}

/// Raw storage form of a tensor: f32 little-endian, row-major.
pub fn tensor_bytes(t: &Tensor) -> Vec<u8> {
    let mut out = vec![0; t.len() * 4];
    for (bytes, v) in out.chunks_exact_mut(4).zip(t.as_slice()) {
        bytes.copy_from_slice(&v.to_le_bytes());
    }
    out
}

fn tensor_from_bytes(rows: usize, cols: usize, bytes: &[u8]) -> Result<Tensor, String> {
    if bytes.len() != rows * cols * 4 {
        return Err(format!(
            "tensor payload is {} bytes, expected {} for {rows}x{cols}",
            bytes.len(),
            rows * cols * 4
        ));
    }
    let data = bytes
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    Ok(Tensor::from_vec(rows, cols, data))
}

/// Names of the files in a chunk directory. An absent directory reads
/// as empty: a directory no repository has opened yet.
pub(crate) fn list_chunk_dir(storage: &dyn Storage, chunk_dir: &Path) -> io::Result<Vec<String>> {
    match storage.list(chunk_dir) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        listed => listed,
    }
}

/// The content-addressed chunk namespace of one repository.
pub struct ChunkStore {
    dir: PathBuf,
    storage: Arc<dyn Storage>,
}

impl ChunkStore {
    pub fn new(repo_root: &Path, storage: Arc<dyn Storage>) -> ChunkStore {
        ChunkStore {
            dir: repo_root.join(CHUNK_DIR),
            storage,
        }
    }

    pub fn path_of(&self, hash: &str) -> PathBuf {
        self.dir.join(format!("{hash}{CHUNK_SUFFIX}"))
    }

    /// Store a chunk, returning its content hash. Chunks are immutable
    /// and exclusively created: a racing or pre-existing identical
    /// chunk surfaces as `AlreadyExists`, which *is* success (the
    /// dedup hit) — content addressing guarantees the existing bytes
    /// are the bytes we were about to write.
    pub fn put(&self, bytes: &[u8]) -> io::Result<String> {
        let hash = chunk_hash(bytes);
        match self.storage.create_exclusive(&self.path_of(&hash), bytes) {
            Ok(()) => Ok(hash),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(hash),
            Err(e) => Err(e),
        }
    }

    /// Read a chunk back, verifying its content against its name so a
    /// corrupted chunk can never silently flow into a reconstructed
    /// model.
    pub fn get(&self, hash: &str) -> io::Result<Vec<u8>> {
        let bytes = self.storage.read(&self.path_of(hash))?;
        if chunk_hash(&bytes) != hash {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("chunk {hash} fails content verification"),
            ));
        }
        Ok(bytes)
    }

    fn put_tensor(&self, t: &Tensor) -> io::Result<TensorRef> {
        let bytes = tensor_bytes(t);
        let mut chunks = Vec::new();
        for part in bytes.chunks(MAX_CHUNK_BYTES.max(1)) {
            chunks.push(self.put(part)?);
        }
        Ok(TensorRef {
            rows: t.rows(),
            cols: t.cols(),
            chunks,
            sparse: None,
        })
    }

    fn get_tensor(&self, r: &TensorRef) -> io::Result<Tensor> {
        // The shape is read from a manifest: check it before it sizes
        // anything, and reserve no more than the chunks can hold.
        let len = r.rows.checked_mul(r.cols).and_then(|n| n.checked_mul(4)).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("tensor shape {}x{} overflows", r.rows, r.cols),
            )
        })?;
        let held = r.chunks.len().saturating_mul(MAX_CHUNK_BYTES);
        let mut bytes = Vec::with_capacity(len.min(held));
        for hash in &r.chunks {
            bytes.extend_from_slice(&self.get(hash)?);
        }
        tensor_from_bytes(r.rows, r.cols, &bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// Encode a model as a full manifest, writing its tensor chunks.
pub fn encode_full(model: &Model, store: &ChunkStore) -> io::Result<Manifest> {
    let (skeleton, params) = model.strip_params();
    let mut layers = Vec::with_capacity(params.len());
    for (id, p) in params {
        layers.push(LayerDelta {
            layer: id.index(),
            replace: true,
            weight: p.weight.as_ref().map(|t| store.put_tensor(t)).transpose()?,
            bias: p.bias.as_ref().map(|t| store.put_tensor(t)).transpose()?,
        });
    }
    Ok(Manifest {
        format_version: MANIFEST_VERSION,
        base: None,
        skeleton,
        layers,
    })
}

/// A sparse override is worth it only well below the dense raw-byte
/// cost: one JSON `[index,value]` pair runs ~24 bytes vs 4 bytes per
/// dense element.
fn sparse_pays_off(changed: usize, len: usize) -> bool {
    changed * 24 < len * 4
}

fn delta_tensor(new: &Tensor, base: Option<&Tensor>, store: &ChunkStore) -> io::Result<Option<TensorRef>> {
    if let Some(b) = base {
        if b.rows() == new.rows() && b.cols() == new.cols() {
            let mut changed = Vec::new();
            for (i, (n, o)) in new.as_slice().iter().zip(b.as_slice()).enumerate() {
                if n.to_bits() == o.to_bits() {
                    continue;
                }
                // Non-finite values don't survive JSON, and the count
                // only grows: either way the tensor ships dense.
                if !n.is_finite() || !sparse_pays_off(changed.len() + 1, new.len()) {
                    return store.put_tensor(new).map(Some);
                }
                changed.push((i, f64::from(*n)));
            }
            if changed.is_empty() {
                // Identical to base: inherit, no entry at all.
                return Ok(None);
            }
            return Ok(Some(TensorRef {
                rows: new.rows(),
                cols: new.cols(),
                chunks: Vec::new(),
                sparse: Some(changed),
            }));
        }
    }
    store.put_tensor(new).map(Some)
}

/// Encode a model as a delta manifest against `base` (stored under
/// `base_key`), writing any chunks the delta needs. Falls back to a
/// full manifest when the two models are not structurally aligned
/// (different operator sequences), where per-layer deltas are
/// meaningless.
pub fn encode_delta(
    model: &Model,
    base_key: &str,
    base: &Model,
    store: &ChunkStore,
) -> io::Result<Manifest> {
    if model.op_tags() != base.op_tags() {
        return encode_full(model, store);
    }
    let (skeleton, params) = model.strip_params();
    let mut layers = Vec::new();
    for (id, p) in params {
        let base_params = &base.layer(id).params;
        if base_params == p {
            continue;
        }
        // Slot-set drift (e.g. the variant dropped the base's bias)
        // cannot be expressed by inheritance — replace the layer.
        let slots_match = base_params.weight.is_some() == p.weight.is_some()
            && base_params.bias.is_some() == p.bias.is_some();
        if !slots_match {
            layers.push(LayerDelta {
                layer: id.index(),
                replace: true,
                weight: p.weight.as_ref().map(|t| store.put_tensor(t)).transpose()?,
                bias: p.bias.as_ref().map(|t| store.put_tensor(t)).transpose()?,
            });
            continue;
        }
        let weight = match (&p.weight, &base_params.weight) {
            (Some(n), b) => delta_tensor(n, b.as_ref(), store)?,
            (None, _) => None,
        };
        let bias = match (&p.bias, &base_params.bias) {
            (Some(n), b) => delta_tensor(n, b.as_ref(), store)?,
            (None, _) => None,
        };
        if weight.is_some() || bias.is_some() {
            layers.push(LayerDelta {
                layer: id.index(),
                replace: false,
                weight,
                bias,
            });
        }
    }
    Ok(Manifest {
        format_version: MANIFEST_VERSION,
        base: Some(base_key.to_string()),
        skeleton,
        layers,
    })
}

fn resolve_tensor(r: &TensorRef, base: Option<&Tensor>, store: &ChunkStore) -> io::Result<Tensor> {
    match &r.sparse {
        None => store.get_tensor(r),
        Some(overrides) => {
            let base = base.ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "sparse tensor delta without a base tensor",
                )
            })?;
            if base.rows() != r.rows || base.cols() != r.cols {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "sparse delta shape {}x{} does not match base {}x{}",
                        r.rows,
                        r.cols,
                        base.rows(),
                        base.cols()
                    ),
                ));
            }
            let mut data = base.as_slice().to_vec();
            for &(idx, val) in overrides {
                let slot = data.get_mut(idx).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("sparse index {idx} out of range ({} elements)", r.rows * r.cols),
                    )
                })?;
                *slot = val as f32;
            }
            Ok(Tensor::from_vec(r.rows, r.cols, data))
        }
    }
}

/// Reconstruct the model a manifest describes. Delta manifests require
/// the already-reconstructed base model; full manifests pass `None`.
pub fn reconstruct(
    manifest: &Manifest,
    base: Option<&Model>,
    store: &ChunkStore,
) -> io::Result<Model> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    if manifest.base.is_some() != base.is_some() {
        return Err(bad("delta manifest requires its base model".into()));
    }
    let num_layers = manifest.skeleton.num_layers();
    let mut params: Vec<Option<Params>> = vec![None; num_layers];
    if let Some(base) = base {
        if base.op_tags() != manifest.skeleton.op_tags() {
            return Err(bad(format!(
                "delta base '{}' is not structurally aligned with the manifest skeleton",
                base.name
            )));
        }
        for (i, layer) in base.layers().iter().enumerate() {
            if layer.params.count() != 0 {
                params[i] = Some(layer.params.clone());
            }
        }
    }
    for entry in &manifest.layers {
        if entry.layer >= num_layers {
            return Err(bad(format!(
                "manifest entry for layer {} but skeleton has {num_layers}",
                entry.layer
            )));
        }
        let inherited = if entry.replace {
            None
        } else {
            params[entry.layer].take()
        };
        let inherited = inherited.unwrap_or_else(Params::none);
        let weight = match &entry.weight {
            Some(r) => Some(resolve_tensor(r, inherited.weight.as_ref(), store)?),
            None if entry.replace => None,
            None => inherited.weight,
        };
        let bias = match &entry.bias {
            Some(r) => Some(resolve_tensor(r, inherited.bias.as_ref(), store)?),
            None if entry.replace => None,
            None => inherited.bias,
        };
        params[entry.layer] = Some(Params { weight, bias });
    }
    let pairs = params
        .into_iter()
        .enumerate()
        .filter_map(|(i, p)| p.map(|p| (LayerId(i), p)));
    Model::attach_params(&manifest.skeleton, pairs).map_err(|e| bad(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_fault::StdStorage;
    use sommelier_graph::{ModelBuilder, TaskKind};
    use sommelier_tensor::{Prng, Shape};

    fn chunk_count(cs: &ChunkStore) -> usize {
        list_chunk_dir(&StdStorage, &cs.dir).unwrap().len()
    }

    fn store(tag: &str) -> (PathBuf, ChunkStore) {
        let dir = std::env::temp_dir().join(format!(
            "sommelier-chunks-{tag}-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(dir.join(CHUNK_DIR)).unwrap();
        let cs = ChunkStore::new(&dir, Arc::new(StdStorage));
        (dir, cs)
    }

    fn model(name: &str, seed: u64) -> Model {
        let mut rng = Prng::seed_from_u64(seed);
        ModelBuilder::new(name, TaskKind::Other, Shape::vector(16))
            .dense(8, &mut rng)
            .relu()
            .dense(4, &mut rng)
            .build()
            .unwrap()
    }

    #[test]
    fn chunk_hash_is_content_addressed() {
        assert_eq!(chunk_hash(b"abc"), chunk_hash(b"abc"));
        assert_ne!(chunk_hash(b"abc"), chunk_hash(b"abd"));
        assert_ne!(chunk_hash(b""), chunk_hash(b"\0"));
        let hash = chunk_hash(b"x");
        assert_eq!(hash.len(), 32);
        assert!(hash.bytes().all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()));
    }

    #[test]
    fn put_is_idempotent_and_get_verifies() {
        let (dir, cs) = store("putget");
        let h = cs.put(b"payload").unwrap();
        assert_eq!(cs.put(b"payload").unwrap(), h);
        assert_eq!(cs.get(&h).unwrap(), b"payload");
        assert_eq!(chunk_count(&cs), 1);
        // Corrupt the chunk on disk: reads must fail verification.
        std::fs::write(cs.path_of(&h), b"tampered").unwrap();
        assert!(cs.get(&h).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_manifest_round_trips() {
        let (dir, cs) = store("full");
        let m = model("full", 7);
        let manifest = encode_full(&m, &cs).unwrap();
        assert!(manifest.base.is_none());
        let json = manifest.to_json();
        let parsed = Manifest::from_json(&json).unwrap();
        assert_eq!(parsed, manifest);
        let back = reconstruct(&parsed, None, &cs).unwrap();
        assert_eq!(back, m);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_forged_tensor_shape_fails_closed() {
        let (dir, cs) = store("forged");
        let m = model("forged", 13);
        let json = encode_full(&m, &cs).unwrap().to_json();
        // The first weight is 16x8, one chunk. A shape whose byte count
        // wraps, and one that would reserve 32 TiB for that chunk.
        for forged in [
            r#""rows":4611686018427387904,"cols":8"#,
            r#""rows":1099511627776,"cols":8"#,
        ] {
            let edited = json.replacen(r#""rows":16,"cols":8"#, forged, 1);
            assert_ne!(edited, json);
            let manifest = Manifest::from_json(&edited).unwrap();
            let err = reconstruct(&manifest, None, &cs).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn identical_models_share_every_chunk() {
        let (dir, cs) = store("share");
        let m = model("one", 9);
        encode_full(&m, &cs).unwrap();
        let before = chunk_count(&cs);
        encode_full(&m.renamed("two"), &cs).unwrap();
        assert_eq!(chunk_count(&cs), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sparse_delta_round_trips_exactly() {
        let (dir, cs) = store("sparse");
        let base = model("base", 11);
        let mut variant = base.renamed("variant");
        let id = variant.linear_layers()[1];
        let mut p = variant.layer(id).params.clone();
        let w = p.weight.as_ref().unwrap();
        let mut data = w.as_slice().to_vec();
        data[3] = -1.25;
        p.weight = Some(Tensor::from_vec(w.rows(), w.cols(), data));
        variant.set_params(id, p).unwrap();

        let manifest = encode_delta(&variant, "base", &base, &cs).unwrap();
        assert_eq!(manifest.base.as_deref(), Some("base"));
        assert_eq!(manifest.layers.len(), 1);
        let entry = &manifest.layers[0];
        assert!(entry.weight.as_ref().unwrap().sparse.is_some());
        assert!(entry.bias.is_none());
        // The JSON round trip must not lose float precision.
        let parsed = Manifest::from_json(&manifest.to_json()).unwrap();
        let back = reconstruct(&parsed, Some(&base), &cs).unwrap();
        assert_eq!(back, variant);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tensor_bytes_match_the_per_element_form() {
        let values = [
            f32::from_bits(0x7fc0_1234), // quiet NaN with a payload
            f32::from_bits(0x7f80_0001), // signalling NaN
            f32::from_bits(0xffc0_0000), // negative NaN
            -0.0,
            0.0,
            f32::from_bits(1), // smallest subnormal
            -f32::from_bits(0x007f_ffff),
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.5,
        ];
        let t = Tensor::from_vec(2, 5, values.to_vec());
        let per_element: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let bytes = tensor_bytes(&t);
        assert_eq!(bytes, per_element);
        let back = tensor_from_bytes(2, 5, &bytes).unwrap();
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&t));
    }

    #[test]
    fn a_delta_goes_dense_when_its_last_element_crosses_the_threshold() {
        let (dir, cs) = store("threshold");
        // 60 elements: sparse pays off for at most 9 changes.
        let base = Tensor::zeros(6, 10);
        let mut data = vec![0.0; 60];
        for i in 0..9 {
            data[i * 6] = 1.0 + i as f32;
        }
        let nine = Tensor::from_vec(6, 10, data.clone());
        let sparse = delta_tensor(&nine, Some(&base), &cs).unwrap().unwrap();
        assert_eq!(sparse.sparse.map(|s| s.len()), Some(9));
        assert!(sparse.chunks.is_empty());
        data[59] = -2.0;
        let ten = Tensor::from_vec(6, 10, data);
        let dense = delta_tensor(&ten, Some(&base), &cs).unwrap().unwrap();
        assert_eq!(dense.sparse, None);
        assert_eq!(dense, cs.put_tensor(&ten).unwrap());
        // A non-finite change ships dense however few there are.
        let mut one = vec![0.0; 60];
        one[7] = f32::NAN;
        let nan = Tensor::from_vec(6, 10, one);
        let dense = delta_tensor(&nan, Some(&base), &cs).unwrap().unwrap();
        assert_eq!(dense.sparse, None);
        assert_eq!(delta_tensor(&base, Some(&base), &cs).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn structurally_misaligned_delta_falls_back_to_full() {
        let (dir, cs) = store("fallback");
        let base = model("base", 3);
        let mut rng = Prng::seed_from_u64(4);
        let other = ModelBuilder::new("other", TaskKind::Other, Shape::vector(16))
            .dense(4, &mut rng)
            .build()
            .unwrap();
        let manifest = encode_delta(&other, "base", &base, &cs).unwrap();
        assert!(manifest.base.is_none(), "fell back to a full manifest");
        assert_eq!(reconstruct(&manifest, None, &cs).unwrap(), other);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reconstruct_rejects_mismatched_base() {
        let (dir, cs) = store("mismatch");
        let base = model("base", 5);
        let mut variant = base.renamed("variant");
        let id = variant.linear_layers()[0];
        let mut p = variant.layer(id).params.clone();
        let w = p.weight.as_ref().unwrap();
        let mut data = w.as_slice().to_vec();
        data[0] += 0.5;
        p.weight = Some(Tensor::from_vec(w.rows(), w.cols(), data));
        variant.set_params(id, p).unwrap();
        let manifest = encode_delta(&variant, "base", &base, &cs).unwrap();
        assert!(manifest.base.is_some());
        // Wrong base model: structurally aligned but different weights
        // is undetectable by design (deltas are positional), so test
        // the detectable failure — a structurally different base.
        let mut rng = Prng::seed_from_u64(6);
        let wrong = ModelBuilder::new("wrong", TaskKind::Other, Shape::vector(16))
            .dense(2, &mut rng)
            .build()
            .unwrap();
        assert!(reconstruct(&manifest, Some(&wrong), &cs).is_err());
        assert!(reconstruct(&manifest, None, &cs).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
