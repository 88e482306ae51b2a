//! The bare-bone model repository substrate.
//!
//! This crate reproduces what the paper says existing model repositories
//! *are*: "a remote filesystem only, with primitive APIs to publish and
//! load a model" (Section 2.1). A [`ModelRepository`] maps URL-like keys to
//! stored models and nothing more — no query support, no indices. That is
//! deliberately spartan: Sommelier interposes on top of this interface
//! (Figure 1), and the bench harness's "manual profiling" baselines use it
//! exactly the way a user without Sommelier would.
//!
//! Two backends are provided: in-memory (the default for experiments) and
//! on-disk. The on-disk backend has one layout, family-aware delta
//! storage ([`chunks`]): each model is kept as a manifest over
//! content-addressed tensor chunks — full, or a delta against a base
//! model — and is reconstructed transparently on load, so the
//! repository's callers never see the difference.

pub mod chunks;
pub mod scan;
pub mod store;

pub use chunks::{chunk_hash, ChunkStore, Manifest, CHUNK_DIR, CHUNK_SUFFIX, MANIFEST_SUFFIX};
pub use scan::{
    classify, repair_store, scan_store, Finding, FindingKind, Fix, Outcome, StoreEntry, StoreScan,
};
pub use store::{
    check_publishable, decode_key, dedup_store, encode_key, InMemoryRepository, ModelRepository,
    OnDiskRepository, RepoError,
};
