//! The resource profile index (paper Section 5.3).
//!
//! A map from model key to its resource-profile vector `(memory, GFLOPs,
//! latency)`, answering two questions. *Does this model fit?* —
//! [`ResourceIndex::profile_of`], one hash probe, which is all the query
//! engine asks: its semantic stage hands it a bounded candidate list and
//! it tests each candidate's profile against the bounds ("those that
//! satisfy the constraints in all dimensions will be the outputs").
//! *Which models fit?* — [`ResourceIndex::query`], the resource-only
//! range query: one exact pass over the map. The paper organizes these
//! vectors with a cosine LSH; this index has none — an upper-bound range
//! is not a neighbourhood of any probe point, and 3-dimensional
//! all-positive profiles hash thousands of keys into one bucket, so an
//! LSH can only decorate the exact pass (milliseconds at 100K keys).
//!
//! The map sits behind one `Arc`, so cloning the index for snapshot
//! publication is a reference bump; a published snapshot holds the other
//! reference, so the first mutation after every publish copies the map
//! once — linear in the repository, not in the change. Hash iteration
//! order never escapes: everything that leaves the index as a sequence
//! (serialization, `.somb` rows, [`ResourceIndex::query`],
//! [`ResourceIndex::entries_audit`]) is in key order, so snapshot bytes
//! are a function of the key set alone, whatever history produced it.

use crate::lsh::LshConfig;
use serde::{Deserialize, Serialize};
use sommelier_parallel::ThreadPool;
use sommelier_runtime::metrics::counters::CachedCounter;
use sommelier_runtime::ResourceProfile;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-dimension upper bounds; `None` means unconstrained.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ResourceConstraint {
    /// Maximum memory in MB.
    pub max_memory_mb: Option<f64>,
    /// Maximum computational complexity in GFLOPs.
    pub max_gflops: Option<f64>,
    /// Maximum estimated latency in ms.
    pub max_latency_ms: Option<f64>,
}

impl ResourceConstraint {
    /// Whether a profile satisfies every bound.
    pub fn admits(&self, p: &ResourceProfile) -> bool {
        p.within(self.max_memory_mb, self.max_gflops, self.max_latency_ms)
    }
}

/// Full passes over the map ([`ResourceIndex::query`]). The query engine
/// must never raise it: its resource stage is per-candidate
/// [`ResourceIndex::profile_of`] probes.
static RANGE_SCANS: CachedCounter = CachedCounter::new("index.resource.range_scans");

/// The resource index: each key's profile, at most one per key.
#[derive(Clone, Debug, Default)]
pub struct ResourceIndex {
    profiles: Arc<HashMap<String, ResourceProfile>>,
}

// The wire shape is `{"entries": [[key, profile], ...]}` in key order —
// what a from-scratch build of the same key set writes, which is what
// makes incremental and bulk-built snapshots byte-identical.
impl Serialize for ResourceIndex {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![(
            "entries".to_string(),
            Serialize::to_value(&self.entries_audit()),
        )])
    }
}

impl Deserialize for ResourceIndex {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let entries: Vec<(String, ResourceProfile)> = serde::field(v, "entries")?;
        Ok(entries.into_iter().collect())
    }
}

/// Build from `(key, profile)` pairs (the snapshot loaders); a repeated
/// key keeps its last profile, as repeated [`ResourceIndex::insert`]s do.
impl FromIterator<(String, ResourceProfile)> for ResourceIndex {
    fn from_iter<I: IntoIterator<Item = (String, ResourceProfile)>>(entries: I) -> Self {
        ResourceIndex {
            profiles: Arc::new(entries.into_iter().collect()),
        }
    }
}

impl ResourceIndex {
    // Kept for `benchmark/src/fixture.rs:79`, which no product PR may
    // edit; delete with ROADMAP item 1.
    #[doc(hidden)]
    pub fn new(_config: LshConfig, _seed: u64) -> Self {
        Self::default()
    }

    /// Number of profiled keys.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Record a model's resource profile, replacing the key's previous
    /// one if it had any.
    pub fn insert(&mut self, key: impl Into<String>, profile: ResourceProfile) {
        Arc::make_mut(&mut self.profiles).insert(key.into(), profile);
    }

    /// Forget a key's profile; `false` when it had none.
    pub fn remove(&mut self, key: &str) -> bool {
        // Probe first: a miss must not copy a map a snapshot shares.
        self.profiles.contains_key(key) && Arc::make_mut(&mut self.profiles).remove(key).is_some()
    }

    /// The stored profile for a key, if present — one hash probe (this
    /// sits on the query executor's per-candidate hot path).
    pub fn profile_of(&self, key: &str) -> Option<&ResourceProfile> {
        self.profiles.get(key)
    }

    /// Keys of all models admitted by the constraint, in key order — the
    /// resource-only range query (paper Table 3, column (i)). Exact: one
    /// pass testing every profile against the bounds.
    pub fn query(&self, constraint: &ResourceConstraint) -> Vec<String> {
        RANGE_SCANS.add(1);
        let mut keys: Vec<&str> = self
            .profiles
            .iter()
            .filter(|(_, p)| constraint.admits(p))
            .map(|(k, _)| k.as_str())
            .collect();
        keys.sort_unstable();
        keys.into_iter().map(str::to_owned).collect()
    }

    /// [`ResourceIndex::query`] for callers that hold a pool. The pass
    /// is a comparison or three per key and a clone per admitted one,
    /// too little to fan out: the pool is not used, so the result cannot
    /// depend on its lane count.
    pub fn query_with(&self, _pool: &ThreadPool, constraint: &ResourceConstraint) -> Vec<String> {
        self.query(constraint)
    }

    /// Every `(key, profile)` in key order: the serialized form, and what
    /// integrity tooling walks to find profiles that dangle from the
    /// repository or drifted from their model.
    pub fn entries_audit(&self) -> Vec<(&str, &ResourceProfile)> {
        let mut entries: Vec<(&str, &ResourceProfile)> =
            self.profiles.iter().map(|(k, p)| (k.as_str(), p)).collect();
        entries.sort_unstable_by_key(|(k, _)| *k);
        entries
    }

    /// Every `(key, profile)` in hash order: for a check that reports
    /// only the smallest offender, so the order never escapes.
    pub(crate) fn entries_unordered(&self) -> impl Iterator<Item = (&str, &ResourceProfile)> {
        self.profiles.iter().map(|(k, p)| (k.as_str(), p))
    }

    /// Approximate in-memory footprint in bytes (key bytes + profiles).
    pub fn footprint_bytes(&self) -> usize {
        self.profiles
            .keys()
            .map(|k| k.len() + std::mem::size_of::<ResourceProfile>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(mem: f64, gf: f64, lat: f64) -> ResourceProfile {
        ResourceProfile {
            memory_mb: mem,
            gflops: gf,
            latency_ms: lat,
        }
    }

    fn populated() -> ResourceIndex {
        let mut idx = ResourceIndex::default();
        idx.insert("tiny", profile(1.0, 0.1, 0.5));
        idx.insert("small", profile(10.0, 1.0, 2.0));
        idx.insert("medium", profile(100.0, 10.0, 10.0));
        idx.insert("large", profile(1000.0, 100.0, 50.0));
        idx
    }

    #[test]
    fn query_filters_by_all_dimensions() {
        let got = populated().query(&ResourceConstraint {
            max_memory_mb: Some(50.0),
            max_gflops: Some(5.0),
            max_latency_ms: None,
        });
        assert_eq!(got, vec!["small", "tiny"]);
    }

    #[test]
    fn unconstrained_query_returns_everything() {
        let idx = populated();
        assert_eq!(idx.query(&ResourceConstraint::default()).len(), 4);
    }

    #[test]
    fn profile_of_finds_keys() {
        let idx = populated();
        assert!(idx.profile_of("medium").is_some());
        assert!(idx.profile_of("ghost").is_none());
    }

    #[test]
    fn removal_hides_entries_everywhere() {
        let mut idx = populated();
        assert!(idx.remove("small"));
        assert_eq!(idx.len(), 3);
        assert!(idx.profile_of("small").is_none());
        let all = idx.query(&ResourceConstraint::default());
        assert!(!all.contains(&"small".to_string()));
        assert!(idx.entries_audit().iter().all(|(k, _)| *k != "small"));
        assert!(!idx.remove("small"), "double removal is a no-op");
    }

    #[test]
    fn a_second_insert_replaces_the_profile() {
        let mut idx = populated();
        idx.insert("small", profile(20.0, 2.0, 3.0));
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.profile_of("small"), Some(&profile(20.0, 2.0, 3.0)));
    }

    #[test]
    fn serialization_is_canonical_across_mutation_histories() {
        // A churned index must serialize byte-identically to a fresh
        // build of the same key set.
        let mut churned = ResourceIndex::default();
        churned.insert("c", profile(100.0, 10.0, 10.0));
        churned.insert("dropped", profile(7.0, 7.0, 7.0));
        churned.insert("a", profile(9.0, 9.0, 9.0));
        churned.insert("b", profile(10.0, 1.0, 2.0));
        churned.remove("dropped");
        churned.insert("a", profile(1.0, 0.1, 0.5));

        let fresh: ResourceIndex = [
            ("a", profile(1.0, 0.1, 0.5)),
            ("b", profile(10.0, 1.0, 2.0)),
            ("c", profile(100.0, 10.0, 10.0)),
        ]
        .into_iter()
        .map(|(k, p)| (k.to_string(), p))
        .collect();
        let json = serde_json::to_string(&churned).unwrap();
        assert_eq!(
            json,
            serde_json::to_string(&fresh).unwrap(),
            "serialized form depends on mutation history"
        );
        let back: ResourceIndex = serde_json::from_str(&json).unwrap();
        assert_eq!(back.entries_audit(), fresh.entries_audit());
    }

    #[test]
    fn range_query_is_the_key_order_filter_through_every_mutation() {
        let pools = [ThreadPool::new(1), ThreadPool::new(4)];
        let grid: Vec<ResourceConstraint> = [None, Some(0.5), Some(40.0), Some(5000.0)]
            .into_iter()
            .flat_map(|mem| {
                [None, Some(3.0)].into_iter().flat_map(move |gf| {
                    [None, Some(11.0)].into_iter().map(move |lat| ResourceConstraint {
                        max_memory_mb: mem,
                        max_gflops: gf,
                        max_latency_ms: lat,
                    })
                })
            })
            .collect();
        // The spec, kept beside the index: a plain list, filtered and
        // sorted.
        let check = |idx: &ResourceIndex, model: &[(String, ResourceProfile)], stage: &str| {
            for c in &grid {
                let mut want: Vec<String> = model
                    .iter()
                    .filter(|(_, p)| c.admits(p))
                    .map(|(k, _)| k.clone())
                    .collect();
                want.sort();
                assert_eq!(idx.query(c), want, "{stage}, {c:?}");
                for pool in &pools {
                    assert_eq!(
                        idx.query_with(pool, c),
                        want,
                        "{stage}, jobs={}, {c:?}",
                        pool.jobs()
                    );
                }
            }
        };
        let mut idx = ResourceIndex::default();
        let mut model: Vec<(String, ResourceProfile)> = Vec::new();
        for i in 0..200u32 {
            let x = f64::from(i * 37 % 101);
            let entry = (format!("m{i:03}"), profile(x * 2.0, x / 10.0, 100.0 - x));
            idx.insert(entry.0.clone(), entry.1);
            model.push(entry);
        }
        check(&idx, &model, "built");
        for i in (0..200).step_by(3) {
            assert!(idx.remove(&format!("m{i:03}")));
        }
        model.retain(|(k, _)| k[1..].parse::<u32>().unwrap() % 3 != 0);
        check(&idx, &model, "removed");
        // Re-adding a removed key and adding one that sorts last.
        for entry in [
            ("m000".to_string(), profile(1.0, 0.2, 5.0)),
            ("zlate".to_string(), profile(30.0, 2.0, 9.0)),
        ] {
            idx.insert(entry.0.clone(), entry.1);
            model.push(entry);
        }
        assert_eq!(idx.len(), model.len());
        check(&idx, &model, "re-added");
    }

    #[test]
    fn footprint_grows_with_entries() {
        let empty = ResourceIndex::default();
        assert!(populated().footprint_bytes() > empty.footprint_bytes());
    }
}
