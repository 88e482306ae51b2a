//! The resource profile index (paper Section 5.3).
//!
//! Each entry maps a resource-profile vector `(memory, GFLOPs, latency)`
//! to a model key, and the index answers two questions. *Does this model
//! fit?* — [`ResourceIndex::profile_of`], an O(1) probe, which is all the
//! query engine asks: its semantic stage hands it a bounded candidate
//! list and it tests each candidate's profile against the bounds ("those
//! that satisfy the constraints in all dimensions will be the outputs").
//! *Which models fit?* — [`ResourceIndex::query`], the resource-only range
//! query: one exact pass over the live slots. The cosine LSH over the
//! same vectors is maintained and persisted but read by neither — an
//! upper-bound range is not a neighbourhood of any probe point — nor yet
//! by [`ResourceIndex::nearest`], which scans the slab.
//!
//! # Incremental maintenance
//!
//! Removal tombstones the slot, purges its id from the LSH buckets
//! ([`CosineLsh::remove`]) and parks the slot on a free list that the
//! next insertion reuses, so a churn loop neither leaks bucket ids nor
//! grows the `f32` slab forever. Once tombstones outnumber live entries
//! the index compacts (dense renumbering, slab shrink, LSH rebuild over
//! the same hyperplanes). Members sit behind `Arc`s so cloning the index
//! for snapshot publication is a handful of reference bumps. The sharing
//! is per whole container, not per entry: a published snapshot holds the
//! other reference, so the first mutation after every publish deep-copies
//! each member it writes — entry table, tombstones, slot map, slab, LSH —
//! which is linear in the repository, not in the change (a remove plus
//! an insert: ≈ 0.45 ms at 5 000 keys; paging them is ROADMAP item 4b).

use crate::lsh::{CosineLsh, LshConfig};
use serde::{Deserialize, Serialize};
use sommelier_parallel::ThreadPool;
use sommelier_runtime::metrics::counters::CachedCounter;
use sommelier_runtime::ResourceProfile;
use sommelier_tensor::linalg;
use std::collections::{BTreeSet, HashMap};
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

    /// True when no dimension is constrained.
    pub fn is_unconstrained(&self) -> bool {
        self.max_memory_mb.is_none() && self.max_gflops.is_none() && self.max_latency_ms.is_none()
    }
}

/// Full passes over the slot table ([`ResourceIndex::query`]). The
/// query engine must never raise it: its resource stage is per-candidate
/// [`ResourceIndex::profile_of`] probes.
static RANGE_SCANS: CachedCounter = CachedCounter::new("index.resource.range_scans");

/// Lanes per profile row in the scoring slab: the 3-dimensional profile
/// vector zero-padded to 4 so rows stay power-of-two strided (and the
/// on-disk slab stays 16-byte row-aligned inside its 64-byte-aligned
/// section).
pub const SLAB_STRIDE: usize = 4;

/// The resource index.
///
/// `slots`, `slab` and `free` are *derived* acceleration structures —
/// rebuilt from `entries` on deserialization and maintained incrementally
/// on mutation, never serialized. The slab holds every profile vector as
/// a dense `f32` row ([`SLAB_STRIDE`] lanes), the linear-scan surface for
/// the chunked scoring kernels; the slot map makes `profile_of` O(1); the
/// free list tracks tombstoned slots for reuse.
#[derive(Clone, Debug)]
pub struct ResourceIndex {
    entries: Arc<Vec<(String, ResourceProfile)>>,
    /// Tombstones for removed entries (aligned with `entries`).
    removed: Arc<Vec<bool>>,
    lsh: Arc<CosineLsh>,
    /// Persisted with the index (a JSON field, a `.somb` flag bit) and
    /// kept so snapshots stay byte-compatible; it has no effect on a
    /// query — the range query is one exact pass whichever way it is set.
    pub exhaustive: bool,
    /// Derived: key → first live slot (the entry `profile_of` serves).
    slots: Arc<HashMap<String, u32>>,
    /// Derived: dense `f32` profile rows, [`SLAB_STRIDE`] lanes per slot
    /// (tombstoned slots keep their row; liveness is positional).
    slab: Arc<Vec<f32>>,
    /// Derived: tombstoned slot ids, lowest first, reused by insertion.
    free: Arc<BTreeSet<u32>>,
}

// Serialization canonicalizes through `canonical_view`: live entries in
// sorted-key order, no tombstones, LSH ids renumbered to match — the
// exact state a from-scratch build of the same live set produces, which
// is what makes incremental and bulk-built snapshots byte-identical.
// The wire shape is unchanged from the original `#[derive]` (snapshot
// compatibility both ways) and deserialization still accepts tombstoned
// images, rebuilding the derived structures.
impl Serialize for ResourceIndex {
    fn to_value(&self) -> serde::Value {
        let (entries, removed, lsh) = self.canonical_view();
        serde::Value::Map(vec![
            ("entries".to_string(), Serialize::to_value(&entries)),
            ("removed".to_string(), Serialize::to_value(&removed)),
            ("lsh".to_string(), Serialize::to_value(&lsh)),
            ("exhaustive".to_string(), Serialize::to_value(&self.exhaustive)),
        ])
    }
}

impl Deserialize for ResourceIndex {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let _ = serde::expect_map(v)?;
        let mut idx = ResourceIndex {
            entries: Arc::new(serde::field(v, "entries")?),
            removed: Arc::new(serde::field(v, "removed")?),
            lsh: Arc::new(serde::field(v, "lsh")?),
            exhaustive: serde::field(v, "exhaustive")?,
            slots: Arc::new(HashMap::new()),
            slab: Arc::new(Vec::new()),
            free: Arc::new(BTreeSet::new()),
        };
        idx.rebuild_derived();
        Ok(idx)
    }
}

/// One profile row as slab lanes.
fn slab_row(p: &ResourceProfile) -> [f32; SLAB_STRIDE] {
    [p.memory_mb as f32, p.gflops as f32, p.latency_ms as f32, 0.0]
}

impl ResourceIndex {
    /// Create an empty index.
    pub fn new(config: LshConfig, seed: u64) -> Self {
        ResourceIndex {
            entries: Arc::new(Vec::new()),
            removed: Arc::new(Vec::new()),
            lsh: Arc::new(CosineLsh::new(3, config, seed)),
            exhaustive: false,
            slots: Arc::new(HashMap::new()),
            slab: Arc::new(Vec::new()),
            free: Arc::new(BTreeSet::new()),
        }
    }

    /// Reassemble an index from decoded parts (the binary-snapshot
    /// loader and synthetic-index builders); derived structures are
    /// rebuilt, the LSH is taken as decoded (bucket contents round-trip,
    /// they are not re-hashed).
    pub fn from_parts(
        entries: Vec<(String, ResourceProfile)>,
        removed: Vec<bool>,
        lsh: CosineLsh,
        exhaustive: bool,
    ) -> Self {
        assert_eq!(entries.len(), removed.len(), "tombstone vector misaligned");
        let mut idx = ResourceIndex {
            entries: Arc::new(entries),
            removed: Arc::new(removed),
            lsh: Arc::new(lsh),
            exhaustive,
            slots: Arc::new(HashMap::new()),
            slab: Arc::new(Vec::new()),
            free: Arc::new(BTreeSet::new()),
        };
        idx.rebuild_derived();
        idx
    }

    /// Rebuild the derived slot map, scoring slab and free list from the
    /// entry table (deserialization and bulk reconstruction).
    fn rebuild_derived(&mut self) {
        let mut slab = Vec::with_capacity(self.entries.len() * SLAB_STRIDE);
        let mut slots: HashMap<String, u32> = HashMap::with_capacity(self.entries.len());
        let mut free = BTreeSet::new();
        for (i, (k, p)) in self.entries.iter().enumerate() {
            slab.extend_from_slice(&slab_row(p));
            if self.removed.get(i).copied().unwrap_or(false) {
                free.insert(i as u32);
            } else {
                slots.entry(k.clone()).or_insert(i as u32);
            }
        }
        self.slab = Arc::new(slab);
        self.slots = Arc::new(slots);
        self.free = Arc::new(free);
    }

    /// The canonical (serialization) state: live entries in sorted-key
    /// order, an all-false tombstone vector, and the LSH with ids
    /// renumbered to the sorted order (dead ids dropped, id lists
    /// ascending, emptied buckets omitted) — exactly what inserting the
    /// live set into a fresh index in key order produces.
    pub(crate) fn canonical_view(
        &self,
    ) -> (Vec<(String, ResourceProfile)>, Vec<bool>, CosineLsh) {
        let mut live: Vec<usize> = (0..self.entries.len())
            .filter(|i| !self.removed[*i])
            .collect();
        live.sort_by(|a, b| self.entries[*a].0.cmp(&self.entries[*b].0));
        let remap: HashMap<usize, usize> = live
            .iter()
            .enumerate()
            .map(|(new, old)| (*old, new))
            .collect();
        let entries: Vec<(String, ResourceProfile)> =
            live.iter().map(|&i| self.entries[i].clone()).collect();
        let buckets: Vec<Vec<(u64, Vec<usize>)>> = self
            .lsh
            .buckets_audit()
            .iter()
            .map(|table| {
                table
                    .iter()
                    .filter_map(|(sig, ids)| {
                        let mut mapped: Vec<usize> = ids
                            .iter()
                            .filter_map(|id| remap.get(id).copied())
                            .collect();
                        mapped.sort_unstable();
                        if mapped.is_empty() {
                            None
                        } else {
                            Some((*sig, mapped))
                        }
                    })
                    .collect()
            })
            .collect();
        let lsh = CosineLsh::from_parts(
            self.lsh.dim(),
            self.lsh.config(),
            self.lsh.planes().to_vec(),
            buckets,
            entries.len(),
        );
        let removed = vec![false; entries.len()];
        (entries, removed, lsh)
    }

    /// The dense `f32` scoring slab: [`SLAB_STRIDE`] lanes per slot, in
    /// slot order, tombstones included.
    pub fn slab(&self) -> &[f32] {
        &self.slab
    }

    /// Number of live (non-removed) profiles.
    pub fn len(&self) -> usize {
        self.removed.iter().filter(|r| !**r).count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert a model's resource profile, reusing the lowest tombstoned
    /// slot when one is free.
    pub fn insert(&mut self, key: impl Into<String>, profile: ResourceProfile) {
        let key = key.into();
        let vector = profile.as_vector();
        let row = slab_row(&profile);
        let entries = Arc::make_mut(&mut self.entries);
        let removed = Arc::make_mut(&mut self.removed);
        let slab = Arc::make_mut(&mut self.slab);
        let id = match Arc::make_mut(&mut self.free).pop_first() {
            Some(slot) => {
                let i = slot as usize;
                entries[i] = (key.clone(), profile);
                removed[i] = false;
                slab[i * SLAB_STRIDE..(i + 1) * SLAB_STRIDE].copy_from_slice(&row);
                i
            }
            None => {
                let i = entries.len();
                entries.push((key.clone(), profile));
                removed.push(false);
                slab.extend_from_slice(&row);
                i
            }
        };
        Arc::make_mut(&mut self.lsh).insert(&vector, id);
        // First live slot wins, matching the old first-match scan.
        Arc::make_mut(&mut self.slots).entry(key).or_insert(id as u32);
    }

    /// Remove a key's profile: the slot is tombstoned and freed for
    /// reuse, and its id is purged from the LSH buckets. Compacts when
    /// tombstones outnumber live entries.
    pub fn remove(&mut self, key: &str) -> bool {
        let hits: Vec<usize> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(i, (k, _))| k == key && !self.removed[*i])
            .map(|(i, _)| i)
            .collect();
        if hits.is_empty() {
            return false;
        }
        {
            let removed = Arc::make_mut(&mut self.removed);
            let lsh = Arc::make_mut(&mut self.lsh);
            let free = Arc::make_mut(&mut self.free);
            for &i in &hits {
                removed[i] = true;
                lsh.remove(&self.entries[i].1.as_vector(), i);
                free.insert(i as u32);
            }
        }
        Arc::make_mut(&mut self.slots).remove(key);
        let live = self.len();
        if self.entries.len() - live > live {
            self.compact();
        }
        true
    }

    /// Drop every tombstoned slot: live entries are renumbered densely
    /// (slot order preserved), the slab shrinks, and the LSH is rebuilt
    /// over the same hyperplanes with the remapped ids. Runs
    /// automatically once tombstones outnumber live entries; callable
    /// explicitly for eager shrinking.
    pub fn compact(&mut self) {
        let entries: Vec<(String, ResourceProfile)> = self
            .entries
            .iter()
            .zip(self.removed.iter())
            .filter(|(_, r)| !**r)
            .map(|(e, _)| e.clone())
            .collect();
        let mut lsh = CosineLsh::from_parts(
            self.lsh.dim(),
            self.lsh.config(),
            self.lsh.planes().to_vec(),
            vec![Vec::new(); self.lsh.config().tables],
            0,
        );
        for (id, (_, p)) in entries.iter().enumerate() {
            lsh.insert(&p.as_vector(), id);
        }
        self.removed = Arc::new(vec![false; entries.len()]);
        self.entries = Arc::new(entries);
        self.lsh = Arc::new(lsh);
        self.rebuild_derived();
    }

    /// The stored profile for a key, if present (and not removed) —
    /// O(1) through the derived slot map (this sits on the query
    /// executor's per-candidate hot path).
    pub fn profile_of(&self, key: &str) -> Option<&ResourceProfile> {
        self.slots
            .get(key)
            .map(|&i| &self.entries[i as usize].1)
    }

    /// Keys of all models admitted by the constraint, in slot order —
    /// the resource-only range query (paper Table 3, column (i)). Exact:
    /// one pass testing every live slot against the bounds.
    pub fn query(&self, constraint: &ResourceConstraint) -> Vec<String> {
        RANGE_SCANS.add(1);
        self.entries
            .iter()
            .zip(self.removed.iter())
            .filter(|((_, p), removed)| !**removed && constraint.admits(p))
            .map(|((k, _), _)| k.clone())
            .collect()
    }

    /// [`ResourceIndex::query`] for callers that hold a pool. The pass
    /// is a comparison or three per slot and a key clone per admitted
    /// one, too little to fan out: the pool is not used, so the result
    /// cannot depend on its lane count.
    pub fn query_with(&self, _pool: &ThreadPool, constraint: &ResourceConstraint) -> Vec<String> {
        self.query(constraint)
    }

    /// The `k` entries with profiles closest (l2 on the raw vectors) to a
    /// target profile — used by Figure 12(b)-style "similar resource
    /// profile" probes.
    pub fn nearest(&self, target: &ResourceProfile, k: usize) -> Vec<(String, ResourceProfile)> {
        // Linear scan over the dense slab with the chunked distance
        // kernel — no per-candidate `Vec` materialization.
        let tv = slab_row(target);
        let mut scored: Vec<(f64, usize)> = self
            .slab
            .chunks_exact(SLAB_STRIDE)
            .enumerate()
            .filter(|(i, _)| !self.removed[*i])
            .map(|(i, row)| (linalg::dist2_chunked(&tv, row), i))
            .collect();
        // `total_cmp` keeps the sort panic-free on non-finite distances
        // (corrupted snapshots can carry arbitrary profile vectors).
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        scored
            .into_iter()
            .take(k)
            .map(|(_, i)| self.entries[i].clone())
            .collect()
    }

    /// Audit view of the entry table: `(key, profile, removed)` for every
    /// slot, tombstones included. Integrity tooling needs the raw
    /// *runtime* table (not the canonical serialization view) to
    /// cross-check LSH bucket ids against slot liveness and to find
    /// profiles that dangle from the repository.
    pub fn entries_audit(&self) -> Vec<(&str, &ResourceProfile, bool)> {
        self.entries
            .iter()
            .zip(self.removed.iter())
            .map(|((k, p), r)| (k.as_str(), p, *r))
            .collect()
    }

    /// Number of slots allocated (live + tombstoned). LSH bucket ids
    /// must all be smaller than this.
    pub fn slot_count(&self) -> usize {
        self.entries.len()
    }

    /// Read access to the underlying LSH structure for audits.
    pub fn lsh(&self) -> &CosineLsh {
        &self.lsh
    }

    /// Approximate in-memory footprint in bytes.
    pub fn footprint_bytes(&self) -> usize {
        let entries: usize = self
            .entries
            .iter()
            .map(|(k, _)| k.len() + std::mem::size_of::<ResourceProfile>())
            .sum();
        entries + self.slab.len() * std::mem::size_of::<f32>() + self.lsh.footprint_bytes()
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

    fn populated(exhaustive: bool) -> ResourceIndex {
        let mut idx = ResourceIndex::new(LshConfig::default(), 3);
        idx.exhaustive = exhaustive;
        idx.insert("tiny", profile(1.0, 0.1, 0.5));
        idx.insert("small", profile(10.0, 1.0, 2.0));
        idx.insert("medium", profile(100.0, 10.0, 10.0));
        idx.insert("large", profile(1000.0, 100.0, 50.0));
        idx
    }

    #[test]
    fn query_filters_by_all_dimensions() {
        for exhaustive in [true, false] {
            let idx = populated(exhaustive);
            let mut got = idx.query(&ResourceConstraint {
                max_memory_mb: Some(50.0),
                max_gflops: Some(5.0),
                max_latency_ms: None,
            });
            got.sort();
            assert_eq!(got, vec!["small", "tiny"], "exhaustive={exhaustive}");
        }
    }

    #[test]
    fn unconstrained_query_returns_everything() {
        let idx = populated(false);
        assert_eq!(idx.query(&ResourceConstraint::default()).len(), 4);
    }

    #[test]
    fn nearest_orders_by_profile_distance() {
        let idx = populated(true);
        let near = idx.nearest(&profile(9.0, 1.1, 2.1), 2);
        assert_eq!(near[0].0, "small");
        assert_eq!(near.len(), 2);
    }

    #[test]
    fn profile_of_finds_keys() {
        let idx = populated(true);
        assert!(idx.profile_of("medium").is_some());
        assert!(idx.profile_of("ghost").is_none());
    }

    #[test]
    fn removal_tombstones_hide_entries_everywhere() {
        let mut idx = populated(false);
        assert!(idx.remove("small"));
        assert_eq!(idx.len(), 3);
        assert!(idx.profile_of("small").is_none());
        let all = idx.query(&ResourceConstraint::default());
        assert!(!all.contains(&"small".to_string()));
        let near = idx.nearest(&profile(10.0, 1.0, 2.0), 4);
        assert!(near.iter().all(|(k, _)| k != "small"));
        assert!(!idx.remove("small"), "double removal is a no-op");
    }

    #[test]
    fn removal_purges_lsh_ids_immediately() {
        // The stale-id regression: before `CosineLsh::remove`, removal
        // left dead ids in the buckets that `candidates` happily
        // returned. Every stored id must point at a live slot.
        let mut idx = populated(false);
        assert!(idx.remove("small"));
        let audit = idx.entries_audit();
        for id in idx.lsh().stored_ids() {
            assert!(
                id < audit.len() && !audit[id].2,
                "LSH id {id} dangles from a tombstoned slot"
            );
        }
        assert_eq!(idx.lsh().len(), idx.len());
    }

    #[test]
    fn freed_slots_are_reused_before_growing() {
        let mut idx = populated(false);
        assert_eq!(idx.slot_count(), 4);
        assert!(idx.remove("small"));
        idx.insert("replacement", profile(20.0, 2.0, 3.0));
        assert_eq!(idx.slot_count(), 4, "insert grew the slab past a free slot");
        assert!(idx.profile_of("replacement").is_some());
        let mut got = idx.query(&ResourceConstraint::default());
        got.sort();
        assert_eq!(got, vec!["large", "medium", "replacement", "tiny"]);
    }

    #[test]
    fn compaction_shrinks_slots_and_footprint() {
        let mut idx = populated(false);
        let before_slots = idx.slot_count();
        let before_footprint = idx.footprint_bytes();
        // Removing 3 of 4 trips the tombstones > live threshold.
        for key in ["tiny", "small", "medium"] {
            assert!(idx.remove(key));
        }
        assert!(idx.slot_count() < before_slots, "compaction did not run");
        assert_eq!(idx.slot_count(), 1);
        assert!(idx.footprint_bytes() < before_footprint);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.slab().len(), SLAB_STRIDE);
        assert_eq!(idx.query(&ResourceConstraint::default()), vec!["large"]);
        for id in idx.lsh().stored_ids() {
            assert!(id < idx.slot_count());
        }
    }

    #[test]
    fn serialization_is_canonical_across_mutation_histories() {
        // A churned index must serialize byte-identically to a fresh
        // build of the same live set (sorted-key insertion order).
        let mut churned = ResourceIndex::new(LshConfig::default(), 3);
        churned.insert("a", profile(1.0, 0.1, 0.5));
        churned.insert("dropped", profile(7.0, 7.0, 7.0));
        churned.insert("b", profile(10.0, 1.0, 2.0));
        churned.remove("dropped");
        churned.insert("c", profile(100.0, 10.0, 10.0));

        let mut fresh = ResourceIndex::new(LshConfig::default(), 3);
        for (k, p) in [
            ("a", profile(1.0, 0.1, 0.5)),
            ("b", profile(10.0, 1.0, 2.0)),
            ("c", profile(100.0, 10.0, 10.0)),
        ] {
            fresh.insert(k, p);
        }
        assert_eq!(
            serde_json::to_string(&churned).unwrap(),
            serde_json::to_string(&fresh).unwrap(),
            "serialized form depends on mutation history"
        );
    }

    /// The spec of the range query, written against the audit view: live
    /// slots that admit, in slot order.
    fn brute_force(idx: &ResourceIndex, c: &ResourceConstraint) -> Vec<String> {
        idx.entries_audit()
            .into_iter()
            .filter(|(_, p, removed)| !removed && c.admits(p))
            .map(|(k, _, _)| k.to_string())
            .collect()
    }

    #[test]
    fn range_query_is_the_slot_order_filter_through_every_mutation() {
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
        let check = |idx: &mut ResourceIndex, stage: &str| {
            for exhaustive in [false, true] {
                idx.exhaustive = exhaustive;
                for c in &grid {
                    let want = brute_force(idx, c);
                    assert_eq!(idx.query(c), want, "{stage}, exhaustive={exhaustive}, {c:?}");
                    for pool in &pools {
                        assert_eq!(
                            idx.query_with(pool, c),
                            want,
                            "{stage}, exhaustive={exhaustive}, jobs={}, {c:?}",
                            pool.jobs()
                        );
                    }
                }
            }
        };
        let mut idx = ResourceIndex::new(LshConfig::default(), 3);
        for i in 0..200u32 {
            let x = f64::from(i * 37 % 101);
            idx.insert(format!("m{i:03}"), profile(x * 2.0, x / 10.0, 100.0 - x));
        }
        // A key held by two live slots, the second cheaper than the first.
        idx.insert("m007", profile(0.1, 0.1, 0.1));
        check(&mut idx, "built");
        assert_eq!(
            idx.query(&ResourceConstraint::default()).len(),
            201,
            "every live slot is emitted, a twice-inserted key twice"
        );
        for i in (0..200).step_by(3) {
            assert!(idx.remove(&format!("m{i:03}")));
        }
        check(&mut idx, "tombstoned");
        // Reinsertion lands in freed slots, out of key order.
        idx.insert("m000", profile(1.0, 0.2, 5.0));
        idx.insert("late", profile(30.0, 2.0, 9.0));
        assert_eq!(idx.slot_count(), 201, "reinsertion reuses freed slots");
        check(&mut idx, "reinserted");
        idx.compact();
        assert_eq!(idx.slot_count(), idx.len());
        check(&mut idx, "compacted");
    }

    #[test]
    fn footprint_grows_with_entries() {
        let empty = ResourceIndex::new(LshConfig::default(), 1);
        let idx = populated(false);
        assert!(idx.footprint_bytes() > empty.footprint_bytes());
    }
}
