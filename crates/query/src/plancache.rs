//! The epoch-keyed plan/result cache of the snapshot query path.
//!
//! A query against a *published engine snapshot* is a pure function of
//! `(normalized query text, snapshot epoch)`: the snapshot is immutable,
//! planning is deterministic, and execution orders with `total_cmp` — so
//! the final result set can be memoized outright. A hit skips parsing and
//! planning too, so the plan itself is not kept: nothing would read it.
//! Entries are keyed by the epoch, which makes invalidation free: a
//! registration publishes a new snapshot with a bumped epoch, new queries
//! probe under the new key, and stale entries age out of the LRU without
//! any explicit flush (the paper's Section 5.5 observation that indices
//! are cheap to keep around applies to result sets a fortiori).
//!
//! Queries carrying an `EXEC` clause are *never* cached: they re-profile
//! models live from the repository, which sits outside the snapshot and
//! may change without an epoch bump.
//!
//! The structure mirrors the pairwise-analysis cache: lock-striped
//! shards, per-shard LRU clock, `capacity == 0` disables caching
//! entirely, and hit/miss counters publish to the process-wide metrics
//! registry on demand (`plan_cache.*`).

use crate::engine::QueryResult;
use sommelier_runtime::metrics::counters;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const SHARDS: usize = 16;

/// Collapse insignificant whitespace so textual variants of the same
/// query share a cache entry ("SELECT  model …" ≡ "SELECT model …").
/// The query language has no whitespace-significant tokens.
pub fn normalize_query(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for word in text.split_whitespace() {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(word);
    }
    out
}

struct Entry {
    epoch: u64,
    text: String,
    results: Vec<QueryResult>,
    stamp: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u64, Entry>,
    clock: u64,
}

/// Counter snapshot of a [`PlanCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that fell through to plan + execute.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: u64,
}

/// A sharded, epoch-keyed LRU over result sets.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    per_shard: usize,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` entries; `0` disables caching
    /// (every probe misses silently, nothing is stored or counted).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard: capacity.div_ceil(SHARDS).max(1),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Whether caching is disabled (`capacity == 0`).
    pub fn is_disabled(&self) -> bool {
        self.capacity == 0
    }

    fn key_of(epoch: u64, text: &str) -> u64 {
        // DefaultHasher with `new()` uses fixed keys, so the mapping is
        // deterministic across processes and job counts.
        let mut h = DefaultHasher::new();
        epoch.hash(&mut h);
        text.hash(&mut h);
        h.finish()
    }

    fn shard_of(&self, key: u64) -> &Mutex<Shard> {
        &self.shards[(key % SHARDS as u64) as usize]
    }

    /// Look up the result set cached for `(epoch, text)`. `text` must
    /// already be normalized.
    pub fn get(&self, epoch: u64, text: &str) -> Option<Vec<QueryResult>> {
        if self.is_disabled() {
            return None;
        }
        let key = Self::key_of(epoch, text);
        let mut shard = self.shard_of(key).lock().unwrap_or_else(|e| e.into_inner());
        shard.clock += 1;
        let stamp = shard.clock;
        match shard.map.get_mut(&key) {
            // The epoch/text check guards against hash collisions; the
            // epoch is also hashed, so stale-epoch entries are simply
            // unreachable and age out via LRU.
            Some(e) if e.epoch == epoch && e.text == text => {
                e.stamp = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.results.clone())
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store the results computed for `(epoch, text)`.
    pub fn insert(&self, epoch: u64, text: &str, results: Vec<QueryResult>) {
        if self.is_disabled() {
            return;
        }
        let key = Self::key_of(epoch, text);
        let mut shard = self.shard_of(key).lock().unwrap_or_else(|e| e.into_inner());
        shard.clock += 1;
        let stamp = shard.clock;
        if shard.map.len() >= self.per_shard && !shard.map.contains_key(&key) {
            // Evict the least recently touched entry of this shard.
            if let Some(victim) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
            {
                shard.map.remove(&victim);
            }
        }
        shard.map.insert(
            key,
            Entry {
                epoch,
                text: text.to_string(),
                results,
                stamp,
            },
        );
    }

    /// Hit/miss/entry counters.
    pub fn stats(&self) -> PlanCacheStats {
        let entries = self
            .shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len() as u64)
            .sum();
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
        }
    }

    /// Publish the counters to the metrics registry (`plan_cache.*`).
    pub fn publish_metrics(&self) {
        let stats = self.stats();
        counters::set("plan_cache.hits", stats.hits);
        counters::set("plan_cache.misses", stats.misses);
        counters::set("plan_cache.entries", stats.entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_index::CandidateKind;
    use sommelier_runtime::ResourceProfile;

    /// `n` results, told apart by their count.
    fn results(n: usize) -> Vec<QueryResult> {
        (0..n)
            .map(|i| QueryResult {
                key: format!("m{i}"),
                score: 1.0,
                diff_bound: 0.0,
                profile: ResourceProfile {
                    memory_mb: 1.0,
                    gflops: 1.0,
                    latency_ms: 1.0,
                },
                kind: CandidateKind::Whole,
            })
            .collect()
    }

    #[test]
    fn normalization_collapses_whitespace_only() {
        assert_eq!(
            normalize_query("  SELECT   model\tCORR x\n WITHIN 0.5 "),
            "SELECT model CORR x WITHIN 0.5"
        );
        assert_eq!(normalize_query("SELECT model"), "SELECT model");
        assert_eq!(normalize_query(" \t\n"), "");
    }

    #[test]
    fn hit_returns_stored_results() {
        let cache = PlanCache::new(64);
        assert!(cache.get(1, "q").is_none());
        cache.insert(1, "q", results(3));
        assert_eq!(cache.get(1, "q").expect("hit after insert"), results(3));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn epochs_partition_the_key_space() {
        let cache = PlanCache::new(64);
        cache.insert(1, "q", results(1));
        assert!(cache.get(2, "q").is_none(), "new epoch must miss");
        cache.insert(2, "q", results(2));
        assert_eq!(cache.get(1, "q").unwrap().len(), 1);
        assert_eq!(cache.get(2, "q").unwrap().len(), 2);
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let cache = PlanCache::new(0);
        cache.insert(1, "q", results(1));
        assert!(cache.get(1, "q").is_none());
        assert_eq!(cache.stats(), PlanCacheStats::default());
    }

    #[test]
    fn eviction_keeps_recently_used_entries() {
        // One entry per shard: any insert beyond capacity evicts the
        // stalest entry of its shard.
        let cache = PlanCache::new(SHARDS);
        for i in 0..(SHARDS as u64 * 4) {
            cache.insert(1, &format!("q{i}"), results(1));
        }
        let stats = cache.stats();
        assert!(stats.entries <= SHARDS as u64, "capacity respected");
        assert!(stats.entries > 0);
    }

    /// Regression test for republish churn: epochs key the cache, so a
    /// long-lived process (the serving daemon) that survives thousands
    /// of snapshot publications must not let dead-epoch entries pile
    /// up. Stale entries become unreachable the moment the epoch
    /// bumps; the LRU must then actually evict them instead of letting
    /// the map grow by one generation per epoch.
    #[test]
    fn stale_epoch_entries_are_evicted_under_republish_churn() {
        let capacity = 32;
        let cache = PlanCache::new(capacity);
        let queries: Vec<String> = (0..8).map(|i| format!("q{i}")).collect();
        // 500 epochs × 8 queries: ~4000 insertions through a
        // 32-entry cache. Unbounded growth across epochs would leave
        // thousands of entries resident.
        for epoch in 0..500u64 {
            for q in &queries {
                assert!(
                    cache.get(epoch, q).is_none(),
                    "entry from a dead epoch must not answer epoch {epoch}"
                );
                cache.insert(epoch, q, results(1));
            }
        }
        let stats = cache.stats();
        // Shard capacity rounds up (`div_ceil`), so the hard bound is
        // per_shard × SHARDS, not the nominal capacity.
        let hard_bound = (capacity as u64).div_ceil(SHARDS as u64) * SHARDS as u64;
        assert!(
            stats.entries <= hard_bound,
            "{} entries resident after 500 epochs (bound {hard_bound}): \
             stale epochs are not being evicted",
            stats.entries
        );
        assert_eq!(stats.hits, 0, "every probe crossed an epoch boundary");
        // Current-epoch entries still serve hits after all that churn.
        cache.insert(500, "fresh", results(7));
        assert_eq!(cache.get(500, "fresh").unwrap().len(), 7);
    }
}
