//! The epoch-keyed plan/result cache of the snapshot query path.
//!
//! A query against a *published engine snapshot* is a pure function of
//! `(normalized query text, snapshot epoch)`: the snapshot is immutable,
//! planning is deterministic, and execution orders with `total_cmp` — so
//! the final result set can be memoized outright. A hit skips parsing and
//! planning too, so the plan itself is not kept: nothing would read it.
//! Each shard answers one epoch, which makes invalidation free: a
//! registration publishes a new snapshot with a bumped epoch, and the
//! first insert at that epoch clears the shard it lands in, so a dead
//! epoch's sets are freed as the new epoch's queries arrive, with no
//! flush at the publish. A reader still pinning an older snapshot
//! misses and stores nothing.
//!
//! The memo is a [`ResultSet`]: the miss that computes it hands the same
//! allocation to the cache and to its caller, the entry keeps the
//! normalized text the miss already owned, and a hit hands out the
//! stored set and copies nothing.
//!
//! Queries carrying an `EXEC` clause are *never* cached: they re-profile
//! models live from the repository, which sits outside the snapshot and
//! may change without an epoch bump.
//!
//! The cache is lock-striped shards with a per-shard LRU clock;
//! `capacity == 0` disables caching entirely, and hit/miss counters
//! publish to the process-wide metrics registry on demand
//! (`plan_cache.*`).

use crate::engine::QueryResult;
use sommelier_runtime::metrics::counters;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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

/// One query's answer, shared and immutable: the plan cache stores it
/// and every caller it answers holds the same allocation, so cloning a
/// set copies no result. Derefs to the results in order.
///
/// The one thing a set gains after it is built is its text: the reply
/// writer renders it through [`ResultSet::write_text`], which keeps what
/// the set's second render wrote and hands out those bytes from then on.
/// The text lives and dies with the set, so a cached entry carries it
/// until the entry is evicted or its epoch dies.
#[derive(Clone)]
pub struct ResultSet(Arc<Shared>);

struct Shared {
    results: Vec<QueryResult>,
    /// Whether the set was rendered once already.
    rendered: AtomicBool,
    text: OnceLock<Box<str>>,
}

impl ResultSet {
    /// A set holding `results`, with no text yet.
    pub fn new(results: Vec<QueryResult>) -> Self {
        ResultSet(Arc::new(Shared {
            results,
            rendered: AtomicBool::new(false),
            text: OnceLock::new(),
        }))
    }

    /// Whether `a` and `b` are the same shared set, not just equal ones.
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// The results, moved out when no one else holds the set and
    /// copied otherwise.
    pub fn into_vec(self) -> Vec<QueryResult> {
        Arc::try_unwrap(self.0).map_or_else(|shared| shared.results.clone(), |s| s.results)
    }

    /// The text [`ResultSet::write_text`] kept, if it kept one yet.
    pub fn text(&self) -> Option<&str> {
        self.0.text.get().map(|text| &**text)
    }

    /// Append the set's text to `out`: the kept text if there is one,
    /// else what `render` appends from the results. The text of the
    /// set's second render is kept, exact size, so a set answered again
    /// and again is formatted twice, and a set answered once (a miss no
    /// later probe hits) keeps nothing. A render that fails keeps
    /// nothing and counts for nothing. Every render of a set must write
    /// the same text: the daemon's reply writer is the one caller.
    pub fn write_text<E>(
        &self,
        out: &mut String,
        render: impl FnOnce(&mut String, &[QueryResult]) -> Result<(), E>,
    ) -> Result<(), E> {
        if let Some(text) = self.text() {
            out.push_str(text);
            return Ok(());
        }
        let start = out.len();
        render(out, &self.0.results)?;
        // `Relaxed`: the flag publishes no data; the text is published
        // by the `OnceLock`. A concurrent second render may set the text
        // first, and both wrote the same bytes.
        if self.0.rendered.swap(true, Ordering::Relaxed) {
            let _ = self.0.text.set(out[start..].into());
        }
        Ok(())
    }
}

impl Deref for ResultSet {
    type Target = [QueryResult];

    fn deref(&self) -> &[QueryResult] {
        &self.0.results
    }
}

/// Sets compare by their results, wherever they live.
impl PartialEq for ResultSet {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for ResultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

struct Entry {
    text: String,
    results: ResultSet,
    stamp: u64,
}

#[derive(Default)]
struct Shard {
    /// The one epoch this shard's entries answer.
    epoch: u64,
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

/// A sharded LRU over shared result sets, each shard at one epoch.
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

    fn key_of(text: &str) -> u64 {
        // DefaultHasher with `new()` uses fixed keys, so the mapping is
        // deterministic across processes and job counts.
        let mut h = DefaultHasher::new();
        text.hash(&mut h);
        h.finish()
    }

    fn shard_of(&self, key: u64) -> &Mutex<Shard> {
        &self.shards[(key % SHARDS as u64) as usize]
    }

    /// Look up the result set cached for `(epoch, text)`. `text` must
    /// already be normalized. A hit hands out the stored set itself; a
    /// shard at another epoch misses.
    pub fn get(&self, epoch: u64, text: &str) -> Option<ResultSet> {
        if self.is_disabled() {
            return None;
        }
        let key = Self::key_of(text);
        let mut shard = self.shard_of(key).lock().unwrap_or_else(|e| e.into_inner());
        shard.clock += 1;
        let stamp = shard.clock;
        let live = shard.epoch == epoch;
        match shard.map.get_mut(&key) {
            // The text check guards against hash collisions.
            Some(e) if live && e.text == text => {
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

    /// Store the set computed for `(epoch, text)`; the entry keeps
    /// `text` itself to tell colliding keys apart. An insert at a newer
    /// epoch than its shard's first drops every entry there, and one at
    /// an older epoch stores nothing.
    pub fn insert(&self, epoch: u64, text: String, results: ResultSet) {
        if self.is_disabled() {
            return;
        }
        let key = Self::key_of(&text);
        let mut shard = self.shard_of(key).lock().unwrap_or_else(|e| e.into_inner());
        if epoch < shard.epoch {
            return;
        }
        if epoch > shard.epoch {
            shard.map.clear();
            shard.epoch = epoch;
        }
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
                text,
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

    /// A set of `n` results, told apart by their count.
    fn results(n: usize) -> ResultSet {
        ResultSet::new(results_vec(n))
    }

    fn results_vec(n: usize) -> Vec<QueryResult> {
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
        cache.insert(1, "q".into(), results(3));
        assert_eq!(cache.get(1, "q").expect("hit after insert"), results(3));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn a_hit_hands_out_the_set_its_miss_inserted() {
        let cache = PlanCache::new(64);
        let inserted = results(3);
        cache.insert(1, "q".into(), inserted.clone());
        let first = cache.get(1, "q").expect("hit after insert");
        let second = cache.get(1, "q").expect("hit again");
        assert!(ResultSet::ptr_eq(&first, &inserted), "a hit copied the set");
        assert!(ResultSet::ptr_eq(&second, &inserted));
        // Equal results in another allocation are equal, not the same.
        assert_eq!(first, results(3));
        assert!(!ResultSet::ptr_eq(&first, &results(3)));
    }

    #[test]
    fn a_set_keeps_its_text_from_its_second_render_on() {
        let set = results(2);
        let renders = std::cell::Cell::new(0);
        let render = |out: &mut String, r: &[QueryResult]| -> Result<(), ()> {
            renders.set(renders.get() + 1);
            out.push_str(&format!("[{}]", r.len()));
            Ok(())
        };
        let mut out = String::from("a");
        set.write_text(&mut out, render).unwrap();
        assert_eq!((out.as_str(), set.text(), renders.get()), ("a[2]", None, 1));
        set.write_text(&mut out, render).unwrap();
        assert_eq!(
            (out.as_str(), set.text(), renders.get()),
            ("a[2][2]", Some("[2]"), 2)
        );
        set.write_text(&mut out, render).unwrap();
        assert_eq!(
            (out.as_str(), renders.get()),
            ("a[2][2][2]", 2),
            "a kept text was rendered"
        );
        assert_eq!(set.text().map(str::len), Some(3));
    }

    #[test]
    fn a_failed_render_keeps_nothing() {
        let set = results(1);
        for _ in 0..3 {
            let mut out = String::new();
            assert!(set.write_text(&mut out, |_, _| Err(())).is_err());
            assert_eq!(set.text(), None);
        }
        // Failures do not count: the next good render is still a first.
        let good = |out: &mut String, _: &[QueryResult]| -> Result<(), ()> {
            out.push('x');
            Ok(())
        };
        set.write_text(&mut String::new(), good).unwrap();
        assert_eq!(set.text(), None);
        set.write_text(&mut String::new(), good).unwrap();
        assert_eq!(set.text(), Some("x"));
    }

    #[test]
    fn into_vec_moves_a_lone_set_and_copies_a_shared_one() {
        assert_eq!(results(2).into_vec(), results_vec(2));
        let shared = results(2);
        let held = shared.clone();
        assert_eq!(shared.into_vec(), results_vec(2));
        assert_eq!(held.len(), 2);
    }

    #[test]
    fn epochs_partition_the_key_space() {
        let cache = PlanCache::new(64);
        cache.insert(1, "q".into(), results(1));
        assert!(cache.get(2, "q").is_none(), "new epoch must miss");
        cache.insert(2, "q".into(), results(2));
        assert!(cache.get(1, "q").is_none(), "a dead epoch must miss");
        assert_eq!(cache.get(2, "q").unwrap().len(), 2);
        // A reader still pinning epoch 1 stores nothing over epoch 2.
        cache.insert(1, "q".into(), results(1));
        assert!(cache.get(1, "q").is_none());
        assert_eq!(cache.get(2, "q").unwrap().len(), 2);
    }

    #[test]
    fn a_publish_frees_the_dead_epochs_entries() {
        let cache = PlanCache::new(512);
        let texts: Vec<String> = (0..64).map(|i| format!("q{i}")).collect();
        for text in &texts {
            cache.insert(1, text.clone(), results(1));
        }
        assert_eq!(cache.stats().entries, 64);
        // The new epoch's traffic asks the same texts: each lands in
        // the shard its old entry sat in.
        for text in &texts {
            cache.insert(2, text.clone(), results(1));
        }
        assert_eq!(cache.stats().entries, 64, "dead-epoch entries stayed");
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let cache = PlanCache::new(0);
        cache.insert(1, "q".into(), results(1));
        assert!(cache.get(1, "q").is_none());
        assert_eq!(cache.stats(), PlanCacheStats::default());
    }

    #[test]
    fn eviction_keeps_recently_used_entries() {
        // One entry per shard: any insert beyond capacity evicts the
        // stalest entry of its shard.
        let cache = PlanCache::new(SHARDS);
        for i in 0..(SHARDS as u64 * 4) {
            cache.insert(1, format!("q{i}"), results(1));
        }
        let stats = cache.stats();
        assert!(stats.entries <= SHARDS as u64, "capacity respected");
        assert!(stats.entries > 0);
    }

    /// Regression test for republish churn: a long-lived process (the
    /// serving daemon) that survives thousands of snapshot publications
    /// must not let dead-epoch entries pile up. Stale entries become
    /// unreachable the moment the epoch bumps, and must then actually
    /// go instead of the map growing by one generation per epoch.
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
                cache.insert(epoch, q.clone(), results(1));
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
        cache.insert(500, "fresh".into(), results(7));
        assert_eq!(cache.get(500, "fresh").unwrap().len(), 7);
    }
}
