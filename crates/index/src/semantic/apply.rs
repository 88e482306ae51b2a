//! `SemanticIndex::apply`, the index's one mutator, as five phases run
//! in order: check the batch, find the samples that change, analyse the
//! newly attempted pairs, patch the index, and re-derive the entries one
//! hop from a changed edge. Each phase hands the next what it found.

use super::edges::{pair_key, EdgeTable};
use super::entry::compute_entry;
use super::sample::Ranking;
use super::{EdgeMeasurement, Entry, PairAnalyzer, Resolver, SemanticIndex};
use sommelier_graph::{Fingerprint, Model};
use sommelier_parallel::ThreadPool;
use sommelier_runtime::metrics::counters::{self, CachedCounter};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Models the analyze phase asked the repository for: every pair
/// partner outside the batch whose analysis needed it loaded.
static PARTNER_LOADS: CachedCounter = CachedCounter::new("index.partner_loads");

/// Survivors per task of a batch's membership pass.
const SURVIVOR_CHUNK: usize = 1024;

/// A checked batch: its effective removals, its models with their
/// fingerprints, and every fingerprint it names with that fingerprint's
/// canonical key after the batch (`None`: no key is left), split into
/// the removed, added and renamed ones, each sorted.
struct Batch<'a> {
    remove_keys: Vec<&'a str>,
    models: &'a [Model],
    add_fps: Vec<u64>,
    touched: BTreeMap<u64, Option<String>>,
    r_fps: Vec<u64>,
    a_fps: Vec<u64>,
    key_changed: Vec<u64>,
}

/// The pairs a batch stops attempting and the ones it newly attempts,
/// each sorted.
#[derive(Default)]
struct EdgeDelta {
    drops: Vec<(u64, u64)>,
    adds: Vec<(u64, u64)>,
}

impl SemanticIndex {
    /// Apply one mutation batch — any mix of removals (by key) and
    /// insertions — with a single pairwise-analysis fan-out over `pool`.
    /// This is the index's only mutator: a build is a batch with no
    /// removals, a removal one with no insertions.
    ///
    /// Proportional to the change: allocation (one flat `Vec` of
    /// fingerprints aside), the samples drawn in full, the pairs
    /// analyzed and the entries recomputed. Proportional to the
    /// repository, measured replacing 1 of 5 000 keys: one early-exit
    /// membership test per surviving model (1.1 ms) and, while a
    /// published snapshot shares it, the copy-on-write clone of
    /// `by_key`. Since the canonical state is a pure
    /// function of the final key universe, the result is byte-identical
    /// to a from-scratch build of that universe at any job count.
    ///
    /// Panics if an inserted name is already indexed and not also in
    /// `removes` (replace = remove + add in one batch).
    pub fn apply(
        &mut self,
        pool: &ThreadPool,
        removes: &[String],
        models: &[Model],
        resolve: Resolver<'_>,
        analyzer: &dyn PairAnalyzer,
    ) {
        let Some(mut batch) = self.check_batch(removes, models) else {
            return;
        };
        let ranking = Ranking::new(self, &batch.touched);
        let delta = self.sample_delta(pool, &batch, &ranking);
        let measured = self.analyze(pool, &ranking, &batch, &delta.adds, resolve, analyzer);
        self.patch(&mut batch, &delta, measured);
        self.rederive(pool, &batch, &delta);
    }

    /// Phase 1: the effective removals, add validation and the touched
    /// fingerprints; `None` for a batch that changes nothing.
    fn check_batch<'a>(&self, removes: &'a [String], models: &'a [Model]) -> Option<Batch<'a>> {
        let mut remove_keys: Vec<&str> = removes
            .iter()
            .map(|k| k.as_str())
            .filter(|k| self.by_key.contains_key(*k))
            .collect();
        remove_keys.sort_unstable();
        remove_keys.dedup();
        if remove_keys.is_empty() && models.is_empty() {
            return None;
        }
        {
            let mut names: Vec<&str> = models.iter().map(|m| m.name.as_str()).collect();
            names.sort_unstable();
            for w in names.windows(2) {
                assert!(w[0] != w[1], "key '{}' is already indexed", w[1]);
            }
            for name in names {
                assert!(
                    !self.by_key.contains_key(name) || remove_keys.binary_search(&name).is_ok(),
                    "key '{name}' is already indexed"
                );
            }
        }
        let add_fps: Vec<u64> = models.iter().map(|m| Fingerprint::of_model(m).0).collect();
        // Only the fingerprints the batch names can change canonical
        // key, appear or disappear. Each one's key after the batch is
        // the lexicographically largest alias left (what a from-scratch
        // build's last writer leaves), found in one pass over `by_key`
        // that compares fingerprints.
        let mut touched: BTreeMap<u64, Option<String>> = remove_keys
            .iter()
            .map(|k| (self.by_key[*k].0, None))
            .collect();
        for (m, fp) in models.iter().zip(&add_fps) {
            let canon = touched.entry(*fp).or_default();
            *canon = canon.take().max(Some(m.name.clone()));
        }
        for (key, fp) in self.by_key.iter() {
            if let Some(canon) = touched.get_mut(&fp.0) {
                let left = remove_keys.binary_search(&key.as_str()).is_err();
                if left && canon.as_deref() < Some(key.as_str()) {
                    *canon = Some(key.clone());
                }
            }
        }
        let (mut r_fps, mut a_fps, mut key_changed) = (Vec::new(), Vec::new(), Vec::new());
        for (fp, key) in &touched {
            match (self.entries.get(&Fingerprint(*fp)), key) {
                (Some(_), None) => r_fps.push(*fp),
                (None, Some(_)) => a_fps.push(*fp),
                (Some(e), Some(key)) if e.key != *key => key_changed.push(*fp),
                _ => {}
            }
        }
        Some(Batch {
            remove_keys,
            models,
            add_fps,
            touched,
            r_fps,
            a_fps,
            key_changed,
        })
    }

    /// Phase 2: the samples that change (the membership pass, then the
    /// draws) and the edge delta they make.
    fn sample_delta(&self, pool: &ThreadPool, batch: &Batch, ranking: &Ranking) -> EdgeDelta {
        let (r_fps, a_fps) = (&batch.r_fps, &batch.a_fps);
        if r_fps.is_empty() && a_fps.is_empty() {
            return EdgeDelta::default();
        }
        // The one repository-sized allocation: the fingerprints, laid
        // out removed | survivors | added, so that the universe before
        // the batch is a prefix and the one after a suffix.
        let mut fps = Vec::with_capacity(self.entries.len() + a_fps.len());
        fps.extend_from_slice(r_fps);
        let kept = |fp: &u64| r_fps.binary_search(fp).is_err();
        fps.extend(self.entries.keys().map(|fp| fp.0).filter(kept));
        // In fingerprint order, not the map's: the early-exit scans
        // below then rank the same pairs in every process.
        fps[r_fps.len()..].sort_unstable();
        fps.extend_from_slice(a_fps);
        let (before, after) = (&fps[..self.entries.len()], &fps[r_fps.len()..]);
        let survivors = &before[r_fps.len()..];
        // A survivor's sample changed iff it held a removed model or
        // holds an added one. The other removed and added rank above the
        // lowest of them, so the witnesses are survivors.
        let moved = [r_fps.as_slice(), a_fps].concat();
        let tested = pool.par_chunks(survivors, SURVIVOR_CHUNK, |_, chunk| {
            let mut evals = 0;
            let hit = |x: &&u64| ranking.holds_any(**x, &moved, survivors, &mut evals);
            let hits: Vec<u64> = chunk.iter().filter(hit).copied().collect();
            (hits, evals)
        });
        let mut evals: u64 = tested.iter().map(|t| t.1).sum();
        // Only those, and the added, are drawn in full: before and
        // after, in fingerprint order.
        let mut redrawn: Vec<u64> = tested.into_iter().flat_map(|t| t.0).collect();
        redrawn.extend_from_slice(a_fps);
        redrawn.sort_unstable();
        let draws = pool.par_map(&redrawn, |&x| {
            let mut evals = 0;
            let s_old = match a_fps.binary_search(&x) {
                Ok(_) => Vec::new(),
                Err(_) => ranking.draw(x, before, &mut evals),
            };
            (s_old, ranking.draw(x, after, &mut evals), evals)
        });
        // Edge delta: every edge incident to a removed model dies; for
        // each changed sample, newly-selected partners become attempted
        // pairs and deselected partners stay attempted only if the
        // partner still samples this model.
        let mut delta = EdgeDelta::default();
        for &r in r_fps {
            delta
                .drops
                .extend(self.edges.neighbors(r).map(|n| pair_key(r, n)));
        }
        for (&x, (s_old, s_new, drawn)) in redrawn.iter().zip(&draws) {
            evals += drawn;
            for &q in s_new {
                if !s_old.contains(&q) && !self.edges.is_attempted(x, q) {
                    delta.adds.push(pair_key(x, q));
                }
            }
            for &p in s_old {
                let settled = s_new.contains(&p) || r_fps.binary_search(&p).is_ok();
                if !settled
                    && self.edges.is_attempted(x, p)
                    && !ranking.holds_any(p, &[x], after, &mut evals)
                {
                    delta.drops.push(pair_key(x, p));
                }
            }
        }
        counters::add("index.semantic.rank_evals", evals);
        delta.adds.sort_unstable();
        delta.adds.dedup();
        delta.drops.sort_unstable();
        delta.drops.dedup();
        delta
    }

    /// Phase 3: analyze the newly attempted pairs — the only expensive
    /// step — one task per pair. The analyzer gets fingerprints and
    /// loads only the models it needs: the batch's own are at hand, and
    /// any other is a partner load from the repository. An unresolvable
    /// pair is still recorded as attempted (all-`None`).
    fn analyze(
        &self,
        pool: &ThreadPool,
        ranking: &Ranking,
        batch: &Batch,
        adds: &[(u64, u64)],
        resolve: Resolver<'_>,
        analyzer: &dyn PairAnalyzer,
    ) -> Vec<EdgeMeasurement> {
        let batch_models: HashMap<u64, &Model> = batch
            .models
            .iter()
            .zip(&batch.add_fps)
            .map(|(m, fp)| (*fp, m))
            .collect();
        let segments = self.config.segments;
        let load = |fp: Fingerprint| -> Option<Cow<'_, Model>> {
            if let Some(m) = batch_models.get(&fp.0) {
                return Some(Cow::Borrowed(*m));
            }
            PARTNER_LOADS.add(1);
            resolve(ranking.key(fp.0)).map(Cow::Owned)
        };
        let measured = pool.par_map(adds, |&(lo, hi)| {
            analyzer.analyze_pair(Fingerprint(lo), Fingerprint(hi), &load, segments)
        });
        counters::add("index.models_indexed", batch.models.len() as u64);
        counters::add("index.pair_analyses", adds.len() as u64);
        measured
    }

    /// Phase 4: patch the entries' keys, `by_key` and the edge table
    /// (copy-on-write: untouched state is shared with any published
    /// snapshot clone).
    fn patch(&mut self, batch: &mut Batch, delta: &EdgeDelta, measured: Vec<EdgeMeasurement>) {
        for (fp, key) in std::mem::take(&mut batch.touched) {
            let Some(key) = key else {
                self.entries.remove(&Fingerprint(fp));
                continue;
            };
            let e = self.entries.entry(Fingerprint(fp)).or_default();
            if e.key != key {
                Arc::make_mut(e).key = key;
            }
        }
        {
            let by_key = Arc::make_mut(&mut self.by_key);
            for k in &batch.remove_keys {
                by_key.remove(*k);
            }
            for (m, fp) in batch.models.iter().zip(&batch.add_fps) {
                by_key.insert(m.name.clone(), Fingerprint(*fp));
            }
        }
        if !delta.drops.is_empty() || !delta.adds.is_empty() {
            let edges = Arc::make_mut(&mut self.edges);
            for pk in &delta.drops {
                edges.remove(pk);
            }
            for (pk, m) in delta.adds.iter().zip(measured) {
                edges.insert(*pk, m);
            }
        }
    }

    /// Phase 5: recompute the affected entries — the endpoints of every
    /// changed edge and their neighbours, the added, and the 2-hop
    /// neighbourhood of every renamed model: a candidate list depends
    /// only on the 1-hop edge neighbourhood plus 2-hop keys. A neighbour
    /// an endpoint gained or lost is itself an endpoint, so its
    /// neighbours after the patch reach the same entries as before it.
    /// Their number is added to `index.semantic.entries_rederived`.
    fn rederive(&mut self, pool: &ThreadPool, batch: &Batch, delta: &EdgeDelta) {
        let mut affected: HashSet<u64> = batch.a_fps.iter().copied().collect();
        for &(u, v) in delta.drops.iter().chain(&delta.adds) {
            for e in [u, v] {
                affected.insert(e);
                affected.extend(self.edges.neighbors(e));
            }
        }
        for &f in &batch.key_changed {
            affected.insert(f);
            for y in self.edges.neighbors(f) {
                affected.insert(y);
                affected.extend(self.edges.neighbors(y));
            }
        }
        let mut targets: Vec<u64> = affected
            .into_iter()
            .filter(|fp| self.entries.contains_key(&Fingerprint(*fp)))
            .collect();
        targets.sort_unstable();
        counters::add("index.semantic.entries_rederived", targets.len() as u64);
        if !targets.is_empty() {
            let computed: Vec<Entry> = {
                let entries = &self.entries;
                let edges: &EdgeTable = &self.edges;
                let config = self.config;
                pool.par_map(&targets, |&fp| compute_entry(config, entries, edges, fp))
            };
            for (fp, e) in targets.iter().zip(computed) {
                self.entries.insert(Fingerprint(*fp), Arc::new(e));
            }
        }
    }
}
