//! The semantic index (paper Section 5.2).
//!
//! "The top-level structure of the index is a hashtable. For each entry …
//! the key is the hash fingerprint of a DNN, and the value is a list of
//! candidate records, each of which consists of a candidate DNN and its
//! functional equivalence score …, maintained in a descending order."
//!
//! Insertion analyzes the new model against only a small rendezvous-drawn
//! sample of stored models (default 5) and derives relations to everything
//! else transitively: if `X↔Y` differ by `A` and `Y↔Z` by `B`, then `X↔Z`
//! lies in `[|A−B|, A+B]`; the conservative upper end `A+B` is recorded.
//! The sample size is a knob ([`SemanticIndexConfig::sample_size`]); the
//! full-pairwise ablation sets it to `usize::MAX`.
//!
//! The analyzer itself is pluggable through [`PairAnalyzer`] so the index
//! structure stays independent of how equivalence is measured; the default
//! production analyzer (wired to `sommelier-equiv`) lives in
//! `sommelier-query::engine`.
//!
//! # Canonical state and incremental maintenance
//!
//! The index is a *pure function of its key universe*. The primary state
//! is an **edge table**: for every *attempted* pair — `Z` is in `X`'s
//! rendezvous sample or vice versa — the table stores both directed
//! whole-model diffs and both segment-surgery diffs (each possibly `None`
//! when the analyzer found the pair incomparable). Candidate lists are
//! *derived* from the edge table per entry:
//!
//! * a `Whole` record per measured neighbor direction,
//! * a `Synthesized` record per measured segment direction,
//! * a `Transitive` record for every two-hop target whose own pair was
//!   never attempted, carrying the tightest `d(X,Y) + d(Y,Z)` over
//!   measured legs (ties broken on the intermediary key),
//!
//! sorted by `(score desc, diff asc, kind, key)` and truncated to
//! [`SemanticIndexConfig::max_candidates`].
//!
//! Because rendezvous sampling makes each model's partner set a pure
//! function of the fingerprint universe, a mutation batch
//! ([`SemanticIndex::apply`]) can compute exactly which samples
//! change — no sample is stored; one stateless membership test per
//! surviving model finds them — patch the edge table by the delta
//! (analyzing only newly-attempted pairs, in parallel over the pool), and
//! recompute only the entries within one edge hop of a changed edge. A
//! from-scratch build is the same code path with an empty remove set, so
//! an incrementally-maintained index is byte-identical to a rebuild of
//! the same final key set by construction.
//!
//! Entries are individually reference-counted (`Arc`); the bookkeeping
//! tables are copy-on-write per whole table, so cloning the index for
//! snapshot publication shares them and the next mutation copies them.
//!
//! # Which file decides what
//!
//! * `edges.rs` — the edge representation: the table, its rows, and the
//!   load check that refuses a row naming no entry.
//! * `sample.rs` — the rank: who samples whom, and the membership test.
//! * `entry.rs` — the candidate order and the derivation of one list.
//! * `apply.rs` — the phases of a batch, in order: check it, find the
//!   samples that change, analyse the newly attempted pairs, patch the
//!   index, re-derive the entries one hop from a changed edge.
//! * this file — the types, the serde and the read methods.

use serde::{Deserialize, Serialize};
use sommelier_graph::{Fingerprint, Model};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

mod apply;
mod edges;
mod entry;
mod sample;

pub(crate) use edges::EdgeRow;
use edges::EdgeTable;

/// How a candidate relates to the keyed model.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum CandidateKind {
    /// A stored model, holistically equivalent (paper Section 5.2 case i).
    Whole,
    /// A stored model whose relation was derived transitively through a
    /// sampled intermediary rather than measured directly.
    Transitive { via: String },
    /// A synthesized model: the keyed model with one of its segments
    /// replaced by `donor`'s counterpart (case ii).
    Synthesized { donor: String },
}

/// One entry of a candidate list.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CandidateRecord {
    /// Candidate model key (repository name).
    pub key: String,
    /// Dataset-independent QoR difference bound to the keyed model.
    pub diff_bound: f64,
    /// Functional equivalence score: `max(0, 1 − diff_bound)`.
    pub score: f64,
    /// Provenance of the relation.
    pub kind: CandidateKind,
}

impl CandidateRecord {
    fn new(key: String, diff_bound: f64, kind: CandidateKind) -> Self {
        CandidateRecord {
            key,
            diff_bound,
            score: (1.0 - diff_bound).max(0.0),
            kind,
        }
    }
}

/// Pluggable pairwise analysis. Returns `None` when the pair is
/// incomparable (failed I/O check).
///
/// The index calls [`PairAnalyzer::analyze_pair`], once per attempted
/// pair; the directed methods are what its default runs.
///
/// Analyses run concurrently during index construction, so implementors
/// take `&self` and must be [`Sync`]; any internal caching belongs behind
/// interior mutability. Determinism contract: the result for a pair must
/// be a pure function of the two models (plus the analyzer's fixed
/// configuration), never of call order — analyzers that need randomness
/// should derive per-pair seeds from the model fingerprints. The index
/// takes a fingerprint to name one model (aliases share an entry), so an
/// analyzer may keep per-model state keyed by fingerprint.
pub trait PairAnalyzer: Sync {
    /// Dataset-independent QoR difference bound of `candidate` w.r.t.
    /// `reference` (whole-model analysis, Section 4.1).
    fn whole_diff(&self, reference: &Model, candidate: &Model) -> Option<f64>;

    /// Segment-replacement analysis (Section 4.2): the QoR difference of
    /// `host` with its best replaceable segments taken from `donor`, if
    /// any segments match.
    fn segment_diff(&self, host: &Model, donor: &Model) -> Option<f64> {
        let _ = (host, donor);
        None
    }

    /// Everything the index records of one attempted pair `(a, b)`.
    /// `load` resolves a fingerprint to its model, or `None` when it
    /// cannot; for a model outside the batch each call is a repository
    /// read (`index.partner_loads`). The segment directions are measured
    /// only when `segments` is set. The default loads both models and
    /// runs the four directed analyses. An analyzer that keeps per-model
    /// state by fingerprint can skip loading a model it has already
    /// seen.
    fn analyze_pair<'m>(
        &self,
        a: Fingerprint,
        b: Fingerprint,
        load: &dyn Fn(Fingerprint) -> Option<Cow<'m, Model>>,
        segments: bool,
    ) -> EdgeMeasurement {
        match (load(a), load(b)) {
            (Some(a), Some(b)) => EdgeMeasurement {
                fwd: self.whole_diff(&a, &b),
                rev: self.whole_diff(&b, &a),
                seg_fwd: segments.then(|| self.segment_diff(&a, &b)).flatten(),
                seg_rev: segments.then(|| self.segment_diff(&b, &a)).flatten(),
            },
            _ => EdgeMeasurement::default(),
        }
    }
}

/// A key-resolving closure handed to insertion. `Sync` because resolution
/// happens from analysis workers.
pub type Resolver<'a> = &'a (dyn Fn(&str) -> Option<Model> + Sync);

/// Configuration knobs of the semantic index.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SemanticIndexConfig {
    /// Number of stored models sampled for direct pairwise analysis on
    /// each insertion (paper default: 5).
    pub sample_size: usize,
    /// Whether to run the segment analysis and record synthesized
    /// candidates.
    pub segments: bool,
    /// Maximum candidate records kept per entry. Bounding the lists keeps
    /// the index memory at `O(models × max_candidates)` — the paper's
    /// Table 4 footprints (≈0.7 KB per model at 100K models) imply the
    /// same discipline — and caps per-insert transitive work.
    pub max_candidates: usize,
}

impl Default for SemanticIndexConfig {
    fn default() -> Self {
        SemanticIndexConfig {
            sample_size: 5,
            segments: true,
            max_candidates: 64,
        }
    }
}

#[derive(Clone, Debug, Default, Serialize, Deserialize)]
struct Entry {
    key: String,
    /// Candidate records in descending score order.
    candidates: Vec<CandidateRecord>,
}

/// Both directed whole-model diffs and both segment-surgery diffs of one
/// attempted pair `(a, b)`: `fwd` is `a → b` (reference `a`), `seg_fwd`
/// is host `a` / donor `b`. The edge table keys it by `(lo, hi)`
/// fingerprints, `a` being `lo`. An all-`None` measurement still marks the
/// pair *attempted*, which blocks transitive derivation through it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EdgeMeasurement {
    pub fwd: Option<f64>,
    pub rev: Option<f64>,
    pub seg_fwd: Option<f64>,
    pub seg_rev: Option<f64>,
}

/// The semantic index.
#[derive(Clone, Debug)]
pub struct SemanticIndex {
    config: SemanticIndexConfig,
    /// Fingerprint → entry. Entries are individually `Arc`ed so a clone
    /// of the index (snapshot publication) shares every untouched entry.
    entries: HashMap<Fingerprint, Arc<Entry>>,
    /// Key → fingerprint (reverse lookup for by-name references).
    by_key: Arc<HashMap<String, Fingerprint>>,
    /// Base seed for rendezvous partner selection. Despite the
    /// historical name (kept for snapshot compatibility) this never
    /// advances: partners are ranked by
    /// `mix64(seed_state, fp_self, fp_other)`, a pure function of the
    /// index seed and the two models' content, so the sample drawn for a
    /// model cannot depend on how many draws preceded it.
    seed_state: u64,
    /// Measurements of every attempted pair (see [`EdgeTable`]).
    edges: Arc<EdgeTable>,
}

// The edge table serializes as a sorted row list appended after the
// other fields, and is refused on input unless its rows are in that
// order and between entries (`EdgeTable::from_rows`); `order`, the
// sorted keys, is emitted for layout continuity and ignored on input,
// and the per-entry `Arc`s are invisible to the wire format.
impl Serialize for SemanticIndex {
    fn to_value(&self) -> serde::Value {
        let entries: HashMap<Fingerprint, &Entry> =
            self.entries.iter().map(|(fp, e)| (*fp, &**e)).collect();
        serde::Value::Map(vec![
            ("config".to_string(), self.config.to_value()),
            ("entries".to_string(), entries.to_value()),
            ("by_key".to_string(), (*self.by_key).to_value()),
            ("order".to_string(), self.keys().to_value()),
            ("seed_state".to_string(), self.seed_state.to_value()),
            ("edges".to_string(), self.edge_rows().to_value()),
        ])
    }
}

impl Deserialize for SemanticIndex {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let _ = serde::expect_map(v)?;
        let config: SemanticIndexConfig = serde::field(v, "config")?;
        let entries: HashMap<Fingerprint, Entry> = serde::field(v, "entries")?;
        let by_key: HashMap<String, Fingerprint> = serde::field(v, "by_key")?;
        let seed_state: u64 = serde::field(v, "seed_state")?;
        let rows: Vec<EdgeRow> = serde::field(v, "edges")?;
        let entries: HashMap<Fingerprint, Arc<Entry>> = entries
            .into_iter()
            .map(|(fp, e)| (fp, Arc::new(e)))
            .collect();
        let is_entry = |fp| entries.contains_key(&Fingerprint(fp));
        let edges = EdgeTable::from_rows(rows, is_entry).map_err(serde::DeError)?;
        Ok(SemanticIndex {
            config,
            entries,
            by_key: Arc::new(by_key),
            seed_state,
            edges: Arc::new(edges),
        })
    }
}

impl SemanticIndex {
    /// Create an empty index.
    pub fn new(config: SemanticIndexConfig, seed: u64) -> Self {
        SemanticIndex {
            config,
            entries: HashMap::new(),
            by_key: Arc::new(HashMap::new()),
            seed_state: seed,
            edges: Arc::new(EdgeTable::default()),
        }
    }

    /// Reassemble an index from decoded parts (the binary-snapshot
    /// loader and synthetic-index builders). `entries` carries one
    /// `(fingerprint, key, candidates)` triple per model; the reverse
    /// lookup table is re-derived from it. `order` is accepted for
    /// call-site compatibility and ignored: the sorted keys are derived.
    ///
    /// The index has no edges, so every non-empty candidate list given
    /// here fails [`SemanticIndex::underived_entries`] (lint's `SOM021`).
    /// It stays public for indices that are queried but never linted:
    /// the benchmark's serving fixture, the read-path differential test
    /// and Table 3's binary.
    pub fn from_parts(
        config: SemanticIndexConfig,
        seed: u64,
        entries: Vec<(Fingerprint, String, Vec<CandidateRecord>)>,
        order: Vec<String>,
    ) -> Self {
        let _ = order;
        let mut map = HashMap::with_capacity(entries.len());
        let mut by_key = HashMap::with_capacity(entries.len());
        for (fp, key, candidates) in entries {
            by_key.insert(key.clone(), fp);
            map.insert(fp, Arc::new(Entry { key, candidates }));
        }
        SemanticIndex {
            config,
            entries: map,
            by_key: Arc::new(by_key),
            seed_state: seed,
            edges: Arc::default(),
        }
    }

    /// [`SemanticIndex::from_parts`] plus the decoded edge table (the
    /// binary-snapshot loader); refused unless the rows are in
    /// [`SemanticIndex::edge_rows`]' order and between entries.
    pub(crate) fn from_parts_with_edges(
        config: SemanticIndexConfig,
        seed: u64,
        entries: Vec<(Fingerprint, String, Vec<CandidateRecord>)>,
        rows: Vec<EdgeRow>,
    ) -> Result<Self, String> {
        let mut index = Self::from_parts(config, seed, entries, Vec::new());
        let is_entry = |fp| index.entries.contains_key(&Fingerprint(fp));
        index.edges = Arc::new(EdgeTable::from_rows(rows, is_entry)?);
        Ok(index)
    }

    /// The serialized edge table: one row per attempted pair, sorted by
    /// `(lo, hi)` fingerprint.
    pub(crate) fn edge_rows(&self) -> Vec<EdgeRow> {
        self.edges.rows()
    }

    /// The configuration knobs this index was built with.
    pub fn config(&self) -> SemanticIndexConfig {
        self.config
    }

    /// The rendezvous base seed (see the `seed_state` field docs).
    pub fn seed(&self) -> u64 {
        self.seed_state
    }

    /// Number of indexed models.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Fingerprint registered for a key, if present.
    pub fn fingerprint_of(&self, key: &str) -> Option<Fingerprint> {
        self.by_key.get(key).copied()
    }

    /// `key`'s fingerprint when `key` is the one its entry is indexed
    /// under (the largest alias, which a partner load reads); `None` for
    /// another alias or an absent key.
    pub fn canonical_fingerprint(&self, key: &str) -> Option<Fingerprint> {
        let fp = self.fingerprint_of(key)?;
        (self.entries.get(&fp)?.key == key).then_some(fp)
    }

    /// Whether a key is indexed.
    pub fn contains(&self, key: &str) -> bool {
        self.by_key.contains_key(key)
    }

    /// Whether any key is indexed under `fp`.
    pub fn contains_fingerprint(&self, fp: Fingerprint) -> bool {
        self.entries.contains_key(&fp)
    }

    /// Every indexed key in hash order: for a check that reports only
    /// the smallest offender, so the order never escapes.
    pub(crate) fn keys_unordered(&self) -> impl Iterator<Item = &str> {
        self.by_key.keys().map(String::as_str)
    }

    /// All indexed keys, sorted (one sort per call: the callers are
    /// persistence, cold open and audits, never a mutation or a query).
    pub fn keys(&self) -> Vec<&str> {
        let mut keys: Vec<&str> = self.by_key.keys().map(String::as_str).collect();
        keys.sort_unstable();
        keys
    }

    /// Lookup: all candidates of the keyed model whose equivalence score
    /// meets `min_score`, best first (paper Section 5.2, "collect as the
    /// output all the models whose equivalence level exceeds the
    /// threshold").
    pub fn lookup(&self, reference: Fingerprint, min_score: f64) -> Vec<&CandidateRecord> {
        match self.entries.get(&reference) {
            Some(entry) => {
                // Counted first, so the list is allocated once at its size.
                let above = entry.candidates.iter().take_while(|c| c.score >= min_score).count();
                entry.candidates[..above].iter().collect()
            }
            None => Vec::new(),
        }
    }

    /// Lookup by key instead of fingerprint.
    pub fn lookup_key(&self, key: &str, min_score: f64) -> Vec<&CandidateRecord> {
        match self.by_key.get(key) {
            Some(fp) => self.lookup(*fp, min_score),
            None => Vec::new(),
        }
    }

    /// The full candidate list of a key (no threshold).
    pub fn candidates_of(&self, key: &str) -> &[CandidateRecord] {
        match self.by_key.get(key) {
            Some(fp) => &self.entries[fp].candidates,
            None => &[],
        }
    }

    /// Audit view of the reverse-lookup table: every `(key, fingerprint)`
    /// registration, sorted by key. Integrity tooling (`sommelier-lint`)
    /// walks this to find index keys that dangle from the repository.
    pub fn by_key_audit(&self) -> Vec<(&str, Fingerprint)> {
        let mut out: Vec<(&str, Fingerprint)> = self
            .by_key
            .iter()
            .map(|(k, fp)| (k.as_str(), *fp))
            .collect();
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Audit view of the entry table: every entry as
    /// `(fingerprint, key, candidate list)`, sorted by key for
    /// deterministic reporting. Candidate lists are exposed verbatim so
    /// invariant checks (the triangle bounds among measured records) see
    /// exactly what a snapshot deserialized.
    pub fn entries_audit(&self) -> Vec<(Fingerprint, &str, &[CandidateRecord])> {
        let mut out = self.entry_views();
        out.sort_by(|a, b| a.1.cmp(b.1));
        out
    }

    /// The entry table as [`Self::entries_audit`] lists it, but in
    /// fingerprint order (the order a `.somb` image stores it in).
    pub(crate) fn entries_by_fingerprint(&self) -> Vec<(Fingerprint, &str, &[CandidateRecord])> {
        let mut out = self.entry_views();
        out.sort_unstable_by_key(|(fp, _, _)| fp.0);
        out
    }

    fn entry_views(&self) -> Vec<(Fingerprint, &str, &[CandidateRecord])> {
        self.entries
            .iter()
            .map(|(fp, e)| (*fp, e.key.as_str(), e.candidates.as_slice()))
            .collect()
    }

    /// Candidate records over every entry's list.
    pub fn candidate_records(&self) -> usize {
        self.entries.values().map(|e| e.candidates.len()).sum()
    }

    /// Every entry whose stored candidate list is not the one its edge
    /// table derives, sorted by key: the entry's key, the position of
    /// the first record that differs (the shorter length when one list
    /// is a prefix of the other) and the derived record there, if any.
    /// Two records match when their keys, their kinds and the bits of
    /// their bounds and scores are equal. An `apply`-built index returns
    /// nothing.
    pub fn underived_entries(&self) -> Vec<(&str, usize, Option<CandidateRecord>)> {
        fn id(c: &CandidateRecord) -> (&str, &CandidateKind, u64, u64) {
            (&c.key, &c.kind, c.diff_bound.to_bits(), c.score.to_bits())
        }
        let mut out = Vec::new();
        for (fp, e) in &self.entries {
            let derived =
                entry::compute_entry(self.config, &self.entries, &self.edges, fp.0).candidates;
            let first = e.candidates.iter().zip(&derived).position(|(s, d)| id(s) != id(d));
            if first.is_some() || e.candidates.len() != derived.len() {
                let at = first.unwrap_or(e.candidates.len().min(derived.len()));
                out.push((e.key.as_str(), at, derived.into_iter().nth(at)));
            }
        }
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_graph::{ModelBuilder, TaskKind};
    use sommelier_parallel::ThreadPool;
    use sommelier_tensor::{Prng, Shape};
    use std::collections::HashMap as Map;

    /// A mock analyzer with a fixed distance table. Analyses run from
    /// pool workers, so the call counter is atomic.
    struct TableAnalyzer {
        diffs: Map<(String, String), f64>,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl TableAnalyzer {
        fn new(pairs: &[(&str, &str, f64)]) -> Self {
            let mut diffs = Map::new();
            for (a, b, d) in pairs {
                diffs.insert((a.to_string(), b.to_string()), *d);
                diffs.insert((b.to_string(), a.to_string()), *d);
            }
            TableAnalyzer {
                diffs,
                calls: std::sync::atomic::AtomicUsize::new(0),
            }
        }
    }

    impl PairAnalyzer for TableAnalyzer {
        fn whole_diff(&self, reference: &Model, candidate: &Model) -> Option<f64> {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.diffs
                .get(&(reference.name.clone(), candidate.name.clone()))
                .copied()
        }
    }

    fn model(name: &str) -> Model {
        let mut rng = Prng::seed_from_u64(crate::semantic::tests::name_hash(name));
        ModelBuilder::new(name, TaskKind::Other, Shape::vector(4))
            .dense(2, &mut rng)
            .build()
            .unwrap()
    }

    pub(crate) fn name_hash(s: &str) -> u64 {
        s.bytes().fold(7u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64))
    }

    fn resolver(models: Vec<Model>) -> impl Fn(&str) -> Option<Model> {
        move |k: &str| models.iter().find(|m| m.name == k).cloned()
    }

    /// Index `models` in one batch on a one-lane pool.
    fn add(idx: &mut SemanticIndex, models: &[Model], res: Resolver<'_>, an: &dyn PairAnalyzer) {
        idx.apply(&ThreadPool::new(1), &[], models, res, an);
    }

    /// Remove `key` in a batch of its own; whether it was indexed.
    fn remove(
        idx: &mut SemanticIndex,
        pool: &ThreadPool,
        key: &str,
        res: Resolver<'_>,
        an: &dyn PairAnalyzer,
    ) -> bool {
        let indexed = idx.contains(key);
        idx.apply(pool, &[key.to_string()], &[], res, an);
        indexed
    }

    #[test]
    fn first_insert_has_no_candidates() {
        let mut idx = SemanticIndex::new(SemanticIndexConfig::default(), 1);
        let a = model("a");
        add(
            &mut idx,
            std::slice::from_ref(&a),
            &resolver(vec![]),
            &TableAnalyzer::new(&[]),
        );
        assert_eq!(idx.len(), 1);
        assert!(idx.candidates_of("a").is_empty());
    }

    #[test]
    fn pairwise_records_appear_in_both_entries() {
        let mut idx = SemanticIndex::new(SemanticIndexConfig::default(), 1);
        let a = model("a");
        let b = model("b");
        let an = TableAnalyzer::new(&[("a", "b", 0.1)]);
        let all = vec![a.clone(), b.clone()];
        add(
            &mut idx,
            std::slice::from_ref(&a),
            &resolver(all.clone()),
            &an,
        );
        add(&mut idx, std::slice::from_ref(&b), &resolver(all), &an);
        assert_eq!(idx.candidates_of("a").len(), 1);
        assert_eq!(idx.candidates_of("b").len(), 1);
        assert!((idx.candidates_of("b")[0].score - 0.9).abs() < 1e-12);
    }

    #[test]
    fn underived_entries_name_the_first_record_that_differs() {
        let mut idx = SemanticIndex::new(SemanticIndexConfig::default(), 1);
        let models = vec![model("a"), model("b"), model("c")];
        let an = TableAnalyzer::new(&[("a", "b", 0.1), ("a", "c", 0.2), ("b", "c", 0.3)]);
        add(&mut idx, &models, &resolver(models.clone()), &an);
        assert!(idx.underived_entries().is_empty());
        let derived = idx.candidates_of("a").to_vec();
        let edit = |idx: &mut SemanticIndex, f: &dyn Fn(&mut Vec<CandidateRecord>)| {
            let fp = idx.fingerprint_of("a").unwrap();
            f(&mut Arc::make_mut(idx.entries.get_mut(&fp).unwrap()).candidates);
        };
        // A score one bit off, the last record dropped, a record inserted
        // and one appended.
        edit(&mut idx, &|c| c[1].score = f64::from_bits(c[1].score.to_bits() ^ 1));
        assert_eq!(idx.underived_entries(), [("a", 1, Some(derived[1].clone()))]);
        edit(&mut idx, &|c| *c = derived[..1].to_vec());
        assert_eq!(idx.underived_entries(), [("a", 1, Some(derived[1].clone()))]);
        edit(&mut idx, &|c| c.extend(derived.iter().cloned()));
        assert_eq!(idx.underived_entries(), [("a", 1, Some(derived[1].clone()))]);
        edit(&mut idx, &|c| *c = [&derived[..], &derived[..1]].concat());
        assert_eq!(idx.underived_entries(), [("a", 2, None)]);
        edit(&mut idx, &|c| *c = derived.clone());
        assert!(idx.underived_entries().is_empty());
    }

    #[test]
    fn candidates_sorted_descending_by_score() {
        let mut idx = SemanticIndex::new(
            SemanticIndexConfig {
                sample_size: 10,
                segments: false,
                max_candidates: 64,
            },
            1,
        );
        let names = ["a", "b", "c", "d"];
        let models: Vec<Model> = names.iter().map(|n| model(n)).collect();
        let an = TableAnalyzer::new(&[
            ("a", "b", 0.30),
            ("a", "c", 0.10),
            ("a", "d", 0.20),
            ("b", "c", 0.25),
            ("b", "d", 0.25),
            ("c", "d", 0.05),
        ]);
        let res = resolver(models.clone());
        for m in &models {
            add(&mut idx, std::slice::from_ref(m), &res, &an);
        }
        let cands = idx.candidates_of("a");
        let scores: Vec<f64> = cands.iter().map(|c| c.score).collect();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]), "{scores:?}");
        assert_eq!(cands[0].key, "c"); // smallest diff 0.10
    }

    #[test]
    fn lookup_respects_threshold() {
        let mut idx = SemanticIndex::new(
            SemanticIndexConfig {
                sample_size: 10,
                segments: false,
                max_candidates: 64,
            },
            1,
        );
        let models: Vec<Model> = ["a", "b", "c"].iter().map(|n| model(n)).collect();
        let an = TableAnalyzer::new(&[("a", "b", 0.02), ("a", "c", 0.5), ("b", "c", 0.5)]);
        let res = resolver(models.clone());
        for m in &models {
            add(&mut idx, std::slice::from_ref(m), &res, &an);
        }
        let strict = idx.lookup_key("a", 0.95);
        assert_eq!(strict.len(), 1);
        assert_eq!(strict[0].key, "b");
        let loose = idx.lookup_key("a", 0.0);
        assert_eq!(loose.len(), 2);
    }

    /// Dense random-ish distance table over `names` for determinism tests.
    fn dense_pairs(names: &[&'static str]) -> Vec<(&'static str, &'static str, f64)> {
        let mut pairs = Vec::new();
        for (i, x) in names.iter().enumerate() {
            for y in names.iter().skip(i + 1) {
                let d = ((name_hash(x) ^ name_hash(y)) % 40) as f64 / 100.0 + 0.01;
                pairs.push((*x, *y, d));
            }
        }
        pairs
    }

    #[test]
    fn bulk_insert_matches_sequential_at_any_job_count() {
        // The same batch built on a sequential pool and on multi-worker
        // pools must serialize to byte-identical JSON: samples, edge
        // deltas, and derived entries are all pure functions of the
        // universe, computed over `par_map`s that preserve input order.
        let names = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"];
        let models: Vec<Model> = names.iter().map(|n| model(n)).collect();
        let pairs = dense_pairs(&names);
        let cfg = SemanticIndexConfig {
            sample_size: 3,
            segments: false,
            max_candidates: 16,
        };
        let res = resolver(models.clone());

        let mut sequential = SemanticIndex::new(cfg, 9);
        sequential.apply(
            &ThreadPool::new(1),
            &[],
            &models,
            &res,
            &TableAnalyzer::new(&pairs),
        );
        let baseline = serde_json::to_string(&sequential).unwrap();

        for jobs in [2, 4, 8] {
            let pool = ThreadPool::new(jobs);
            let mut idx = SemanticIndex::new(cfg, 9);
            idx.apply(&pool, &[], &models, &res, &TableAnalyzer::new(&pairs));
            let got = serde_json::to_string(&idx).unwrap();
            assert_eq!(got, baseline, "jobs={jobs} diverged from sequential");
        }
    }

    #[test]
    fn partner_selection_is_stable_under_reinsertion() {
        // The index is a pure function of the key universe: removing a
        // model and re-inserting it (the reindexing sweep) must restore
        // the exact serialized state, edges and all.
        let names = ["a", "b", "c", "d", "e", "f"];
        let models: Vec<Model> = names.iter().map(|n| model(n)).collect();
        let pairs = dense_pairs(&names);
        let cfg = SemanticIndexConfig {
            sample_size: 2,
            segments: false,
            max_candidates: 16,
        };
        let res = resolver(models.clone());
        let an = TableAnalyzer::new(&pairs);
        let mut idx = SemanticIndex::new(cfg, 9);
        add(&mut idx, &models, &res, &an);

        let before = serde_json::to_string(&idx).unwrap();
        assert!(remove(&mut idx, &ThreadPool::new(1), "c", &res, &an));
        assert!(!idx.contains("c"));
        add(&mut idx, &models[2..3], &res, &an);
        let after = serde_json::to_string(&idx).unwrap();
        assert_eq!(after, before, "remove + re-insert did not round-trip");
    }

    #[test]
    fn bulk_insert_is_independent_of_batch_order() {
        // The canonical state depends only on the final universe, so
        // permuting the batch must produce byte-identical JSON.
        let names = ["a", "b", "c", "d", "e", "f"];
        let models: Vec<Model> = names.iter().map(|n| model(n)).collect();
        let pairs = dense_pairs(&names);
        let cfg = SemanticIndexConfig {
            sample_size: 2,
            segments: false,
            max_candidates: 16,
        };
        let res = resolver(models.clone());

        let mut fwd = SemanticIndex::new(cfg, 9);
        add(&mut fwd, &models, &res, &TableAnalyzer::new(&pairs));
        let mut reversed: Vec<Model> = models.clone();
        reversed.reverse();
        let mut rev = SemanticIndex::new(cfg, 9);
        add(&mut rev, &reversed, &res, &TableAnalyzer::new(&pairs));

        assert_eq!(
            serde_json::to_string(&fwd).unwrap(),
            serde_json::to_string(&rev).unwrap(),
            "index depends on batch order"
        );
    }

    #[test]
    fn incremental_churn_matches_from_scratch_at_any_job_count() {
        // A mutation sequence (bulk build, removals, re-insertion) must
        // land byte-for-byte on the from-scratch build of the surviving
        // key set, at every job count.
        let names = ["a", "b", "c", "d", "e", "f", "g", "h"];
        let models: Vec<Model> = names.iter().map(|n| model(n)).collect();
        let pairs = dense_pairs(&names);
        let cfg = SemanticIndexConfig {
            sample_size: 3,
            segments: false,
            max_candidates: 16,
        };
        let res = resolver(models.clone());
        let an = TableAnalyzer::new(&pairs);
        let survivors: Vec<Model> = models
            .iter()
            .filter(|m| m.name != "f")
            .cloned()
            .collect();
        let mut baseline: Option<String> = None;
        for jobs in [1, 4, 8] {
            let pool = ThreadPool::new(jobs);
            let mut idx = SemanticIndex::new(cfg, 9);
            idx.apply(&pool, &[], &models, &res, &an);
            assert!(remove(&mut idx, &pool, "c", &res, &an));
            assert!(remove(&mut idx, &pool, "f", &res, &an));
            // Replace via a single batch: remove + add in one apply.
            idx.apply(&pool, &["a".to_string()], &models[0..1], &res, &an);
            idx.apply(&pool, &[], std::slice::from_ref(&models[2]), &res, &an);

            let mut scratch = SemanticIndex::new(cfg, 9);
            scratch.apply(&pool, &[], &survivors, &res, &an);

            let got = serde_json::to_string(&idx).unwrap();
            assert_eq!(
                got,
                serde_json::to_string(&scratch).unwrap(),
                "churned index diverged from scratch build at jobs={jobs}"
            );
            if let Some(b) = &baseline {
                assert_eq!(&got, b, "jobs={jobs} diverged from jobs=1");
            } else {
                baseline = Some(got);
            }
        }
    }

    #[test]
    fn deserialized_index_resumes_incremental_maintenance() {
        // Nothing a mutation needs lives outside the serialized image:
        // the first mutation after a JSON round-trip must produce the
        // same bytes as mutating the original.
        let names = ["a", "b", "c", "d", "e", "f"];
        let models: Vec<Model> = names.iter().map(|n| model(n)).collect();
        let pairs = dense_pairs(&names);
        let cfg = SemanticIndexConfig {
            sample_size: 2,
            segments: false,
            max_candidates: 16,
        };
        let res = resolver(models.clone());
        let an = TableAnalyzer::new(&pairs);
        let mut original = SemanticIndex::new(cfg, 9);
        add(&mut original, &models, &res, &an);
        let mut revived: SemanticIndex =
            serde_json::from_str(&serde_json::to_string(&original).unwrap()).unwrap();

        remove(&mut original, &ThreadPool::new(1), "d", &res, &an);
        remove(&mut revived, &ThreadPool::new(1), "d", &res, &an);
        assert_eq!(
            serde_json::to_string(&original).unwrap(),
            serde_json::to_string(&revived).unwrap(),
            "revived index diverged after mutation"
        );
    }

    #[test]
    fn transitive_derivation_picks_the_tightest_via() {
        // Force the sample to cover everything so both intermediaries are
        // measured; the transitive record to an unsampled model must
        // carry the minimum composite bound, not whichever intermediary
        // was merged first.
        let mut idx = SemanticIndex::new(
            SemanticIndexConfig {
                sample_size: 2,
                segments: false,
                max_candidates: 64,
            },
            3,
        );
        // d: new model; b and c: sampled intermediaries; a: reached only
        // transitively (d's sample has room for exactly b and c).
        let models: Vec<Model> = ["a", "b", "c", "d"].iter().map(|n| model(n)).collect();
        let an = TableAnalyzer::new(&[
            ("a", "b", 0.30),
            ("a", "c", 0.02),
            ("b", "c", 0.10),
            ("a", "d", 9.0), // never measured directly (d samples only 2 of 3)
            ("b", "d", 0.05),
            ("c", "d", 0.05),
        ]);
        let res = resolver(models.clone());
        for m in &models {
            add(&mut idx, std::slice::from_ref(m), &res, &an);
        }
        // Whatever d sampled, any transitive d→a record must carry the
        // tightest derivable bound among its measured intermediaries.
        if let Some(rec) = idx
            .candidates_of("d")
            .iter()
            .find(|c| c.key == "a" && matches!(c.kind, CandidateKind::Transitive { .. }))
        {
            let recorded = |key: &str, other: &str| {
                idx.candidates_of(key)
                    .iter()
                    .find(|c| c.key == other)
                    .map(|c| c.diff_bound)
            };
            let mut best = f64::INFINITY;
            for via in ["b", "c"] {
                if let (Some(d_dv), Some(d_va)) = (recorded("d", via), recorded(via, "a")) {
                    best = best.min(d_dv + d_va);
                }
            }
            assert!(
                (rec.diff_bound - best).abs() < 1e-12,
                "transitive bound {} is not the tightest {}",
                rec.diff_bound,
                best
            );
        }
    }

    #[test]
    fn sampling_caps_direct_analysis_and_fills_transitively() {
        let mut idx = SemanticIndex::new(
            SemanticIndexConfig {
                sample_size: 2,
                segments: false,
                max_candidates: 64,
            },
            42,
        );
        let names = ["a", "b", "c", "d", "e", "f", "g", "h"];
        let models: Vec<Model> = names.iter().map(|n| model(n)).collect();
        // Uniform diffs so transitivity is well-defined.
        let mut pairs = Vec::new();
        for (i, x) in names.iter().enumerate() {
            for y in names.iter().skip(i + 1) {
                pairs.push((*x, *y, 0.05));
            }
        }
        let an = TableAnalyzer::new(&pairs);
        let res = resolver(models.clone());
        for m in &models {
            add(&mut idx, std::slice::from_ref(m), &res, &an);
        }
        // With sampling 2, each model's attempted pairs stay far below
        // full pairwise; candidate lists still cover the 2-hop
        // neighborhood transitively.
        let cands = idx.candidates_of("h");
        assert!(!cands.is_empty(), "no candidates at all");
        let transitive = cands
            .iter()
            .filter(|c| matches!(c.kind, CandidateKind::Transitive { .. }))
            .count();
        assert!(transitive > 0, "expected transitive records");
        // Transitive bounds are conservative: diff 0.05+0.05.
        for c in cands {
            if matches!(c.kind, CandidateKind::Transitive { .. }) {
                assert!((c.diff_bound - 0.10).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn duplicate_keys_rejected() {
        let mut idx = SemanticIndex::new(SemanticIndexConfig::default(), 1);
        let a = model("a");
        add(
            &mut idx,
            std::slice::from_ref(&a),
            &resolver(vec![]),
            &TableAnalyzer::new(&[]),
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            add(
                &mut idx,
                std::slice::from_ref(&a),
                &resolver(vec![]),
                &TableAnalyzer::new(&[]),
            );
        }));
        assert!(result.is_err());
    }

    #[test]
    fn remove_purges_entry_and_references() {
        let mut idx = SemanticIndex::new(
            SemanticIndexConfig {
                sample_size: 10,
                segments: false,
                max_candidates: 64,
            },
            1,
        );
        let models: Vec<Model> = ["a", "b", "c"].iter().map(|n| model(n)).collect();
        let an = TableAnalyzer::new(&[("a", "b", 0.1), ("a", "c", 0.2), ("b", "c", 0.1)]);
        let res = resolver(models.clone());
        for m in &models {
            add(&mut idx, std::slice::from_ref(m), &res, &an);
        }
        assert!(idx.contains("b"));
        assert!(remove(&mut idx, &ThreadPool::new(1), "b", &res, &an));
        assert!(!idx.contains("b"));
        assert_eq!(idx.len(), 2);
        for key in ["a", "c"] {
            assert!(idx.candidates_of(key).iter().all(|c| c.key != "b"));
        }
        assert!(
            !remove(&mut idx, &ThreadPool::new(1), "b", &res, &an),
            "double removal is a no-op"
        );
    }

    #[test]
    fn removal_costs_no_new_analyses_when_pairs_are_known() {
        // With the sample covering the whole universe, every surviving
        // pair is already measured: removal re-samples but must not call
        // the analyzer again (the O(bucket) claim).
        let names = ["a", "b", "c", "d", "e"];
        let models: Vec<Model> = names.iter().map(|n| model(n)).collect();
        let pairs = dense_pairs(&names);
        let cfg = SemanticIndexConfig {
            sample_size: 10,
            segments: false,
            max_candidates: 64,
        };
        let res = resolver(models.clone());
        let an = TableAnalyzer::new(&pairs);
        let mut idx = SemanticIndex::new(cfg, 9);
        add(&mut idx, &models, &res, &an);
        let before = an.calls.load(std::sync::atomic::Ordering::Relaxed);
        assert!(remove(&mut idx, &ThreadPool::new(1), "c", &res, &an));
        let after = an.calls.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(after, before, "removal re-ran pairwise analyses");
    }

    #[test]
    fn better_measurement_replaces_transitive_record() {
        // A direct measurement later should not be shadowed by an earlier
        // transitive bound if it is tighter.
        let mut idx = SemanticIndex::new(
            SemanticIndexConfig {
                sample_size: 1,
                segments: false,
                max_candidates: 64,
            },
            7,
        );
        let models: Vec<Model> = ["a", "b", "c"].iter().map(|n| model(n)).collect();
        let an = TableAnalyzer::new(&[("a", "b", 0.05), ("a", "c", 0.05), ("b", "c", 0.01)]);
        let res = resolver(models.clone());
        for m in &models {
            add(&mut idx, std::slice::from_ref(m), &res, &an);
        }
        // Whatever the sampling chose, all records must carry the tightest
        // known bound ≤ transitive worst case 0.10.
        for key in ["a", "b", "c"] {
            for c in idx.candidates_of(key) {
                assert!(c.diff_bound <= 0.10 + 1e-9);
            }
        }
    }
}