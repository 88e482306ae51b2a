//! Differential test of the read path: `query_ast` against a naive
//! oracle written here, over a synthetic index whose resource side has
//! been through everything a live one goes through — seeded churn over
//! the whole key universe, a key inserted twice, a removed key added
//! back, keys removed for good — and whose candidate lists point at all
//! of them, at keys with no profile at all, and at synthesized models.
//! The resource index is held against a plain list of `(key, profile)`
//! pairs after every one of those steps, and its bytes at the end
//! against a fresh build of the survivors. One reference's list has
//! equal scores, and keys with equal profiles, where a limit cuts it, so
//! the engine's order among ties is held to the oracle's stable sort.
//!
//! The engine's resource stage probes each semantic candidate's profile
//! and never asks the resource index a range query; this is the check
//! that doing so answers every query exactly as the definition does.

use sommelier::index::persist::SNAPSHOT_VERSION;
use sommelier::index::semantic::SemanticIndexConfig;
use sommelier::index::{
    somb, CandidateKind, CandidateRecord, IndexSnapshot, ResourceConstraint, ResourceIndex,
    SemanticIndex,
};
use sommelier::prelude::*;
use sommelier::query::ast::BoundValue::{self, Absolute, RelativePercent};
use sommelier::query::ResourceDim::{self, Flops, Latency, Memory};
use sommelier::query::{RefSpec, ResourcePredicate, SelectKind};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

const KEYS: usize = 2048;
const CANDIDATES: usize = 16;

/// The reference whose candidate list is wired at the special keys: its
/// `j`-th candidate is key `MAIN + 1 + 127 j`.
const MAIN: usize = 100;
/// Inserted twice, the second time much cheaper (`MAIN`'s candidate 0).
const TWICE: usize = MAIN + 1;
/// Removed, then added back with a new profile (`MAIN`'s candidate 1).
const REINSERTED: usize = MAIN + 1 + 127;
/// Removed for good (`MAIN`'s candidate 2); so is every `i % 5 == 3`.
const GONE: usize = MAIN + 1 + 2 * 127;
/// `MAIN`'s candidates at these positions get `TWICE`'s profile, so
/// every resource order puts four equal keys first in `MAIN`'s answer.
const CHEAP_TIES: [usize; 3] = [4, 8, 9];

fn main_candidate(j: usize) -> usize {
    MAIN + 1 + 127 * j
}

/// The bound tier of candidate `j` in `i`'s list. `MAIN`'s candidates 0
/// and 1 share a score, and so do 8, 9 and 10.
fn tier(i: usize, j: usize) -> usize {
    match (i, j) {
        (MAIN, 1) => 0,
        (MAIN, 9 | 10) => 8,
        _ => j,
    }
}

fn key(i: usize) -> String {
    format!("m{i:04}")
}

fn removed(i: usize) -> bool {
    i % 5 == 3 || i == GONE
}

/// The resource index next to what it has to equal: a list of pairs,
/// scanned. Every mutation goes to both and is followed by a comparison.
struct Mirrored {
    index: ResourceIndex,
    naive: Vec<(String, ResourceProfile)>,
    rng: Prng,
}

impl Mirrored {
    fn profile(&mut self) -> ResourceProfile {
        ResourceProfile {
            memory_mb: 32.0 + self.rng.uniform() * 4096.0,
            gflops: 0.5 + self.rng.uniform() * 40.0,
            latency_ms: 1.0 + self.rng.uniform() * 90.0,
        }
    }

    fn insert(&mut self, key: String, profile: ResourceProfile) {
        self.index.insert(key.clone(), profile);
        match self.naive.iter_mut().find(|(k, _)| *k == key) {
            Some(entry) => entry.1 = profile,
            None => self.naive.push((key.clone(), profile)),
        }
        self.check(&key);
    }

    fn remove(&mut self, key: &str) {
        let held = self.naive.iter().any(|(k, _)| k == key);
        self.naive.retain(|(k, _)| k != key);
        assert_eq!(self.index.remove(key), held, "remove({key})");
        self.check(key);
    }

    /// `profile_of` on the key just touched and on a random one, and a
    /// range query under random bounds, against scans of the list.
    fn check(&mut self, touched: &str) {
        assert_eq!(self.index.len(), self.naive.len());
        for key in [touched.to_string(), key(self.rng.index(KEYS))] {
            let want = self.naive.iter().find(|(k, _)| *k == key).map(|(_, p)| p);
            assert_eq!(self.index.profile_of(&key), want, "profile_of({key})");
        }
        let bounds = self.profile();
        let constraint = ResourceConstraint {
            max_memory_mb: Some(bounds.memory_mb),
            max_gflops: (self.rng.uniform() < 0.5).then_some(bounds.gflops),
            max_latency_ms: (self.rng.uniform() < 0.5).then_some(bounds.latency_ms),
        };
        let mut want: Vec<&str> = self
            .naive
            .iter()
            .filter(|(_, p)| constraint.admits(p))
            .map(|(k, _)| k.as_str())
            .collect();
        want.sort_unstable();
        assert_eq!(self.index.query(&constraint), want, "{constraint:?}");
    }
}

/// The index the query grid runs over, with the list it mirrors.
fn resource_index() -> (ResourceIndex, Vec<(String, ResourceProfile)>) {
    let mut m = Mirrored {
        index: ResourceIndex::default(),
        naive: Vec::new(),
        rng: Prng::seed_from_u64(17),
    };
    // Seeded churn over the whole universe: an insert lands on an absent
    // key (an insert, or the re-adding of a removed one) or on a present
    // one (a duplicate insert, which replaces); a remove on either.
    for _ in 0..2 * KEYS {
        let k = key(m.rng.index(KEYS));
        if m.rng.uniform() < 0.4 {
            m.remove(&k);
        } else {
            let p = m.profile();
            m.insert(k, p);
        }
    }
    // Then the shape the candidate lists are wired to.
    for i in 0..KEYS {
        let p = m.profile();
        m.insert(key(i), p);
    }
    let cheap = ResourceProfile {
        memory_mb: 0.1,
        gflops: 0.1,
        latency_ms: 0.1,
    };
    m.insert(key(TWICE), cheap);
    for j in CHEAP_TIES {
        m.insert(key(main_candidate(j)), cheap);
    }
    for i in (0..KEYS).filter(|i| removed(*i)) {
        m.remove(&key(i));
    }
    let p = m.profile();
    m.insert(key(REINSERTED), p);
    assert_eq!(
        m.index.len(),
        KEYS - (0..KEYS).filter(|i| removed(*i)).count() + 1
    );

    // The bytes are those of a fresh build of the survivors, in both
    // encodings, whatever order the survivors arrive in.
    let fresh: ResourceIndex = m.naive.iter().rev().cloned().collect();
    assert_eq!(
        serde_json::to_string(&m.index).unwrap(),
        serde_json::to_string(&fresh).unwrap()
    );
    let no_models = SemanticIndex::new(SemanticIndexConfig::default(), 1);
    assert_eq!(
        somb::encode(&no_models, &m.index, None),
        somb::encode(&no_models, &fresh, None)
    );
    (m.index, m.naive)
}

fn semantic_index() -> SemanticIndex {
    let entries = (0..KEYS)
        .map(|i| {
            let candidates = (0..CANDIDATES)
                .map(|j| {
                    let other = key((i + 1 + 127 * j) % KEYS);
                    let diff_bound = 0.01 + 0.05 * tier(i, j) as f64 + 0.001 * (i % 7) as f64;
                    let (key, kind) = match j {
                        7 | 15 => (
                            format!("{}+{other}", key(i)),
                            CandidateKind::Synthesized { donor: other },
                        ),
                        _ if j % 3 == 0 => (
                            other,
                            CandidateKind::Transitive {
                                via: key((i + 5) % KEYS),
                            },
                        ),
                        _ => (other, CandidateKind::Whole),
                    };
                    CandidateRecord {
                        key,
                        diff_bound,
                        score: 1.0 - diff_bound,
                        kind,
                    }
                })
                .collect();
            (Fingerprint(i as u64 + 1), key(i), candidates)
        })
        .collect();
    SemanticIndex::from_parts(SemanticIndexConfig::default(), 1, entries, Vec::new())
}

fn dim_of(p: &ResourceProfile, dim: ResourceDim) -> f64 {
    match dim {
        Memory => p.memory_mb,
        Flops => p.gflops,
        Latency => p.latency_ms,
    }
}

/// The definition of a query's answer: the reference's candidates at or
/// above the threshold, each with the profile its key holds (the
/// reference's own for a synthesized model), kept if that profile is
/// within every bound, stably sorted, truncated. `None` when the
/// reference has no profile.
fn oracle(
    semantic: &SemanticIndex,
    profiles: &HashMap<&str, ResourceProfile>,
    query: &Query,
) -> Option<Vec<QueryResult>> {
    let RefSpec::Named(reference) = &query.reference else {
        unreachable!("the grid names its references")
    };
    let ref_profile = *profiles.get(reference.as_str())?;
    let bounds: Vec<(ResourceDim, f64)> = query
        .predicates
        .iter()
        .map(|p| {
            let bound = match p.value {
                Absolute(v) => v,
                RelativePercent(pct) => dim_of(&ref_profile, p.dim) * pct / 100.0,
            };
            (p.dim, bound)
        })
        .collect();
    let mut results: Vec<QueryResult> = semantic
        .candidates_of(reference)
        .iter()
        .filter(|c| c.key != *reference && c.score >= query.threshold)
        .filter_map(|c| {
            let profile = match c.kind {
                CandidateKind::Synthesized { .. } => ref_profile,
                _ => *profiles.get(c.key.as_str())?,
            };
            bounds
                .iter()
                .all(|(dim, bound)| dim_of(&profile, *dim) <= *bound)
                .then(|| QueryResult {
                    key: c.key.clone(),
                    score: c.score,
                    diff_bound: c.diff_bound,
                    profile,
                    kind: c.kind.clone(),
                })
        })
        .collect();
    let ascending = |dim| move |a: &QueryResult, b: &QueryResult| {
        dim_of(&a.profile, dim).total_cmp(&dim_of(&b.profile, dim))
    };
    match query.selection {
        FinalSelection::Similarity => results.sort_by(|a, b| b.score.total_cmp(&a.score)),
        FinalSelection::Memory => results.sort_by(ascending(Memory)),
        FinalSelection::Flops => results.sort_by(ascending(Flops)),
        FinalSelection::Latency => results.sort_by(ascending(Latency)),
    }
    results.truncate(match query.select {
        SelectKind::Model => 1,
        SelectKind::Models(n) => n,
    });
    Some(results)
}

#[test]
fn query_results_equal_the_naive_oracle_on_a_churned_index() {
    let (resource, naive) = resource_index();
    let semantic = semantic_index();
    let engine = Sommelier::assemble_from_snapshot(
        Arc::new(InMemoryRepository::new()),
        SommelierConfig::default(),
        IndexSnapshot {
            version: SNAPSHOT_VERSION,
            stats: None,
            semantic,
            resource,
        },
    );
    let readers = [engine.reader().with_pool(1), engine.reader().with_pool(4)];
    let semantic = engine.semantic_index();
    let profiles: HashMap<&str, ResourceProfile> =
        naive.iter().map(|(k, p)| (k.as_str(), *p)).collect();
    assert_eq!(
        profiles[key(TWICE).as_str()].memory_mb,
        0.1,
        "the second insert replaced"
    );
    assert!(!profiles.contains_key(key(GONE).as_str()));

    let on = |dim, value: BoundValue| ResourcePredicate { dim, value };
    let bound_sets: Vec<Vec<ResourcePredicate>> = vec![
        vec![],
        vec![on(Memory, Absolute(1500.0))],
        vec![on(Flops, Absolute(12.5))],
        vec![on(Latency, Absolute(0.5))],
        vec![on(Memory, RelativePercent(90.0))],
        vec![on(Flops, RelativePercent(150.0))],
        vec![on(Latency, RelativePercent(60.0))],
        vec![on(Memory, RelativePercent(120.0)), on(Latency, Absolute(40.0))],
        vec![
            on(Memory, Absolute(3000.0)),
            on(Flops, RelativePercent(80.0)),
            on(Latency, RelativePercent(110.0)),
        ],
    ];
    let orders = [
        FinalSelection::Similarity,
        FinalSelection::Memory,
        FinalSelection::Flops,
        FinalSelection::Latency,
    ];
    let (mut queries, mut non_empty, mut unknown) = (0, 0, 0);
    for reference in [MAIN, TWICE, REINSERTED, 1500, KEYS - 1, 3, GONE] {
        for predicates in &bound_sets {
            for selection in orders {
                for limit in [0, 1, 3, 64] {
                    for threshold in [0.2, 0.9, 1.1] {
                        let query = Query {
                            select: SelectKind::Models(limit),
                            reference: RefSpec::Named(key(reference)),
                            threshold,
                            predicates: predicates.clone(),
                            selection,
                            exec_spec: BTreeMap::new(),
                        };
                        let want = oracle(semantic, &profiles, &query);
                        for reader in &readers {
                            let got = reader.query_ast(&query);
                            match (&want, got) {
                                (Some(want), Ok(got)) => assert_eq!(
                                    &got,
                                    want,
                                    "jobs={}, {query:?}",
                                    reader.jobs()
                                ),
                                (None, Err(QueryError::UnknownReference(_))) => {}
                                (want, got) => panic!(
                                    "jobs={}, {query:?}: engine {got:?}, oracle {want:?}",
                                    reader.jobs()
                                ),
                            }
                        }
                        queries += 1;
                        match &want {
                            Some(results) => non_empty += usize::from(!results.is_empty()),
                            None => unknown += 1,
                        }
                    }
                }
            }
        }
    }
    // The grid is not vacuous: two references of seven have lost their
    // profile, a fifth of all cells still answer with something (a zero
    // limit, `WITHIN 1.1` and the tightest bounds never do), and the
    // wired list reaches every special key.
    assert_eq!(unknown, queries * 2 / 7);
    assert!(non_empty * 5 > queries, "{non_empty} of {queries} non-empty");
    let all = oracle(
        semantic,
        &profiles,
        &Query::corr(key(MAIN)).top(64).within(0.0),
    )
    .expect("the main reference is live");
    let keys: Vec<&str> = all.iter().map(|r| r.key.as_str()).collect();
    assert!(keys.contains(&key(TWICE).as_str()) && keys.contains(&key(REINSERTED).as_str()));
    // Limits 1 and 3 cut inside ties: two equal scores lead the
    // similarity order, and four equal profiles every resource order.
    let top = |selection, threshold| {
        let mut query = Query::corr(key(MAIN)).top(64).within(threshold);
        query.selection = selection;
        oracle(semantic, &profiles, &query).expect("the main reference is live")
    };
    let by_score = top(FinalSelection::Similarity, 0.9);
    assert!(by_score.len() >= 2 && by_score[0].score == by_score[1].score);
    for order in [FinalSelection::Memory, FinalSelection::Flops, FinalSelection::Latency] {
        let cheapest: Vec<String> = top(order, 0.2).into_iter().take(4).map(|r| r.key).collect();
        let tied: Vec<String> = [0]
            .into_iter()
            .chain(CHEAP_TIES)
            .map(|j| key(main_candidate(j)))
            .collect();
        assert_eq!(cheapest, tied, "{order:?}");
    }
    assert!(!keys.contains(&key(GONE).as_str()));
    assert_eq!(
        all.iter()
            .filter(|r| matches!(r.kind, CandidateKind::Synthesized { .. }))
            .count(),
        2
    );
}
