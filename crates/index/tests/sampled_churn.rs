//! Sampled churn ≡ from-scratch, at the `SemanticIndex` level.
//!
//! `crates/query/tests/churn_determinism.rs` runs five real models at
//! `sample_size 16`, where the rendezvous sample is never selective.
//! Here the sample is: 26 keys at `sample_size 3`, a table analyzer in
//! place of real analysis so hundreds of sequences are cheap, and two
//! pairs of keys sharing a fingerprint so the alias / canonical-key
//! path runs. After any sequence of inserts, removes, replaces and
//! multi-key batches — with a serde round trip at a random point — the
//! index must equal a from-scratch build of the survivors (one `apply`
//! with no removals) byte for byte, at jobs 1, 4 and 8, and after every
//! step each candidate list must be the one its edge table derives.

use proptest::prelude::*;
use sommelier_graph::{Fingerprint, Model, ModelBuilder, TaskKind};
use sommelier_index::semantic::SemanticIndexConfig;
use sommelier_index::{PairAnalyzer, SemanticIndex};
use sommelier_parallel::ThreadPool;
use sommelier_tensor::{mix64, Prng, Shape};
use std::collections::BTreeMap;

/// Distinct contents per generation; keys `k00`..`k23` carry content
/// `0..24`, and the two alias keys share the content of `k03` (sorting
/// before it) and of `k10` (sorting after it).
const CONTENTS: usize = 24;
const KEYS: usize = CONTENTS + 2;

fn key_name(key: usize) -> String {
    match key {
        24 => "a03".to_string(),
        25 => "z10".to_string(),
        k => format!("k{k:02}"),
    }
}

fn content_of(key: usize) -> usize {
    match key {
        24 => 3,
        25 => 10,
        k => k,
    }
}

/// The model a key holds in a content generation: the fingerprint
/// covers the weights only, so aliases at the same generation collide
/// and the two generations of one key do not.
fn model(key: usize, generation: usize) -> Model {
    let mut rng = Prng::seed_from_u64((content_of(key) * 2 + generation) as u64 + 100);
    ModelBuilder::new(key_name(key), TaskKind::Other, Shape::vector(4))
        .dense(2, &mut rng)
        .build()
        .unwrap()
}

/// Diffs as a pure function of the two contents (never the names: an
/// aliased fingerprint resolves under whichever key is canonical).
/// Directed, and incomparable for about one pair in seven.
struct TableAnalyzer;

impl TableAnalyzer {
    fn diff(salt: u64, a: &Model, b: &Model) -> Option<f64> {
        let h = mix64(&[salt, Fingerprint::of_model(a).0, Fingerprint::of_model(b).0]) % 47;
        (h < 40).then(|| h as f64 / 100.0 + 0.01)
    }
}

impl PairAnalyzer for TableAnalyzer {
    fn whole_diff(&self, reference: &Model, candidate: &Model) -> Option<f64> {
        Self::diff(1, reference, candidate)
    }

    fn segment_diff(&self, host: &Model, donor: &Model) -> Option<f64> {
        Self::diff(2, host, donor)
    }
}

const CONFIG: SemanticIndexConfig = SemanticIndexConfig {
    sample_size: 3,
    segments: true,
    max_candidates: 12,
};
const SEED: u64 = 9;

/// Run one sequence of batches at a job count; return the churned
/// index's JSON and the from-scratch build's over the survivors.
/// A step is a batch of `(op, key)`: an absent key is inserted, a live
/// one removed (`op` 0), replaced by its other generation (1) or
/// removed and re-added unchanged (2). The round trip lands before
/// step `revive_at`.
fn churn(steps: &[Vec<(u8, u8)>], revive_at: usize, jobs: usize) -> (String, String) {
    let pool = ThreadPool::new(jobs);
    // The repository the resolver reads: a key's latest content, kept
    // after removal as the engine's removal keeps the file.
    let repo: std::sync::Mutex<BTreeMap<String, Model>> = Default::default();
    let resolve = |k: &str| repo.lock().unwrap().get(k).cloned();
    let mut live: BTreeMap<usize, usize> = BTreeMap::new();
    let mut generation = [0usize; KEYS];
    let mut idx = SemanticIndex::new(CONFIG, SEED);
    for (i, step) in steps.iter().enumerate() {
        if i == revive_at {
            idx = serde_json::from_str(&serde_json::to_string(&idx).unwrap()).unwrap();
        }
        let (mut removes, mut adds, mut seen) = (Vec::new(), Vec::new(), Vec::new());
        for &(op, key) in step {
            let key = key as usize % KEYS;
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            if live.remove(&key).is_some() {
                removes.push(key_name(key));
                if op == 0 {
                    continue;
                }
                generation[key] ^= usize::from(op == 1);
            }
            live.insert(key, generation[key]);
            adds.push(model(key, generation[key]));
        }
        for m in &adds {
            repo.lock().unwrap().insert(m.name.clone(), m.clone());
        }
        idx.apply(&pool, &removes, &adds, &resolve, &TableAnalyzer);
        let underived = idx.underived_entries();
        assert!(underived.is_empty(), "step {i} left underived entries: {underived:?}");
    }
    let survivors: Vec<Model> = live.iter().map(|(&k, &g)| model(k, g)).collect();
    let mut scratch = SemanticIndex::new(CONFIG, SEED);
    scratch.apply(&pool, &[], &survivors, &resolve, &TableAnalyzer);
    (
        serde_json::to_string(&idx).unwrap(),
        serde_json::to_string(&scratch).unwrap(),
    )
}

/// A bulk load of every key, then the random tail: the sequences that
/// matter start from a universe larger than the sample.
fn with_preload(tail: &[Vec<(u8, u8)>]) -> Vec<Vec<(u8, u8)>> {
    let mut steps = vec![(0..KEYS as u8).map(|k| (0, k)).collect::<Vec<_>>()];
    steps.extend_from_slice(tail);
    steps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn sampled_churn_matches_a_from_scratch_build(
        tail in proptest::collection::vec(
            proptest::collection::vec((0u8..3, 0u8..KEYS as u8), 1..5),
            1..14,
        ),
        revive_at in 0usize..15,
    ) {
        let steps = with_preload(&tail);
        let (churned_1, scratch_1) = churn(&steps, revive_at, 1);
        prop_assert_eq!(&churned_1, &scratch_1);
        for jobs in [4, 8] {
            let (churned, scratch) = churn(&steps, revive_at, jobs);
            prop_assert_eq!(&churned, &scratch);
            prop_assert_eq!(&churned_1, &churned);
        }
    }
}

/// The alias path pinned outside proptest: the canonical key of a
/// shared fingerprint moves to the alias and back, the aliased content
/// disappears only with its last key, and a replace splits a pair.
#[test]
fn alias_keys_hand_the_canonical_key_over() {
    let steps = with_preload(&[
        vec![(0, 25)],          // drop z10: k10 becomes canonical
        vec![(0, 3)],           // drop k03: a03 keeps the content alive
        vec![(0, 25)],          // z10 back: canonical again
        vec![(1, 10), (0, 24)], // k10 → other content; a03 gone, content 3 too
        vec![(0, 3), (0, 24)],  // both keys of content 3 in one batch
        vec![(2, 3), (1, 24)],  // k03 re-added as is, a03 replaced
    ]);
    for revive_at in [0, 3, 5, 99] {
        let (churned, scratch) = churn(&steps, revive_at, 4);
        assert_eq!(churned, scratch, "round trip before step {revive_at}");
    }
}
