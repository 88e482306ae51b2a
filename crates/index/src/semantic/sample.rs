//! The rendezvous rank that decides which partners a model samples.

use super::{Entry, SemanticIndex};
use sommelier_graph::Fingerprint;
use sommelier_tensor::Mix64;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::Arc;

/// Rendezvous (highest-random-weight) ranking around one batch: `x`
/// ranks `o` by `(mix64(seed, x, o), key of o, o)` and samples the `k`
/// it ranks lowest in the universe. The rank is a pure function of the
/// pair, so membership needs no stored sample: `q` is in `x`'s iff
/// fewer than `k` others rank below it. `evals` counts rank hashes.
pub(super) struct Ranking<'a> {
    seed: u64,
    k: usize,
    entries: &'a HashMap<Fingerprint, Arc<Entry>>,
    /// The fingerprints the batch names, each with its canonical key
    /// after the batch (`None`: no key is left).
    touched: &'a BTreeMap<u64, Option<String>>,
}

impl<'a> Ranking<'a> {
    /// `index`'s ranking around a batch that names `touched`.
    pub(super) fn new(
        index: &'a SemanticIndex,
        touched: &'a BTreeMap<u64, Option<String>>,
    ) -> Self {
        let (seed, k, entries) = (index.seed_state, index.config.sample_size, &index.entries);
        Ranking {
            seed,
            k,
            entries,
            touched,
        }
    }

    /// A fingerprint's canonical key after the batch (of one the batch
    /// removes, before it).
    pub(super) fn key(&self, fp: u64) -> &'a str {
        match self.touched.get(&fp).and_then(|key| key.as_deref()) {
            Some(key) => key,
            None => &self.entries[&Fingerprint(fp)].key,
        }
    }

    /// Rank order of two `(hash, fingerprint)`s; keys are read only on
    /// a hash tie.
    fn below(&self, a: (u64, u64), b: (u64, u64)) -> bool {
        a.0 < b.0 || (a.0 == b.0 && (self.key(a.1), a.1) < (self.key(b.1), b.1))
    }

    /// Whether `x` samples any of `among`, `universe` holding every
    /// member that can rank below the one of them `x` ranks lowest —
    /// sampled iff fewer than `k` do. The scan stops at the `k`-th:
    /// after `k(1 + ln(N/k))` hashes on average.
    pub(super) fn holds_any(
        &self,
        x: u64,
        among: &[u64],
        universe: &[u64],
        evals: &mut u64,
    ) -> bool {
        let prefix = Mix64::default().absorb(self.seed).absorb(x);
        let rank = |o: u64| (prefix.absorb(o).finish(), o);
        *evals += among.len() as u64;
        let lowest = |a, b| if self.below(b, a) { b } else { a };
        let Some(q) = among.iter().map(|&o| rank(o)).reduce(lowest) else {
            return false;
        };
        let mut room = self.k;
        room > 0
            && universe.iter().all(|&o| {
                if o == x || o == q.1 {
                    return true;
                }
                *evals += 1;
                room -= usize::from(self.below(rank(o), q));
                room > 0
            })
    }

    /// `x`'s whole sample over `universe`, in rank order: one pass
    /// holding the `k` lowest seen — no universe-sized buffer, no sort.
    pub(super) fn draw(&self, x: u64, universe: &[u64], evals: &mut u64) -> Vec<u64> {
        let prefix = Mix64::default().absorb(self.seed).absorb(x);
        let mut lowest: BinaryHeap<(u64, &str, u64)> = BinaryHeap::new();
        for &o in universe.iter().filter(|&&o| o != x) {
            *evals += 1;
            let hash = prefix.absorb(o).finish();
            if lowest.len() < self.k {
                lowest.push((hash, self.key(o), o));
            } else if let Some(mut top) = lowest.peek_mut().filter(|top| hash <= top.0) {
                let rank = (hash, self.key(o), o);
                if rank < *top {
                    *top = rank;
                }
            }
        }
        lowest.into_sorted_vec().into_iter().map(|r| r.2).collect()
    }
}
