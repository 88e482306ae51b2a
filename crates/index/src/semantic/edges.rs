//! The edge table: the index's primary state, one row per attempted pair.

use super::EdgeMeasurement;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Serialized form of one edge-table row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct EdgeRow {
    pub(crate) lo: u64,
    pub(crate) hi: u64,
    pub(crate) fwd: Option<f64>,
    pub(crate) rev: Option<f64>,
    pub(crate) seg_fwd: Option<f64>,
    pub(crate) seg_rev: Option<f64>,
}

pub(super) fn pair_key(a: u64, b: u64) -> (u64, u64) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The measured-pair table plus its adjacency view — the
/// reverse-reference map that makes removal `O(affected bucket)`: every
/// entry mentioning a fingerprint (directly, as donor, or as `via`) is a
/// neighbor in `adj`.
#[derive(Clone, Debug, Default)]
pub(super) struct EdgeTable {
    map: HashMap<(u64, u64), EdgeMeasurement>,
    adj: HashMap<u64, HashSet<u64>>,
}

impl EdgeTable {
    pub(super) fn insert(&mut self, k: (u64, u64), m: EdgeMeasurement) {
        if self.map.insert(k, m).is_none() {
            self.adj.entry(k.0).or_default().insert(k.1);
            self.adj.entry(k.1).or_default().insert(k.0);
        }
    }

    pub(super) fn remove(&mut self, k: &(u64, u64)) {
        if self.map.remove(k).is_some() {
            for (x, y) in [(k.0, k.1), (k.1, k.0)] {
                if let Some(s) = self.adj.get_mut(&x) {
                    s.remove(&y);
                    if s.is_empty() {
                        self.adj.remove(&x);
                    }
                }
            }
        }
    }

    /// The `(whole, segment)` diffs in the `from → to` direction.
    pub(super) fn directed(&self, from: u64, to: u64) -> Option<(Option<f64>, Option<f64>)> {
        let m = self.map.get(&pair_key(from, to))?;
        Some(if from < to {
            (m.fwd, m.seg_fwd)
        } else {
            (m.rev, m.seg_rev)
        })
    }

    /// Whether the pair was attempted, measured or found incomparable.
    pub(super) fn is_attempted(&self, a: u64, b: u64) -> bool {
        self.map.contains_key(&pair_key(a, b))
    }

    /// The fingerprints `fp` shares an attempted pair with.
    pub(super) fn neighbors(&self, fp: u64) -> impl Iterator<Item = u64> + '_ {
        self.adj.get(&fp).into_iter().flatten().copied()
    }

    /// One row per attempted pair, sorted by `(lo, hi)` fingerprint.
    pub(super) fn rows(&self) -> Vec<EdgeRow> {
        let mut rows: Vec<EdgeRow> = self
            .map
            .iter()
            .map(|(&(lo, hi), m)| EdgeRow {
                lo,
                hi,
                fwd: m.fwd,
                rev: m.rev,
                seg_fwd: m.seg_fwd,
                seg_rev: m.seg_rev,
            })
            .collect();
        rows.sort_by_key(|r| (r.lo, r.hi));
        rows
    }

    /// The table of `rows` as [`EdgeTable::rows`] writes them: refused
    /// unless each row has `lo < hi`, the rows strictly increase by
    /// `(lo, hi)`, and `is_entry` holds for both endpoints. A row that
    /// names no entry would panic the next `apply` that reaches it.
    pub(super) fn from_rows(
        rows: Vec<EdgeRow>,
        is_entry: impl Fn(u64) -> bool,
    ) -> Result<Self, String> {
        let mut t = EdgeTable::default();
        let mut last = None;
        for r in rows {
            let (lo, hi) = (r.lo, r.hi);
            if lo >= hi || last >= Some((lo, hi)) || !is_entry(lo) || !is_entry(hi) {
                return Err(format!(
                    "edge row ({lo}, {hi}) is out of order or names no entry"
                ));
            }
            last = Some((lo, hi));
            t.insert(
                (lo, hi),
                EdgeMeasurement {
                    fwd: r.fwd,
                    rev: r.rev,
                    seg_fwd: r.seg_fwd,
                    seg_rev: r.seg_rev,
                },
            );
        }
        Ok(t)
    }
}
