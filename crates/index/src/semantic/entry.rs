//! Entry derivation: one candidate list from the edge table.

use super::edges::EdgeTable;
use super::{CandidateKind, CandidateRecord, Entry, SemanticIndexConfig};
use sommelier_graph::Fingerprint;
use std::collections::HashMap;
use std::sync::Arc;

fn kind_rank(k: &CandidateKind) -> u8 {
    match k {
        CandidateKind::Whole => 0,
        CandidateKind::Transitive { .. } => 1,
        CandidateKind::Synthesized { .. } => 2,
    }
}

/// The canonical candidate order: best score first, then tighter bound,
/// then kind, then key — a total order over any legal record set, so the
/// derived lists are schedule-independent.
fn canonical_cmp(a: &CandidateRecord, b: &CandidateRecord) -> std::cmp::Ordering {
    b.score
        .total_cmp(&a.score)
        .then_with(|| a.diff_bound.total_cmp(&b.diff_bound))
        .then_with(|| kind_rank(&a.kind).cmp(&kind_rank(&b.kind)))
        .then_with(|| a.key.cmp(&b.key))
}

/// Derive one entry's candidate list from the edge table (see the module
/// docs for the canonical record rules).
pub(super) fn compute_entry(
    config: SemanticIndexConfig,
    entries: &HashMap<Fingerprint, Arc<Entry>>,
    edges: &EdgeTable,
    fp: u64,
) -> Entry {
    let key = entries[&Fingerprint(fp)].key.clone();
    let mut candidates: Vec<CandidateRecord> = Vec::new();
    for n in edges.neighbors(fp) {
        let nkey = &entries[&Fingerprint(n)].key;
        let (d, seg) = edges.directed(fp, n).expect("adjacent pair is measured");
        if let Some(d) = d {
            candidates.push(CandidateRecord::new(nkey.clone(), d, CandidateKind::Whole));
        }
        if config.segments {
            if let Some(seg) = seg {
                candidates.push(CandidateRecord::new(
                    format!("{key}+{nkey}"),
                    seg,
                    CandidateKind::Synthesized { donor: nkey.clone() },
                ));
            }
        }
    }
    // Transitive: tightest two-leg composition through measured legs, to
    // targets whose own pair with `fp` was never attempted (an attempted
    // pair — even an incomparable one — is never shadowed by a bound).
    let mut best: HashMap<u64, (f64, &str)> = HashMap::new();
    for y in edges.neighbors(fp) {
        let Some(d_xy) = edges.directed(fp, y).expect("adjacent pair is measured").0 else {
            continue;
        };
        let ykey: &str = &entries[&Fingerprint(y)].key;
        for z in edges.neighbors(y) {
            if z == fp || edges.is_attempted(fp, z) {
                continue;
            }
            let Some(d_yz) = edges.directed(y, z).expect("adjacent pair is measured").0 else {
                continue;
            };
            let cand = (d_xy + d_yz, ykey);
            best.entry(z)
                .and_modify(|cur| {
                    if cand.0 < cur.0 || (cand.0 == cur.0 && cand.1 < cur.1) {
                        *cur = cand;
                    }
                })
                .or_insert(cand);
        }
    }
    for (z, (bound, via)) in best {
        candidates.push(CandidateRecord::new(
            entries[&Fingerprint(z)].key.clone(),
            bound,
            CandidateKind::Transitive {
                via: via.to_string(),
            },
        ));
    }
    candidates.sort_by(canonical_cmp);
    candidates.truncate(config.max_candidates);
    Entry { key, candidates }
}
