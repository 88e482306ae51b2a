//! Extraction of structurally identical model segments (paper Section 4.2).
//!
//! Optimal common-subgraph detection is NP-hard, so Sommelier exploits the
//! mostly sequential structure of DNNs: decompose each DAG into maximal
//! operator chains (`sommelier-graph::chains`, the recursive extraction of
//! Figure 4), then find the longest common *contiguous* operator runs
//! between the two chain sets with an `O(N²)` dynamic program. A match
//! must be layer-wise structurally identical — operator type, geometry,
//! and tensor widths — and contain at least one parameter-carrying layer
//! (otherwise replacement is a no-op).

use sommelier_graph::chains::extract_chains;
use sommelier_graph::{LayerId, Model, OpKind};
use serde::{Deserialize, Serialize};

/// Longest segment reported as a single match; longer common runs are
/// split into consecutive pieces of at most this many layers.
pub const MAX_SEGMENT_LEN: usize = 6;

/// A pair of structurally identical segments: `host_layers` in the host
/// model and `donor_layers` in the donor model, position-aligned.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatchedSegment {
    /// Layers of the segment within the host model, in execution order.
    pub host_layers: Vec<LayerId>,
    /// The donor model's counterpart layers, position-aligned with
    /// `host_layers`.
    pub donor_layers: Vec<LayerId>,
}

impl MatchedSegment {
    /// Number of layers in the segment.
    pub fn len(&self) -> usize {
        self.host_layers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.host_layers.is_empty()
    }

    /// Total FLOPs of the host-side segment — the "computational
    /// complexity" ordering used when progressively removing segments
    /// (Section 4.2, step iii).
    pub fn host_flops(&self, host: &Model) -> u64 {
        self.host_layers
            .iter()
            .map(|&id| sommelier_graph::cost::layer_cost_in(host, id).flops)
            .sum()
    }

    /// The last (output) layer of the host-side segment.
    pub fn host_tail(&self) -> LayerId {
        *self.host_layers.last().expect("segments are non-empty")
    }
}

/// Whether two layers are structurally identical in their model contexts:
/// same operator tag (type + geometry) and same input/output widths.
fn layers_match(a: &Model, ida: LayerId, b: &Model, idb: LayerId) -> bool {
    let la = a.layer(ida);
    let lb = b.layer(idb);
    if la.op.type_tag() != lb.op.type_tag() {
        return false;
    }
    if a.width_of(ida) != b.width_of(idb) {
        return false;
    }
    let wa: Vec<usize> = la.inputs.iter().map(|i| a.width_of(*i)).collect();
    let wb: Vec<usize> = lb.inputs.iter().map(|i| b.width_of(*i)).collect();
    wa == wb
}

/// Find structurally identical segments between `host` and `donor`.
///
/// Returns non-overlapping matches (greedy longest-first on both sides) of
/// at least `min_len` layers containing at least one linear layer, sorted
/// by descending length.
pub fn find_matched_segments(host: &Model, donor: &Model, min_len: usize) -> Vec<MatchedSegment> {
    let host_chains = extract_chains(host, 1);
    let donor_chains = extract_chains(donor, 1);

    // All maximal common runs across all chain pairs.
    let mut candidates: Vec<MatchedSegment> = Vec::new();
    for hc in &host_chains {
        for dc in &donor_chains {
            // O(|hc|·|dc|) DP over common-suffix lengths.
            let n = hc.layers.len();
            let m = dc.layers.len();
            let mut run = vec![vec![0usize; m + 1]; n + 1];
            for i in 1..=n {
                for j in 1..=m {
                    if layers_match(host, hc.layers[i - 1], donor, dc.layers[j - 1]) {
                        run[i][j] = run[i - 1][j - 1] + 1;
                    }
                }
            }
            // Collect maximal runs (cells whose run is not extended).
            for i in 1..=n {
                for j in 1..=m {
                    let len = run[i][j];
                    if len == 0 {
                        continue;
                    }
                    let extends = i < n && j < m && run[i + 1][j + 1] > len;
                    if extends || len < min_len {
                        continue;
                    }
                    // Long runs are split into pieces of at most
                    // MAX_SEGMENT_LEN so the progressive segment-removal
                    // refinement (Section 4.2 step iii) has granularity —
                    // a fully sequential model would otherwise match as
                    // one monolithic all-or-nothing segment.
                    let mut start = 0usize;
                    while start < len {
                        let piece = (len - start).min(MAX_SEGMENT_LEN);
                        if piece < min_len && start > 0 {
                            break; // leftover shorter than min_len
                        }
                        let host_layers: Vec<LayerId> =
                            hc.layers[i - len + start..i - len + start + piece].to_vec();
                        let donor_layers: Vec<LayerId> =
                            dc.layers[j - len + start..j - len + start + piece].to_vec();
                        let has_linear = host_layers
                            .iter()
                            .any(|&id| host.layer(id).op.kind() == OpKind::Linear);
                        if has_linear {
                            candidates.push(MatchedSegment {
                                host_layers,
                                donor_layers,
                            });
                        }
                        start += piece;
                    }
                }
            }
        }
    }

    // Greedy longest-first selection of non-overlapping segments (each
    // layer of either model belongs to at most one accepted match).
    candidates.sort_by(|a, b| {
        b.len()
            .cmp(&a.len())
            .then_with(|| a.host_layers[0].cmp(&b.host_layers[0]))
            .then_with(|| a.donor_layers[0].cmp(&b.donor_layers[0]))
    });
    let mut host_used = vec![false; host.num_layers()];
    let mut donor_used = vec![false; donor.num_layers()];
    let mut accepted = Vec::new();
    for cand in candidates {
        let clash = cand
            .host_layers
            .iter()
            .any(|id| host_used[id.index()])
            || cand
                .donor_layers
                .iter()
                .any(|id| donor_used[id.index()]);
        if clash {
            continue;
        }
        for id in &cand.host_layers {
            host_used[id.index()] = true;
        }
        for id in &cand.donor_layers {
            donor_used[id.index()] = true;
        }
        accepted.push(cand);
    }
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_graph::{ModelBuilder, TaskKind};
    use sommelier_tensor::{Prng, Shape};

    fn rng(seed: u64) -> Prng {
        Prng::seed_from_u64(seed)
    }

    fn mlp(widths: &[usize], input: usize, seed: u64) -> Model {
        let mut r = rng(seed);
        let mut b = ModelBuilder::new("m", TaskKind::Other, Shape::vector(input));
        for &w in widths {
            b.dense(w, &mut r).relu();
        }
        b.build().unwrap()
    }

    #[test]
    fn identical_structures_match_fully() {
        let a = mlp(&[16, 16, 8], 32, 1);
        let b = mlp(&[16, 16, 8], 32, 2); // same shape, different weights
        let segs = find_matched_segments(&a, &b, 2);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].len(), 6); // 3 × (dense, relu)
    }

    #[test]
    fn partial_overlap_matches_common_prefix() {
        let a = mlp(&[16, 16, 8], 32, 1);
        let b = mlp(&[16, 16, 4], 32, 2); // diverges at the last dense
        let segs = find_matched_segments(&a, &b, 2);
        assert_eq!(segs.len(), 1);
        // dense16, relu, dense16, relu (+ trailing relu of dense:4? no —
        // the dense:8 vs dense:4 tags differ, and the final relus differ
        // in width).
        assert_eq!(segs[0].len(), 4);
    }

    #[test]
    fn width_mismatch_blocks_matching() {
        let a = mlp(&[16, 8], 32, 1);
        let b = mlp(&[12, 8], 32, 2);
        let segs = find_matched_segments(&a, &b, 2);
        // dense:8+relu in b is fed by width 12, in a by width 16 → the
        // dense tag "dense:8" matches but input widths differ.
        assert!(segs.is_empty(), "{segs:?}");
    }

    #[test]
    fn pure_activation_runs_are_ignored() {
        let mut ra = rng(1);
        let mut rb = rng(2);
        let a = ModelBuilder::new("a", TaskKind::Other, Shape::vector(8))
            .dense(8, &mut ra)
            .relu()
            .tanh()
            .build()
            .unwrap();
        let b = ModelBuilder::new("b", TaskKind::Other, Shape::vector(8))
            .dense(4, &mut rb) // different linear layer
            .relu()
            .tanh()
            .build()
            .unwrap();
        // relu+tanh alone carries no parameters → no useful match.
        let segs = find_matched_segments(&a, &b, 2);
        assert!(segs.is_empty());
    }

    #[test]
    fn residual_models_match_block_wise() {
        let build = |seed: u64| {
            let mut r = rng(seed);
            ModelBuilder::new("m", TaskKind::Other, Shape::vector(16))
                .residual_block(&mut r)
                .residual_block(&mut r)
                .build()
                .unwrap()
        };
        let a = build(1);
        let b = build(2);
        let segs = find_matched_segments(&a, &b, 2);
        assert!(!segs.is_empty());
        // Every match must be non-overlapping within each model.
        let mut seen = std::collections::BTreeSet::new();
        for s in &segs {
            for id in &s.host_layers {
                assert!(seen.insert(id.index()));
            }
        }
    }

    #[test]
    fn matches_are_position_aligned() {
        let a = mlp(&[16, 8], 32, 1);
        let b = mlp(&[16, 8], 32, 2);
        let segs = find_matched_segments(&a, &b, 2);
        for s in &segs {
            assert_eq!(s.host_layers.len(), s.donor_layers.len());
            for (ha, hb) in s.host_layers.iter().zip(&s.donor_layers) {
                assert_eq!(
                    a.layer(*ha).op.type_tag(),
                    b.layer(*hb).op.type_tag()
                );
            }
        }
    }

    #[test]
    fn min_len_is_respected() {
        let a = mlp(&[16], 32, 1);
        let b = mlp(&[16], 32, 2);
        assert!(!find_matched_segments(&a, &b, 2).is_empty()); // dense+relu = 2
        assert!(find_matched_segments(&a, &b, 3).is_empty());
    }

    #[test]
    fn recurrent_cells_match_as_segments() {
        // "Each recurrent operator itself can be treated as a model
        // segment" (paper Section 4.2): two unrolled RNNs with the same
        // geometry but different weights share matched segments covering
        // their cells.
        let build = |seed: u64| {
            let mut r = rng(seed);
            ModelBuilder::new("rnn", TaskKind::Other, Shape::vector(8))
                .unrolled_rnn(2, &mut r)
                .build()
                .unwrap()
        };
        let a = build(1);
        let b = build(2);
        let segs = find_matched_segments(&a, &b, 2);
        assert!(!segs.is_empty(), "recurrent compositions must match");
        // The matched cell segment spans the recurrent composition's core
        // (the add → tanh → dense chain of the cell) and carries weights.
        let covered: usize = segs.iter().map(MatchedSegment::len).sum();
        assert!(covered >= 3, "cells should be covered, got {covered}");
        assert!(segs.iter().any(|s| s
            .host_layers
            .iter()
            .any(|id| a.layer(*id).op.has_params())));
    }

    #[test]
    fn scale_layers_participate_in_matching() {
        let build = |seed: u64| {
            let mut r = rng(seed);
            ModelBuilder::new("m", TaskKind::Other, Shape::vector(8))
                .dense(8, &mut r)
                .scale(0.01, &mut r)
                .relu()
                .build()
                .unwrap()
        };
        let a = build(1);
        let b = build(2);
        let segs = find_matched_segments(&a, &b, 2);
        assert_eq!(segs.len(), 1);
        assert!(segs[0]
            .host_layers
            .iter()
            .any(|id| a.layer(*id).op.type_tag() == "scale"));
    }

    #[test]
    fn flops_ordering_prefers_wider_segments() {
        let a = mlp(&[64, 8], 128, 1);
        let b = mlp(&[64, 8], 128, 2);
        let segs = find_matched_segments(&a, &b, 2);
        assert_eq!(segs.len(), 1);
        assert!(segs[0].host_flops(&a) > 0);
    }
}
