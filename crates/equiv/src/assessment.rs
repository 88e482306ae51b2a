//! Completing the segment-equivalence assessment (paper Section 4.2,
//! steps i–iii) and performing actual segment replacement.
//!
//! Having matched segments and bounded each pair's output difference, the
//! remaining question is: *how much does replacing these segments hurt the
//! host model's end-to-end QoR?* The paper's procedure:
//!
//! 1. feed inputs to the host and record each segment's output and the
//!    final output;
//! 2. perturb each segment's output with Gaussian noise scaled to its
//!    difference bound (random noise is the worst case — it biases toward
//!    no particular scenario) and re-run the rest of the model;
//! 3. if the estimated QoR difference exceeds ε, drop segments in order of
//!    increasing computational complexity and repeat.
//!
//! [`replace_segments`] then performs the real splice, used both by the
//! semantic index (synthesized models, Section 5.2) and the Figure 10
//! experiments.

use crate::propagation::segment_diff_bound_traced;
use crate::segment::{find_matched_segments, MatchedSegment};
use sommelier_graph::{Model, OpKind};
use sommelier_runtime::metrics::qor_difference;
use sommelier_runtime::{execute_traced, executor::execute_with_overrides, ExecError};
use sommelier_tensor::{Prng, Tensor};

/// Result of assessing donor-segment replacement into a host model.
#[derive(Clone, Debug)]
pub struct ReplacementAssessment {
    /// All structurally matched segments, longest first.
    pub segments: Vec<MatchedSegment>,
    /// Per-segment output-difference bounds (aligned with `segments`).
    pub bounds: Vec<f64>,
    /// Indices (into `segments`) retained after progressive removal.
    pub kept: Vec<usize>,
    /// Estimated end-to-end QoR difference with the kept replacements.
    pub qor_diff: f64,
    /// Whether a non-empty replacement set meets the threshold.
    pub equivalent: bool,
}

/// Assess how interchangeable `donor`'s common segments are inside `host`.
///
/// `inputs` is a probe batch (a modest sample suffices; noise injection is
/// repeated per row). `epsilon` is the acceptable QoR difference.
pub fn assess_replacement(
    host: &Model,
    donor: &Model,
    inputs: &Tensor,
    epsilon: f64,
    rng: &mut Prng,
) -> Result<ReplacementAssessment, ExecError> {
    let segments = find_matched_segments(host, donor, 2);
    if segments.is_empty() {
        return Ok(ReplacementAssessment {
            segments,
            bounds: Vec::new(),
            kept: Vec::new(),
            qor_diff: 0.0,
            equivalent: false,
        });
    }

    // Step i: trace the host to get segment entry norms and baseline
    // outputs.
    let trace = execute_traced(host, inputs)?;
    let baseline = trace.last().expect("non-empty model").clone();

    // Bounds use the *measured* activation magnitudes and weight-difference
    // injections of the host trace — sound on the probe and far tighter
    // than analytic worst-case propagation over deep segments.
    let bounds: Vec<f64> = segments
        .iter()
        .map(|s| segment_diff_bound_traced(host, donor, s, &trace))
        .collect();

    // Step ii/iii: estimate QoR difference with all segments replaced;
    // drop the cheapest segments until within ε.
    let mut kept: Vec<usize> = (0..segments.len()).collect();
    let style = host.task.output_style();
    let mut qor_diff;
    loop {
        let overrides: Vec<_> = kept
            .iter()
            .map(|&i| {
                let seg = &segments[i];
                let tail = seg.host_tail();
                let clean = &trace[tail.index()];
                // Gaussian noise with expected vector norm equal to the
                // segment's bound: per-element std = bound / √width.
                let width = clean.cols().max(1);
                let std = bounds[i] / (width as f64).sqrt();
                let noise = Tensor::gaussian(clean.rows(), clean.cols(), std, rng);
                (tail, clean.zip_with(&noise, |a, b| a + b))
            })
            .collect();
        let perturbed = execute_with_overrides(host, inputs, &overrides)?;
        qor_diff = qor_difference(style, &baseline, &perturbed);
        if qor_diff <= epsilon || kept.is_empty() {
            break;
        }
        // Remove the segment with the smallest computational complexity —
        // the least valuable replacement (Section 4.2 step iii).
        let (drop_pos, _) = kept
            .iter()
            .enumerate()
            .min_by_key(|(_, &i)| segments[i].host_flops(host))
            .expect("kept is non-empty");
        kept.remove(drop_pos);
        if kept.is_empty() {
            // No replaceable set meets the threshold; report the empty
            // set's (zero) difference.
            qor_diff = 0.0;
            break;
        }
    }

    let equivalent = !kept.is_empty() && qor_diff <= epsilon;
    Ok(ReplacementAssessment {
        segments,
        bounds,
        kept,
        qor_diff,
        equivalent,
    })
}

/// The estimated end-to-end QoR difference of replacing the given
/// aligned segments (steps i–ii of Section 4.2 without the
/// progressive-removal refinement) — e.g. a transfer's known shared
/// base, rather than whatever the structural matcher finds. This is the
/// raw quantity behind the Figure 10 "bound" curve: `1 − diff`
/// lower-bounds the relative QoR of the segment-replaced model.
pub fn estimate_replacement_diff_for(
    host: &Model,
    donor: &Model,
    segments: &[MatchedSegment],
    inputs: &Tensor,
    rng: &mut Prng,
) -> Result<f64, ExecError> {
    let trace = execute_traced(host, inputs)?;
    let baseline = trace.last().expect("non-empty model").clone();
    let overrides: Vec<_> = segments
        .iter()
        .map(|seg| {
            let bound = segment_diff_bound_traced(host, donor, seg, &trace);
            let tail = seg.host_tail();
            let clean = &trace[tail.index()];
            let width = clean.cols().max(1);
            let std = bound / (width as f64).sqrt();
            let noise = Tensor::gaussian(clean.rows(), clean.cols(), std, rng);
            (tail, clean.zip_with(&noise, |a, b| a + b))
        })
        .collect();
    let perturbed = execute_with_overrides(host, inputs, &overrides)?;
    Ok(qor_difference(
        host.task.output_style(),
        &baseline,
        &perturbed,
    ))
}

/// Splice the donor's parameters into the host along the given matched
/// segments, producing the *synthesized* model of paper Section 5.2
/// ("a model Mₙ′ synthesized from Mₙ by replacing Sₙ with S₁").
pub fn replace_segments(host: &Model, donor: &Model, segments: &[&MatchedSegment]) -> Model {
    let mut out = host.clone();
    for seg in segments {
        for (h, d) in seg.host_layers.iter().zip(&seg.donor_layers) {
            if host.layer(*h).op.kind() != OpKind::Linear {
                continue;
            }
            out.set_params(*h, donor.layer(*d).params.clone())
                .expect("matched segments are shape-compatible");
        }
    }
    out.version = format!("{}+spliced", host.version);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_graph::TaskKind;
    use sommelier_runtime::execute;
    use sommelier_runtime::metrics::top1_accuracy;
    use sommelier_zoo::teacher::{DatasetBias, Teacher};
    use sommelier_zoo::{BodyStyle, EmbedSpec};

    fn make(noise: f64, seed: u64) -> Model {
        let teacher = Teacher::for_task(TaskKind::ImageRecognition, 31);
        let bias = DatasetBias::new(&teacher, "imagenet", 0.05);
        let mut rng = Prng::seed_from_u64(seed);
        sommelier_zoo::embed::embed_model(
            format!("m{seed}"),
            &teacher,
            &bias,
            &EmbedSpec {
                style: BodyStyle::Plain,
                body_width: 96,
                depth: 3,
                noise,
            },
            &mut rng,
        )
    }

    fn probe(n: usize) -> Tensor {
        let mut rng = Prng::seed_from_u64(2);
        Tensor::gaussian(n, 192, 1.0, &mut rng)
    }

    #[test]
    fn close_models_have_acceptable_replacements() {
        let host = make(0.01, 1);
        let donor = make(0.01, 2);
        let mut rng = Prng::seed_from_u64(3);
        let r = assess_replacement(&host, &donor, &probe(24), 0.25, &mut rng).unwrap();
        assert!(!r.segments.is_empty());
        assert!(r.equivalent, "qor_diff = {}", r.qor_diff);
        assert!(!r.kept.is_empty());
    }

    #[test]
    fn divergent_models_lose_segments_or_fail() {
        let host = make(0.01, 1);
        let donor = make(2.0, 2); // wildly different weights
        let mut rng = Prng::seed_from_u64(3);
        let r = assess_replacement(&host, &donor, &probe(24), 0.02, &mut rng).unwrap();
        // Under a tight ε the full replacement cannot survive.
        assert!(
            r.kept.len() < r.segments.len() || !r.equivalent,
            "kept {} of {}",
            r.kept.len(),
            r.segments.len()
        );
    }

    #[test]
    fn bounds_align_with_segments() {
        let host = make(0.02, 1);
        let donor = make(0.02, 4);
        let mut rng = Prng::seed_from_u64(5);
        let r = assess_replacement(&host, &donor, &probe(16), 0.5, &mut rng).unwrap();
        assert_eq!(r.segments.len(), r.bounds.len());
        assert!(r.bounds.iter().all(|b| b.is_finite() && *b >= 0.0));
    }

    #[test]
    fn unrelated_structures_yield_no_segments() {
        let host = make(0.01, 1);
        let mut rng = Prng::seed_from_u64(9);
        let other = sommelier_graph::ModelBuilder::new(
            "alien",
            TaskKind::ImageRecognition,
            sommelier_tensor::Shape::vector(192),
        )
        .dense(7, &mut rng)
        .softmax()
        .build()
        .unwrap();
        let r = assess_replacement(&host, &other, &probe(8), 0.5, &mut rng).unwrap();
        assert!(r.segments.is_empty());
        assert!(!r.equivalent);
    }

    #[test]
    fn replacement_splice_preserves_function_for_close_donors() {
        let teacher = Teacher::for_task(TaskKind::ImageRecognition, 31);
        let host = make(0.01, 1);
        let donor = make(0.01, 2);
        let mut rng = Prng::seed_from_u64(6);
        let x = probe(200);
        let labels = teacher.labels(&x);
        let r = assess_replacement(&host, &donor, &probe(16), 0.3, &mut rng).unwrap();
        let kept: Vec<&MatchedSegment> = r.kept.iter().map(|&i| &r.segments[i]).collect();
        let spliced = replace_segments(&host, &donor, &kept);
        let acc_host = top1_accuracy(&execute(&host, &x).unwrap(), &labels);
        let acc_spliced = top1_accuracy(&execute(&spliced, &x).unwrap(), &labels);
        assert!(
            (acc_host - acc_spliced).abs() < 0.25,
            "splice degraded too much: {acc_host} → {acc_spliced}"
        );
        assert!(spliced.version.contains("spliced"));
    }

    #[test]
    fn splice_actually_copies_donor_weights() {
        let host = make(0.05, 1);
        let donor = make(0.05, 2);
        let segs = find_matched_segments(&host, &donor, 2);
        assert!(!segs.is_empty());
        let seg_refs: Vec<&MatchedSegment> = segs.iter().collect();
        let spliced = replace_segments(&host, &donor, &seg_refs);
        let mut copied = 0;
        for seg in &segs {
            for (h, d) in seg.host_layers.iter().zip(&seg.donor_layers) {
                if host.layer(*h).op.kind() == OpKind::Linear {
                    assert_eq!(spliced.layer(*h).params, donor.layer(*d).params);
                    copied += 1;
                }
            }
        }
        assert!(copied > 0);
    }
}
