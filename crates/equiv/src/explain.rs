//! Human-readable equivalence explanations.
//!
//! The paper positions Sommelier as "an explanation database for DNNs"
//! (Section 1): beyond a yes/no verdict, users want to see *why* two
//! models are (or are not) interchangeable. An [`Explanation`] assembles
//! the full evidence trail — the I/O check, the empirical difference, the
//! generalization term, and the matched segments with their per-segment
//! bounds — and renders it as a report.

use crate::assessment::assess_replacement;
use crate::iocheck::{check_io, IoCompat, IoDescriptor};
use crate::segment::MatchedSegment;
use crate::whole::{assess_whole, AssessError, EquivConfig, WholeModelReport};
use sommelier_graph::Model;
use sommelier_tensor::{Prng, Tensor};
use std::fmt;

/// One matched segment, summarized for reporting.
#[derive(Clone, Debug)]
pub struct SegmentEvidence {
    /// Operator tags along the host-side segment.
    pub signature: Vec<String>,
    /// The propagated output-difference bound.
    pub bound: f64,
    /// Whether the segment survived the progressive-removal refinement.
    pub kept: bool,
}

/// The assembled evidence for one (reference, candidate) pair.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// Reference model name.
    pub reference: String,
    /// Candidate model name.
    pub candidate: String,
    /// Outcome of the I/O type check.
    pub io: IoCompat,
    /// Whole-model report (absent when the I/O check failed).
    pub whole: Option<WholeModelReport>,
    /// Matched segments with bounds (absent when no structure matches).
    pub segments: Vec<SegmentEvidence>,
    /// Estimated QoR difference of the kept segment replacements.
    pub segment_qor_diff: Option<f64>,
}

impl Explanation {
    /// Whether any form of interchangeability (whole or segment) was
    /// certified under the configured threshold.
    pub fn interchangeable(&self) -> bool {
        self.whole.as_ref().map(|w| w.equivalent).unwrap_or(false)
            || self.segments.iter().any(|s| s.kept)
    }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "equivalence of '{}' w.r.t. '{}'", self.candidate, self.reference)?;
        match &self.io {
            IoCompat::Compatible => writeln!(f, "  i/o check:       compatible")?,
            IoCompat::Incompatible(reason) => {
                writeln!(f, "  i/o check:       INCOMPATIBLE ({reason})")?
            }
        }
        if let Some(w) = &self.whole {
            writeln!(f, "  empirical diff:  {:.4}", w.empirical_diff)?;
            writeln!(f, "  gen. term:       {:.4}", w.gen_term)?;
            writeln!(f, "  diff bound:      {:.4}", w.diff_bound)?;
            writeln!(f, "  equiv. score:    {:.4}", w.score)?;
            writeln!(
                f,
                "  whole-model:     {}",
                if w.equivalent { "equivalent" } else { "not equivalent" }
            )?;
        }
        if self.segments.is_empty() {
            writeln!(f, "  segments:        none matched")?;
        } else {
            writeln!(f, "  segments ({} matched):", self.segments.len())?;
            for s in &self.segments {
                writeln!(
                    f,
                    "    [{}] bound {:.4} — {}",
                    s.signature.join(" → "),
                    s.bound,
                    if s.kept { "replaceable" } else { "dropped" }
                )?;
            }
            if let Some(d) = self.segment_qor_diff {
                writeln!(f, "  segment QoR diff (kept set): {d:.4}")?;
            }
        }
        writeln!(
            f,
            "  verdict:         {}",
            if self.interchangeable() {
                "interchangeable"
            } else {
                "not interchangeable"
            }
        )
    }
}

/// Assemble the full explanation for a pair of models.
pub fn explain(
    reference: &Model,
    candidate: &Model,
    validation: &Tensor,
    config: &EquivConfig,
    segment_epsilon: f64,
    rng: &mut Prng,
) -> Explanation {
    let io = check_io(&IoDescriptor::of(reference), &IoDescriptor::of(candidate));
    let whole = match assess_whole(reference, candidate, validation, config) {
        Ok(report) => Some(report),
        Err(AssessError::Incompatible(_)) | Err(AssessError::Exec(_)) => None,
    };

    // Segment analysis runs in the reference-as-host direction (which
    // segments of the reference could be served by the candidate).
    let probe_rows = validation.rows().clamp(1, 16);
    let probe = {
        let rows: Vec<Tensor> = (0..probe_rows).map(|r| validation.row_tensor(r)).collect();
        Tensor::stack_rows(&rows)
    };
    let (segments, segment_qor_diff) =
        match assess_replacement(reference, candidate, &probe, segment_epsilon, rng) {
            Ok(assessment) if !assessment.segments.is_empty() => {
                let evidence = assessment
                    .segments
                    .iter()
                    .enumerate()
                    .map(|(i, seg)| SegmentEvidence {
                        signature: signature(reference, seg),
                        bound: assessment.bounds[i],
                        kept: assessment.kept.contains(&i),
                    })
                    .collect();
                (evidence, Some(assessment.qor_diff))
            }
            _ => (Vec::new(), None),
        };

    Explanation {
        reference: reference.name.clone(),
        candidate: candidate.name.clone(),
        io,
        whole,
        segments,
        segment_qor_diff,
    }
}

fn signature(model: &Model, seg: &MatchedSegment) -> Vec<String> {
    seg.host_layers
        .iter()
        .map(|id| model.layer(*id).op.type_tag())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_graph::TaskKind;
    use sommelier_zoo::finetune::perturb_all;
    use sommelier_zoo::teacher::{DatasetBias, Teacher};
    use sommelier_zoo::{BodyStyle, EmbedSpec};

    fn setup() -> (Model, Model, Tensor) {
        let teacher = Teacher::for_task(TaskKind::ImageRecognition, 77);
        let bias = DatasetBias::new(&teacher, "imagenet", 0.05);
        let mut rng = Prng::seed_from_u64(1);
        let m = sommelier_zoo::embed::embed_model(
            "reference",
            &teacher,
            &bias,
            &EmbedSpec {
                style: BodyStyle::Residual,
                body_width: 96,
                depth: 3,
                noise: 0.01,
            },
            &mut rng,
        );
        let mut vrng = Prng::seed_from_u64(2);
        let variant = perturb_all(&m, 0.03, &mut vrng).renamed("variant");
        let x = Tensor::gaussian(128, m.input_width(), 1.0, &mut rng);
        (m, variant, x)
    }

    #[test]
    fn close_models_are_explained_as_interchangeable() {
        let (reference, candidate, x) = setup();
        let mut rng = Prng::seed_from_u64(3);
        let cfg = EquivConfig {
            epsilon: 0.3,
            ..EquivConfig::default()
        };
        let e = explain(&reference, &candidate, &x, &cfg, 0.3, &mut rng);
        assert!(matches!(e.io, IoCompat::Compatible));
        assert!(e.whole.is_some());
        assert!(!e.segments.is_empty());
        assert!(e.interchangeable());
        let text = e.to_string();
        assert!(text.contains("equiv. score"));
        assert!(text.contains("interchangeable"));
        assert!(text.contains("segments ("));
    }

    #[test]
    fn incompatible_pair_is_explained_without_whole_report() {
        let (reference, _, x) = setup();
        let mut rng = Prng::seed_from_u64(4);
        let other = sommelier_graph::ModelBuilder::new(
            "alien",
            TaskKind::ImageRecognition,
            sommelier_tensor::Shape::vector(10),
        )
        .dense(4, &mut rng)
        .softmax()
        .build()
        .unwrap();
        let e = explain(
            &reference,
            &other,
            &x,
            &EquivConfig::default(),
            0.2,
            &mut rng,
        );
        assert!(matches!(e.io, IoCompat::Incompatible(_)));
        assert!(e.whole.is_none());
        assert!(!e.interchangeable());
        assert!(e.to_string().contains("INCOMPATIBLE"));
    }

    #[test]
    fn display_reports_dropped_segments() {
        let (reference, _, x) = setup();
        // A wildly different variant: segments match structurally but
        // cannot be kept under a tight epsilon.
        let mut vrng = Prng::seed_from_u64(9);
        let far = perturb_all(&reference, 2.0, &mut vrng).renamed("far");
        let mut rng = Prng::seed_from_u64(5);
        let e = explain(
            &reference,
            &far,
            &x,
            &EquivConfig {
                epsilon: 0.02,
                ..EquivConfig::default()
            },
            0.02,
            &mut rng,
        );
        assert!(!e.segments.is_empty());
        let text = e.to_string();
        assert!(text.contains("dropped") || text.contains("not interchangeable"));
    }
}
