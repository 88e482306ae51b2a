//! Whole-model equivalence assessment (paper Section 4.1).
//!
//! Three phases, mirroring a compiler's type-check → value-check →
//! refinement: (1) the I/O layer check, (2) an empirical QoR difference on
//! a validation set, (3) refinement with the generalization error bound to
//! obtain a dataset-independent QoR difference bound, compared against the
//! user's threshold ε.
//!
//! The resulting metric is deliberately *asymmetric* (Section 4.3): the
//! regression-style QoR difference normalizes by the *reference* model's
//! output scale, so swapping reference and candidate can change the score.

use crate::genbound::{factor_term, layer_norms, traced_factor, GenBoundConfig, LayerNorms};
use crate::iocheck::{check_io, IoCompat, IoDescriptor};
use sommelier_graph::task::OutputStyle;
use sommelier_graph::{LayerId, Model};
use sommelier_runtime::metrics::qor_difference;
use sommelier_runtime::{execute_traced, ExecError};
use sommelier_tensor::Tensor;

/// Whether and how to run the generalization-bound refinement — the
/// on/off/custom knob of paper Section 5.5 (custom = caller supplies its
/// own probe dataset when invoking [`assess_whole`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GenBoundMode {
    /// Refine the empirical difference with the bound.
    On(GenBoundConfig),
    /// Report the raw empirical difference (testing-only mode; this is
    /// what the Figure 11 comparison calls "testing-only Sommelier").
    Off,
}

/// Configuration for whole-model assessment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EquivConfig {
    /// Equivalence threshold ε on the QoR difference bound.
    pub epsilon: f64,
    /// Generalization-bound mode.
    pub genbound: GenBoundMode,
}

impl Default for EquivConfig {
    fn default() -> Self {
        EquivConfig {
            epsilon: 0.05,
            genbound: GenBoundMode::On(GenBoundConfig::default()),
        }
    }
}

/// Outcome of a whole-model assessment.
#[derive(Clone, Debug)]
pub struct WholeModelReport {
    /// Empirical QoR difference on the validation set (disagreement ratio
    /// for classification, normalized mean l2 for regression).
    pub empirical_diff: f64,
    /// Generalization term added to make the difference dataset-
    /// independent (0 when the bound is off).
    pub gen_term: f64,
    /// The dataset-independent QoR difference bound.
    pub diff_bound: f64,
    /// Functional-equivalence score `max(0, 1 − diff_bound)` — the value
    /// stored in the semantic index's candidate lists.
    pub score: f64,
    /// Whether the bound is within the configured ε.
    pub equivalent: bool,
}

/// Failures of whole-model assessment.
#[derive(Clone, Debug, PartialEq)]
pub enum AssessError {
    /// The I/O check rejected the pair.
    Incompatible(String),
    /// A model failed to execute on the validation inputs.
    Exec(ExecError),
}

impl std::fmt::Display for AssessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssessError::Incompatible(s) => write!(f, "models are incomparable: {s}"),
            AssessError::Exec(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for AssessError {}

impl From<ExecError> for AssessError {
    fn from(e: ExecError) -> Self {
        AssessError::Exec(e)
    }
}

/// One model's side of whole-model assessment, from one traced pass over
/// the validation batch: its outputs and, with the bound on, its
/// architecture factor. A pure function of the model and the batch, so an
/// indexer can keep one per model and [`compose`] any two of them.
#[derive(Clone, Debug)]
pub struct ProbeOutput {
    /// The model's outputs on the validation batch.
    pub outputs: Tensor,
    /// The bound's architecture factor
    /// ([`crate::genbound::architecture_factor`]); `None` with the bound
    /// off.
    pub factor: Option<f64>,
}

/// Run `model` once over `validation`: the outputs, and the architecture
/// factor read off the same trace. The factor takes each linear layer's
/// norms from `norms`: [`layer_norms`] computes them, and a caller that
/// probes many models can pass a memo of it instead.
pub fn probe_model(
    model: &Model,
    validation: &Tensor,
    genbound: &GenBoundMode,
    norms: impl FnMut(&Model, LayerId) -> LayerNorms,
) -> Result<ProbeOutput, ExecError> {
    let mut trace = execute_traced(model, validation)?;
    let factor = match genbound {
        GenBoundMode::Off => None,
        GenBoundMode::On(gb) => Some(traced_factor(model, &trace, gb, norms)),
    };
    let outputs = trace.pop().expect("a trace holds one activation per layer");
    Ok(ProbeOutput { outputs, factor })
}

/// The report of `candidate` with respect to `reference` from their probe
/// outputs on one validation batch. `style` is the reference's QoR style;
/// the batch's row count is the `n` of the bound.
pub fn compose(
    style: OutputStyle,
    reference: &ProbeOutput,
    candidate: &ProbeOutput,
    config: &EquivConfig,
) -> WholeModelReport {
    let empirical_diff = qor_difference(style, &reference.outputs, &candidate.outputs);
    let gen_term = match &config.genbound {
        GenBoundMode::Off => 0.0,
        GenBoundMode::On(gb) => {
            let n = reference.outputs.rows().max(1);
            // The estimation error of the empirical difference has a
            // contribution from each model's generalization gap; we charge
            // the average of the two architectural terms.
            let term =
                |p: &ProbeOutput| factor_term(p.factor.expect("probed with the bound on"), n, gb);
            0.5 * (term(reference) + term(candidate))
        }
    };
    let diff_bound = empirical_diff + gen_term;
    WholeModelReport {
        empirical_diff,
        gen_term,
        diff_bound,
        score: (1.0 - diff_bound).max(0.0),
        equivalent: diff_bound <= config.epsilon,
    }
}

/// Assess the functional equivalence of `candidate` with respect to
/// `reference` on a validation set.
///
/// `validation` is the `[n, input_width]` input batch; `n` (used in the
/// generalization bound) is its row count. The QoR style is taken from the
/// *reference* model's task.
pub fn assess_whole(
    reference: &Model,
    candidate: &Model,
    validation: &Tensor,
    config: &EquivConfig,
) -> Result<WholeModelReport, AssessError> {
    if let IoCompat::Incompatible(reason) =
        check_io(&IoDescriptor::of(reference), &IoDescriptor::of(candidate))
    {
        return Err(AssessError::Incompatible(reason));
    }
    let ref_probe = probe_model(reference, validation, &config.genbound, layer_norms)?;
    let cand_probe = probe_model(candidate, validation, &config.genbound, layer_norms)?;
    Ok(compose(
        reference.task.output_style(),
        &ref_probe,
        &cand_probe,
        config,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_graph::TaskKind;
    use sommelier_tensor::Prng;
    use sommelier_zoo::finetune::perturb_all;
    use sommelier_zoo::teacher::{DatasetBias, Teacher};
    use sommelier_zoo::{BodyStyle, EmbedSpec};

    fn setup() -> (Model, Tensor) {
        let teacher = Teacher::for_task(TaskKind::ImageRecognition, 21);
        let bias = DatasetBias::new(&teacher, "imagenet", 0.05);
        let mut rng = Prng::seed_from_u64(1);
        let m = sommelier_zoo::embed::embed_model(
            "ref",
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
        let x = Tensor::gaussian(256, teacher.spec.input_width, 1.0, &mut rng);
        (m, x)
    }

    #[test]
    fn self_assessment_is_equivalent_with_zero_empirical_diff() {
        let (m, x) = setup();
        let cfg = EquivConfig {
            epsilon: 0.15,
            ..EquivConfig::default()
        };
        let report = assess_whole(&m, &m, &x, &cfg).unwrap();
        assert_eq!(report.empirical_diff, 0.0);
        assert!(report.gen_term > 0.0);
        // With a 256-row validation set the concentration floor alone is
        // ~0.094, so a 15% threshold certifies a model against itself.
        assert!(report.equivalent, "bound {}", report.diff_bound);
    }

    #[test]
    fn light_finetune_stays_equivalent_heavy_does_not() {
        let (m, x) = setup();
        let mut rng = Prng::seed_from_u64(2);
        let light = perturb_all(&m, 0.01, &mut rng);
        let heavy = perturb_all(&m, 1.5, &mut rng);
        let cfg = EquivConfig {
            epsilon: 0.20,
            ..EquivConfig::default()
        };
        let rl = assess_whole(&m, &light, &x, &cfg).unwrap();
        let rh = assess_whole(&m, &heavy, &x, &cfg).unwrap();
        assert!(rl.equivalent, "light diff bound {}", rl.diff_bound);
        assert!(!rh.equivalent, "heavy diff bound {}", rh.diff_bound);
        assert!(rh.empirical_diff > rl.empirical_diff);
    }

    #[test]
    fn disabling_the_bound_drops_the_term() {
        let (m, x) = setup();
        let mut rng = Prng::seed_from_u64(3);
        let v = perturb_all(&m, 0.05, &mut rng);
        let with = assess_whole(&m, &v, &x, &EquivConfig::default()).unwrap();
        let without = assess_whole(
            &m,
            &v,
            &x,
            &EquivConfig {
                epsilon: 0.05,
                genbound: GenBoundMode::Off,
            },
        )
        .unwrap();
        assert_eq!(without.gen_term, 0.0);
        assert!(with.diff_bound > without.diff_bound);
        assert_eq!(with.empirical_diff, without.empirical_diff);
    }

    #[test]
    fn incompatible_models_are_rejected_before_execution() {
        let (m, x) = setup();
        let mut rng = Prng::seed_from_u64(4);
        let other = sommelier_graph::ModelBuilder::new(
            "tiny",
            TaskKind::ImageRecognition,
            sommelier_tensor::Shape::vector(10),
        )
        .dense(4, &mut rng)
        .softmax()
        .build()
        .unwrap();
        let err = assess_whole(&m, &other, &x, &EquivConfig::default()).unwrap_err();
        assert!(matches!(err, AssessError::Incompatible(_)));
    }

    #[test]
    fn score_is_one_minus_bound_clamped() {
        let (m, x) = setup();
        let mut rng = Prng::seed_from_u64(5);
        let v = perturb_all(&m, 0.05, &mut rng);
        let r = assess_whole(&m, &v, &x, &EquivConfig::default()).unwrap();
        assert!((r.score - (1.0 - r.diff_bound)).abs() < 1e-12);
        assert!(r.score >= 0.0 && r.score <= 1.0);
    }
}
