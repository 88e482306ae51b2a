//! Model-graph lints (`SOM001`–`SOM006`, `SOM081`).
//!
//! Everything here is derived from the stored graph alone — no weights
//! are ever multiplied. The checks mirror what a careful reviewer would
//! notice in a model card: computation that cannot influence the output,
//! layers that destroy the information the rest of the network needs,
//! operator sequences that collapse to a no-op, cost profiles that do
//! not fit the family the model claims to belong to, and weights that
//! are all zero or not finite.

use crate::diagnostics::{codes, Diagnostic};
use crate::{LintContext, Pass};
use sommelier_graph::cost::model_cost;
use sommelier_graph::{Model, Op, OpKind};

/// Structural lints over one model's layer DAG: dead layers
/// (`SOM001`), interior width-1 bottlenecks (`SOM002`), suspicious
/// activation/normalization orderings (`SOM003`), all-zero linear
/// weights (`SOM006`) and non-finite parameters (`SOM081`).
pub fn model_graph_findings(key: &str, model: &Model, out: &mut Vec<Diagnostic>) {
    let target = format!("model '{key}'");
    check_dead_layers(model, &target, out);
    check_width_bottlenecks(model, &target, out);
    check_op_orderings(model, &target, out);
    check_zero_weights(model, &target, out);
    check_nonfinite_weights(model, &target, out);
}

/// `SOM001`: a layer with no data path to the output is dead
/// computation — it burns FLOPs and memory without affecting any
/// inference. Every member of a dead chain is reported, not only its
/// unconsumed tip.
fn check_dead_layers(model: &Model, target: &str, out: &mut Vec<Diagnostic>) {
    for (id, live) in model.live_layers().into_iter().enumerate() {
        if !live {
            out.push(
                Diagnostic::warn(
                    codes::DEAD_LAYER,
                    target,
                    format!(
                        "layer '{}' has no data path to the output",
                        model.layer(sommelier_graph::LayerId(id)).name
                    ),
                )
                .with_layer(id)
                .with_help("remove the layer or wire its output into the graph"),
            );
        }
    }
}

/// `SOM002`: an interior layer that narrows to width 1 while the model
/// produces a wider output forces all information through a scalar —
/// downstream layers can only re-expand a single degree of freedom.
fn check_width_bottlenecks(model: &Model, target: &str, out: &mut Vec<Diagnostic>) {
    if model.output_width() <= 1 {
        return; // scalar outputs legitimately narrow to 1
    }
    let output = model.output_id().index();
    for id in 1..model.num_layers() {
        if id == output {
            continue;
        }
        let lid = sommelier_graph::LayerId(id);
        if model.width_of(lid) == 1 {
            out.push(
                Diagnostic::warn(
                    codes::WIDTH_BOTTLENECK,
                    target,
                    format!(
                        "interior layer '{}' narrows to width 1 while the output is width {}",
                        model.layer(lid).name,
                        model.output_width()
                    ),
                )
                .with_layer(id)
                .with_help("a width-1 interior layer collapses the feature space"),
            );
        }
    }
}

/// `SOM003`: operator orderings that are statically redundant — the same
/// parameterless activation/normalization applied twice in a row
/// (idempotent or collapsible), or ReLU directly after softmax (softmax
/// outputs are already non-negative, so the ReLU is an identity).
fn check_op_orderings(model: &Model, target: &str, out: &mut Vec<Diagnostic>) {
    for (id, layer) in model.layers().iter().enumerate() {
        let [input] = layer.inputs.as_slice() else {
            continue;
        };
        let prev = &model.layer(*input).op;
        let cur = &layer.op;
        let repeatable = matches!(cur.kind(), OpKind::Activation | OpKind::Normalization)
            && !cur.has_params();
        if repeatable && cur.type_tag() == prev.type_tag() {
            out.push(
                Diagnostic::warn(
                    codes::SUSPICIOUS_ORDER,
                    target,
                    format!("'{}' is applied twice in a row", cur.type_tag()),
                )
                .with_layer(id)
                .with_help("the second application is redundant"),
            );
        }
        if matches!(prev, Op::Softmax) && matches!(cur, Op::Relu) {
            out.push(
                Diagnostic::warn(
                    codes::SUSPICIOUS_ORDER,
                    target,
                    "ReLU after softmax is an identity (softmax outputs are non-negative)",
                )
                .with_layer(id)
                .with_help("drop the ReLU"),
            );
        }
    }
}

/// `SOM006`: a linear layer whose weight tensor is entirely zero outputs
/// only its bias (or nothing) regardless of the input.
fn check_zero_weights(model: &Model, target: &str, out: &mut Vec<Diagnostic>) {
    for lid in model.linear_layers() {
        let layer = model.layer(lid);
        if let Some(weight) = &layer.params.weight {
            if weight.max_abs() == 0.0 {
                out.push(
                    Diagnostic::warn(
                        codes::ZERO_WEIGHTS,
                        target,
                        format!("linear layer '{}' carries an all-zero weight tensor", layer.name),
                    )
                    .with_layer(lid.index())
                    .with_help("the layer ignores its input; was the artifact truncated?"),
                );
            }
        }
    }
}

/// `SOM081`: a parameter tensor holding NaN or an infinity poisons
/// every inference, and the model cannot be exported.
fn check_nonfinite_weights(model: &Model, target: &str, out: &mut Vec<Diagnostic>) {
    for (id, layer) in model.layers().iter().enumerate() {
        let nonfinite: usize = [&layer.params.weight, &layer.params.bias]
            .into_iter()
            .flatten()
            .map(|t| t.as_slice().iter().filter(|v| !v.is_finite()).count())
            .sum();
        if nonfinite > 0 {
            out.push(
                Diagnostic::error(
                    codes::NONFINITE_WEIGHTS,
                    target,
                    format!(
                        "layer '{}' carries {nonfinite} non-finite parameter value(s)",
                        layer.name
                    ),
                )
                .with_layer(id)
                .with_help("NaN/Inf weights poison every inference and cannot be exported"),
            );
        }
    }
}

/// `SOM004`: cost-profile outliers within a declared family.
///
/// Models seeded from the same series (`metadata["series"]`) should have
/// comparable compute footprints. A member whose FLOPs are more than
/// [`ModelCostPass::RATIO`]× the family median (or less than 1/RATIO) is
/// flagged — informationally, because wide families are legal; the
/// finding exists so an operator reviews whether the artifact was
/// mislabeled or corrupted.
pub struct ModelCostPass;

impl ModelCostPass {
    /// Outlier ratio against the family median.
    pub const RATIO: f64 = 32.0;
}

impl Pass for ModelCostPass {
    fn run(&self, ctx: &LintContext, out: &mut Vec<Diagnostic>) {
        use std::collections::BTreeMap;
        let mut families: BTreeMap<&str, Vec<(&str, f64)>> = BTreeMap::new();
        for (key, model) in &ctx.models {
            if let Some(series) = model.metadata.get("series") {
                families
                    .entry(series.as_str())
                    .or_default()
                    .push((key.as_str(), model_cost(model).gflops()));
            }
        }
        for (series, members) in families {
            if members.len() < 3 {
                continue; // too small for a meaningful median
            }
            let mut flops: Vec<f64> = members.iter().map(|(_, f)| *f).collect();
            flops.sort_by(|a, b| a.total_cmp(b));
            let median = flops[flops.len() / 2];
            if median <= 0.0 {
                continue;
            }
            for (key, gflops) in members {
                let ratio = gflops / median;
                if !(1.0 / Self::RATIO..=Self::RATIO).contains(&ratio) {
                    out.push(
                        Diagnostic::info(
                            codes::COST_OUTLIER,
                            format!("model '{key}'"),
                            format!(
                                "{gflops:.4} GFLOPs is {ratio:.1}x the median of series \
                                 '{series}' ({median:.4} GFLOPs)"
                            ),
                        )
                        .with_help("verify the model's series label and its weights"),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::Severity;
    use sommelier_graph::{serde_model, Fingerprint, ModelBuilder, TaskKind};
    use sommelier_tensor::{Prng, Shape, Tensor};

    fn ctx_with(models: Vec<(&str, Model)>) -> LintContext {
        let mut ctx = LintContext::new();
        for (key, model) in models {
            ctx.models.push((key.to_string(), model));
        }
        ctx
    }

    fn run(pass: &dyn Pass, ctx: &LintContext) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        pass.run(ctx, &mut out);
        out
    }

    fn each_model(
        check: fn(&str, &Model, &mut Vec<Diagnostic>),
        ctx: &LintContext,
    ) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (key, model) in &ctx.models {
            check(key, model, &mut out);
        }
        out
    }

    fn mlp(name: &str, hidden: usize, seed: u64) -> Model {
        let mut rng = Prng::seed_from_u64(seed);
        ModelBuilder::new(name, TaskKind::Other, Shape::vector(4))
            .dense(hidden, &mut rng)
            .relu()
            .dense(3, &mut rng)
            .softmax()
            .build()
            .unwrap()
    }

    #[test]
    fn clean_model_produces_no_graph_findings() {
        let ctx = ctx_with(vec![("clean", mlp("clean", 8, 1))]);
        assert!(each_model(model_graph_findings, &ctx).is_empty());
    }

    #[test]
    fn dead_layer_is_reported() {
        let mut rng = Prng::seed_from_u64(2);
        let mut b = ModelBuilder::new("dead", TaskKind::Other, Shape::vector(4));
        b.dense(4, &mut rng);
        let trunk = b.cursor();
        b.relu();
        let live = b.cursor();
        b.goto(trunk);
        b.dense(2, &mut rng); // never consumed, not the output
        let dead = b.cursor();
        b.goto(live);
        b.softmax();
        let model = b.build().unwrap();
        let ctx = ctx_with(vec![("dead", model)]);
        let diags = each_model(model_graph_findings, &ctx);
        assert!(
            diags
                .iter()
                .any(|d| d.code == codes::DEAD_LAYER && d.layer == Some(dead.index())),
            "{diags:?}"
        );
    }

    #[test]
    fn every_member_of_a_dead_chain_is_reported() {
        let mut rng = Prng::seed_from_u64(5);
        let mut b = ModelBuilder::new("dead", TaskKind::Other, Shape::vector(4));
        b.dense(4, &mut rng);
        let trunk = b.cursor();
        b.relu();
        let live = b.cursor();
        b.goto(trunk);
        b.dense(2, &mut rng);
        let head = b.cursor();
        b.relu(); // consumed by nothing; its producer is consumed by it
        let tip = b.cursor();
        b.goto(live);
        b.softmax();
        let ctx = ctx_with(vec![("dead", b.build().unwrap())]);
        let dead: Vec<Option<usize>> = each_model(model_graph_findings, &ctx)
            .iter()
            .filter(|d| d.code == codes::DEAD_LAYER)
            .map(|d| d.layer)
            .collect();
        assert_eq!(dead, [Some(head.index()), Some(tip.index())]);
    }

    #[test]
    fn width_bottleneck_is_reported() {
        let mut rng = Prng::seed_from_u64(3);
        let model = ModelBuilder::new("pinch", TaskKind::Other, Shape::vector(4))
            .dense(1, &mut rng)
            .relu()
            .dense(3, &mut rng)
            .softmax()
            .build()
            .unwrap();
        let ctx = ctx_with(vec![("pinch", model)]);
        let diags = each_model(model_graph_findings, &ctx);
        assert!(
            diags.iter().any(|d| d.code == codes::WIDTH_BOTTLENECK && d.layer == Some(1)),
            "{diags:?}"
        );
    }

    #[test]
    fn scalar_output_models_may_narrow() {
        let mut rng = Prng::seed_from_u64(4);
        let model = ModelBuilder::new("scalar", TaskKind::Other, Shape::vector(4))
            .dense(8, &mut rng)
            .relu()
            .dense(1, &mut rng)
            .sigmoid()
            .build()
            .unwrap();
        let ctx = ctx_with(vec![("scalar", model)]);
        let diags = each_model(model_graph_findings, &ctx);
        assert!(!diags.iter().any(|d| d.code == codes::WIDTH_BOTTLENECK), "{diags:?}");
    }

    #[test]
    fn repeated_activation_is_reported() {
        let mut rng = Prng::seed_from_u64(5);
        let model = ModelBuilder::new("twice", TaskKind::Other, Shape::vector(4))
            .dense(4, &mut rng)
            .relu()
            .relu()
            .dense(3, &mut rng)
            .softmax()
            .build()
            .unwrap();
        let ctx = ctx_with(vec![("twice", model)]);
        let diags = each_model(model_graph_findings, &ctx);
        assert!(
            diags
                .iter()
                .any(|d| d.code == codes::SUSPICIOUS_ORDER && d.message.contains("twice in a row")),
            "{diags:?}"
        );
    }

    #[test]
    fn relu_after_softmax_is_reported() {
        let mut rng = Prng::seed_from_u64(6);
        let model = ModelBuilder::new("noop", TaskKind::Other, Shape::vector(4))
            .dense(3, &mut rng)
            .softmax()
            .relu()
            .build()
            .unwrap();
        let ctx = ctx_with(vec![("noop", model)]);
        let diags = each_model(model_graph_findings, &ctx);
        assert!(
            diags
                .iter()
                .any(|d| d.code == codes::SUSPICIOUS_ORDER && d.message.contains("softmax")),
            "{diags:?}"
        );
    }

    #[test]
    fn zero_weights_are_reported() {
        let model = ModelBuilder::new("zeroed", TaskKind::Other, Shape::vector(4))
            .dense_with(Tensor::zeros(4, 3), None)
            .softmax()
            .build()
            .unwrap();
        let ctx = ctx_with(vec![("zeroed", model)]);
        let diags = each_model(model_graph_findings, &ctx);
        assert!(
            diags.iter().any(|d| d.code == codes::ZERO_WEIGHTS && d.layer == Some(1)),
            "{diags:?}"
        );
    }

    #[test]
    fn family_cost_outlier_is_informational() {
        let mut small_a = mlp("fam-a", 4, 10);
        let mut small_b = mlp("fam-b", 4, 11);
        let mut rng = Prng::seed_from_u64(12);
        let mut huge = ModelBuilder::new("fam-c", TaskKind::Other, Shape::vector(4))
            .dense(512, &mut rng)
            .relu()
            .dense(512, &mut rng)
            .softmax()
            .build()
            .unwrap();
        for m in [&mut small_a, &mut small_b, &mut huge] {
            m.metadata.insert("series".into(), "fam".into());
        }
        let ctx = ctx_with(vec![("fam-a", small_a), ("fam-b", small_b), ("fam-c", huge)]);
        let diags = run(&ModelCostPass, &ctx);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, codes::COST_OUTLIER);
        assert_eq!(diags[0].severity, Severity::Info);
        assert_eq!(diags[0].target, "model 'fam-c'");
    }

    #[test]
    fn small_families_are_not_judged() {
        let mut a = mlp("a", 4, 13);
        let mut b = mlp("b", 512, 14);
        for m in [&mut a, &mut b] {
            m.metadata.insert("series".into(), "tiny".into());
        }
        let ctx = ctx_with(vec![("a", a), ("b", b)]);
        assert!(run(&ModelCostPass, &ctx).is_empty());
    }

    /// A healthy model lints clean, and the interchange encoding that
    /// `sommelier export` writes reads back to the same fingerprint.
    #[test]
    fn healthy_model_round_trips_clean() {
        let model = mlp("ok", 8, 15);
        let ctx = ctx_with(vec![("ok", model.clone())]);
        assert!(each_model(model_graph_findings, &ctx).is_empty());
        let json = serde_model::to_json(&model).expect("a finite model encodes");
        let back = serde_model::from_json(&json).expect("its encoding decodes");
        assert_eq!(Fingerprint::of_model(&back), Fingerprint::of_model(&model));
    }

    /// A non-finite weight is one `SOM081` on its layer in the shallow
    /// pass, and the encoding refuses the model.
    #[test]
    fn non_finite_weight_breaks_the_round_trip() {
        let mut weight = Tensor::zeros(4, 3);
        weight.set(0, 0, f32::NAN);
        weight.set(1, 1, f32::INFINITY);
        weight.set(0, 1, 1.0);
        let model = ModelBuilder::new("nan", TaskKind::Other, Shape::vector(4))
            .dense_with(weight, None)
            .softmax()
            .build()
            .unwrap();
        let refused = serde_model::to_json(&model);
        assert!(matches!(refused, Err(serde_model::CodecError::Unencodable(_))), "{refused:?}");
        let ctx = ctx_with(vec![("nan", model), ("ok", mlp("ok", 8, 15))]);
        let diags = each_model(model_graph_findings, &ctx);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, codes::NONFINITE_WEIGHTS);
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!((diags[0].target.as_str(), diags[0].layer), ("model 'nan'", Some(1)));
        assert!(diags[0].message.contains("2 non-finite"), "{}", diags[0].message);
    }
}
