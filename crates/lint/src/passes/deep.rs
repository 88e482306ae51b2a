//! Deep analyses (`SOM083`–`SOM091`): the dataflow pass family and the
//! cross-artifact consistency join.
//!
//! Two analyses live here. [`deep_model_findings`] runs the forward
//! abstract interpreter ([`crate::dataflow`]) over one stored model and
//! turns its facts into findings: saturated activations, constant
//! outputs, rank-collapsed matmuls, and declared-vs-recomputed cost
//! drift (dead layers and non-finite weights are the shallow
//! [`crate::passes::model`] pass's); [`crate::run`] fans
//! it out over the models, every one of which passed
//! [`Model::validate`], so its widths and parameter shapes hold.
//! [`cross_artifact_findings`] joins the repository against the
//! persisted indices once per lint: recomputed fingerprints must match
//! the semantic index, and recomputed resource vectors must match the
//! resource index. (Every candidate bound, transitive ones included, is
//! held to its exact derivation by [`crate::passes::index`].)

use crate::dataflow;
use crate::diagnostics::{codes, Diagnostic};
use crate::LintContext;
use sommelier_graph::cost::model_cost;
use sommelier_graph::{Fingerprint, Model, Op};
use std::collections::BTreeMap;

/// Sigmoid/tanh pre-activations beyond this magnitude are within 3e-4
/// of the asymptote — the layer is, for every analyzable input,
/// indistinguishable from a constant.
const SATURATION_MAGNITUDE: f64 = 8.0;

/// Relative tolerance for proportional-rows detection (rank collapse).
const RANK_REL_TOL: f64 = 1e-9;

/// Relative tolerance when comparing stored resource vectors against
/// recomputed ones. Profiles are deterministic functions of the model,
/// so only float round-trips through JSON separate the two.
const RESOURCE_REL_TOL: f64 = 1e-6;

/// The deep per-model dataflow lints (`SOM083`–`SOM086`) on one valid
/// model, appending findings that target `model '<key>'`.
pub fn deep_model_findings(key: &str, model: &Model, out: &mut Vec<Diagnostic>) {
    let target = format!("model '{key}'");
    let analysis = dataflow::analyze(model, dataflow::DEFAULT_INPUT);
    check_rank(model, &target, out);
    check_saturation(model, &analysis, &target, out);
    check_constant_output(model, &analysis, &target, out);
    check_declared_cost(model, &target, out);
}

/// `SOM085`: rank-collapsed matmuls. A non-finite weight tensor is
/// skipped: it is `SOM081`, and no rank is defined for it.
fn check_rank(model: &Model, target: &str, out: &mut Vec<Diagnostic>) {
    for (id, layer) in model.layers().iter().enumerate() {
        if let (Op::Dense { .. }, Some(w)) = (&layer.op, layer.params.weight.as_ref()) {
            if w.as_slice().iter().all(|v| v.is_finite())
                && w.rows() >= 2
                && w.cols() >= 2
                && w.max_abs() > 0.0
                && numerical_rank_le_1(w)
            {
                out.push(
                    Diagnostic::warn(
                        codes::RANK_COLLAPSED,
                        target,
                        format!(
                            "dense layer '{}' has numerical rank <= 1: all {} weight rows \
                             are parallel",
                            layer.name,
                            w.rows()
                        ),
                    )
                    .with_layer(id)
                    .with_help("the layer projects onto a single direction; was it truncated?"),
                );
            }
        }
    }
}

/// Whether every row of `w` is a scalar multiple of one common row.
fn numerical_rank_le_1(w: &sommelier_tensor::Tensor) -> bool {
    // Pivot: the row with the largest magnitude entry.
    let mut pivot = 0usize;
    let mut pivot_mag = 0.0f32;
    for r in 0..w.rows() {
        for c in 0..w.cols() {
            let m = w.get(r, c).abs();
            if m > pivot_mag {
                pivot_mag = m;
                pivot = r;
            }
        }
    }
    if pivot_mag == 0.0 {
        return true; // all-zero: rank 0 (reported separately as SOM006)
    }
    // Anchor column: the pivot row's largest entry, for a stable ratio.
    let mut anchor = 0usize;
    let mut anchor_mag = 0.0f32;
    for c in 0..w.cols() {
        let m = w.get(pivot, c).abs();
        if m > anchor_mag {
            anchor_mag = m;
            anchor = c;
        }
    }
    for r in 0..w.rows() {
        if r == pivot {
            continue;
        }
        let ratio = w.get(r, anchor) as f64 / w.get(pivot, anchor) as f64;
        for c in 0..w.cols() {
            let want = ratio * w.get(pivot, c) as f64;
            let got = w.get(r, c) as f64;
            let scale = want.abs().max(got.abs()).max(1e-30);
            if (want - got).abs() > RANK_REL_TOL * scale {
                return false;
            }
        }
    }
    true
}

/// `SOM083`: activations whose entire pre-activation interval sits in a
/// saturation region — the layer is a constant for every analyzable
/// input, so downstream weights see no gradient-bearing signal.
fn check_saturation(
    model: &Model,
    analysis: &dataflow::ModelAnalysis,
    target: &str,
    out: &mut Vec<Diagnostic>,
) {
    let live = model.live_layers();
    for (id, layer) in model.layers().iter().enumerate() {
        if !live[id] {
            continue; // dead layers are already reported whole (SOM001)
        }
        let Some(pre) = layer
            .inputs
            .first()
            .and_then(|i| analysis.values[i.index()])
        else {
            continue;
        };
        let saturated: Option<&str> = match layer.op {
            Op::Relu if pre.hi <= 0.0 => Some("output is constant 0"),
            Op::Sigmoid if pre.lo >= SATURATION_MAGNITUDE => Some("output is pinned at 1"),
            Op::Sigmoid if pre.hi <= -SATURATION_MAGNITUDE => Some("output is pinned at 0"),
            Op::Tanh if pre.lo >= SATURATION_MAGNITUDE => Some("output is pinned at 1"),
            Op::Tanh if pre.hi <= -SATURATION_MAGNITUDE => Some("output is pinned at -1"),
            _ => None,
        };
        if let Some(effect) = saturated {
            out.push(
                Diagnostic::warn(
                    codes::SATURATED_ACTIVATION,
                    target,
                    format!(
                        "'{}' is saturated over pre-activation range [{:.3}, {:.3}]: {effect}",
                        layer.op.type_tag(),
                        pre.lo,
                        pre.hi
                    ),
                )
                .with_layer(id)
                .with_help("every analyzable input lands in the activation's flat region"),
            );
        }
    }
}

/// `SOM084`: the abstract output interval collapses to a point — the
/// model provably returns the same vector for every input in the
/// analyzed box.
fn check_constant_output(
    model: &Model,
    analysis: &dataflow::ModelAnalysis,
    target: &str,
    out: &mut Vec<Diagnostic>,
) {
    if model.num_layers() < 2 {
        return;
    }
    if let Some(iv) = analysis.output_value() {
        if iv.is_point() {
            out.push(
                Diagnostic::warn(
                    codes::CONSTANT_OUTPUT,
                    target,
                    format!(
                        "output is provably constant ({:.6}) for every input in \
                         [{:.0}, {:.0}]",
                        iv.lo,
                        dataflow::DEFAULT_INPUT.lo,
                        dataflow::DEFAULT_INPUT.hi
                    ),
                )
                .with_help("the model's prediction is input-independent"),
            );
        }
    }
}

/// `SOM086`: a model may declare its own cost in metadata
/// (`cost.flops`, `cost.param_bytes`, `cost.activation_bytes`); when it
/// does, the declaration must match the cost recomputed from the graph.
fn check_declared_cost(model: &Model, target: &str, out: &mut Vec<Diagnostic>) {
    let cost = model_cost(model);
    let recomputed = [
        ("cost.flops", cost.flops),
        ("cost.param_bytes", cost.param_bytes),
        ("cost.activation_bytes", cost.activation_bytes),
    ];
    for (meta_key, actual) in recomputed {
        let Some(declared) = model.metadata.get(meta_key) else {
            continue;
        };
        match declared.parse::<u64>() {
            Ok(v) if v == actual => {}
            Ok(v) => out.push(
                Diagnostic::warn(
                    codes::DECLARED_COST_DRIFT,
                    target,
                    format!("metadata declares {meta_key}={v} but the graph recomputes {actual}"),
                )
                .with_help("re-stamp the declared cost or investigate weight tampering"),
            ),
            Err(_) => out.push(
                Diagnostic::warn(
                    codes::DECLARED_COST_DRIFT,
                    target,
                    format!("metadata {meta_key}='{declared}' is not a valid cost counter"),
                )
                .with_help("declared costs must be unsigned integers"),
            ),
        }
    }
}

/// The repository ↔ semantic index ↔ resource index consistency join
/// (`SOM090`–`SOM091`).
pub fn cross_artifact_findings(ctx: &LintContext, out: &mut Vec<Diagnostic>) {
    if let Some(semantic) = &ctx.semantic {
        let fingerprints: BTreeMap<&str, Fingerprint> = ctx
            .models
            .iter()
            .map(|(k, m)| (k.as_str(), Fingerprint::of_model(m)))
            .collect();
        // SOM090 — every index registration that resolves to a stored
        // model must carry that model's recomputed fingerprint. A
        // mismatch means the store was rewritten after indexing (or the
        // snapshot was tampered with): every cached pairwise analysis
        // keyed by the stale fingerprint is silently wrong.
        for (key, recorded) in semantic.by_key_audit() {
            let Some(recomputed) = fingerprints.get(key) else {
                continue; // dangling keys are SOM020 territory
            };
            if recorded != *recomputed {
                out.push(
                    Diagnostic::error(
                        codes::FINGERPRINT_DRIFT,
                        format!("model '{key}'"),
                        format!(
                            "semantic index records fingerprint {recorded} but the stored \
                             model recomputes to {recomputed}"
                        ),
                    )
                    .with_help("the model changed after indexing; reindex the repository"),
                );
            }
        }
    }
    if let Some(resource) = &ctx.resource {
        // SOM091 — stored resource vectors must agree with vectors
        // recomputed from the models under the default execution
        // setting (the only setting the persisted index is built with).
        for (key, stored) in resource.entries_audit() {
            let Some((_, model)) = ctx.models.iter().find(|(k, _)| k == key) else {
                continue;
            };
            let recomputed = sommelier_runtime::ResourceProfile::of(model);
            let stored_v = stored.as_vector();
            let recomputed_v = recomputed.as_vector();
            let dims = ["memory_mb", "gflops", "latency_ms"];
            for ((s, r), dim) in stored_v.iter().zip(&recomputed_v).zip(dims) {
                let scale = s.abs().max(r.abs()).max(1e-12);
                if (s - r).abs() > RESOURCE_REL_TOL * scale {
                    out.push(
                        Diagnostic::error(
                            codes::RESOURCE_DRIFT,
                            format!("model '{key}'"),
                            format!(
                                "resource index stores {dim}={s:.6} but the model \
                                 recomputes to {r:.6}"
                            ),
                        )
                        .with_help("the resource vector no longer describes the stored model"),
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
    use sommelier_graph::{ModelBuilder, TaskKind};
    use sommelier_tensor::{Prng, Shape, Tensor};

    fn ctx_with(models: Vec<(&str, Model)>) -> LintContext {
        let mut ctx = LintContext::new();
        for (key, model) in models {
            ctx.models.push((key.to_string(), model));
        }
        ctx
    }

    fn deep(ctx: &LintContext) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (key, model) in &ctx.models {
            deep_model_findings(key, model, &mut out);
        }
        out
    }

    fn mlp(name: &str, seed: u64) -> Model {
        let mut rng = Prng::seed_from_u64(seed);
        ModelBuilder::new(name, TaskKind::Other, Shape::vector(4))
            .dense(8, &mut rng)
            .relu()
            .dense(3, &mut rng)
            .softmax()
            .build()
            .unwrap()
    }

    #[test]
    fn clean_model_is_deep_clean() {
        let ctx = ctx_with(vec![("ok", mlp("ok", 1))]);
        let diags = deep(&ctx);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn tampered_widths_are_caught_as_shape_drift() {
        let model = mlp("tampered", 2);
        // Simulate post-validation tampering via the serde path: widths
        // are private, so round-trip through JSON and patch the array.
        let json = serde_json::to_string(&model).unwrap();
        let patched = json.replace("\"widths\":[4,8,8,3,3]", "\"widths\":[4,8,9,3,3]");
        assert_ne!(json, patched, "fixture must actually patch the widths");
        let tampered: Model = serde_json::from_str(&patched).unwrap();
        // The one finding is the refusal: no pass analyses the model.
        let ctx = ctx_with(vec![("tampered", tampered), ("ok", mlp("ok", 1))]);
        let diags = crate::run(&ctx, true, 1).diagnostics;
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, codes::MODEL_UNREADABLE);
        assert_eq!(diags[0].target, "model 'tampered'");
        assert!(
            diags[0].message.contains("layer 2: stored output width disagrees"),
            "{}",
            diags[0].message
        );
    }

    /// Under `audit` a non-finite weight is still one finding: the
    /// shallow pass's `SOM081`, which the deep pass does not repeat.
    #[test]
    fn non_finite_weights_are_an_error() {
        let mut w = Tensor::zeros(4, 3);
        w.set(0, 0, f32::NAN);
        w.set(1, 1, f32::INFINITY);
        w.set(0, 1, 1.0);
        let model = ModelBuilder::new("nan", TaskKind::Other, Shape::vector(4))
            .dense_with(w, None)
            .softmax()
            .build()
            .unwrap();
        let ctx = ctx_with(vec![("nan", model)]);
        assert!(deep(&ctx).iter().all(|d| d.code != codes::NONFINITE_WEIGHTS));
        let diags = crate::run(&ctx, true, 1).diagnostics;
        let hits: Vec<_> = diags.iter().filter(|d| d.code == codes::NONFINITE_WEIGHTS).collect();
        assert_eq!(hits.len(), 1, "{diags:?}");
        assert_eq!(hits[0].severity, Severity::Error);
        assert!(hits[0].message.contains("2 non-finite"), "{}", hits[0].message);
    }

    /// Under `audit` each member of a dead chain is one finding: the
    /// shallow pass's `SOM001`, which the deep pass does not repeat.
    #[test]
    fn transitively_dead_chains_are_unreachable() {
        let mut rng = Prng::seed_from_u64(5);
        let mut b = ModelBuilder::new("dead", TaskKind::Other, Shape::vector(4));
        b.dense(4, &mut rng);
        let trunk = b.cursor();
        b.relu();
        let live = b.cursor();
        b.goto(trunk);
        b.dense(2, &mut rng);
        b.relu(); // consumed by nothing; its producer is consumed by it
        b.goto(live);
        b.softmax();
        let ctx = ctx_with(vec![("dead", b.build().unwrap())]);
        let diags = crate::run(&ctx, true, 1).diagnostics;
        let found: Vec<&str> = diags.iter().map(|d| d.code.as_str()).collect();
        assert_eq!(found, [codes::DEAD_LAYER, codes::DEAD_LAYER], "{diags:?}");
    }

    #[test]
    fn saturated_sigmoid_is_reported() {
        // Bias +100 pushes every pre-activation far beyond saturation.
        let w = Tensor::from_vec(4, 2, vec![0.1; 8]);
        let bias = Tensor::from_vec(1, 2, vec![100.0, 100.0]);
        let model = ModelBuilder::new("sat", TaskKind::Other, Shape::vector(4))
            .dense_with(w, Some(bias))
            .sigmoid()
            .build()
            .unwrap();
        let ctx = ctx_with(vec![("sat", model)]);
        let diags = deep(&ctx);
        assert!(
            diags
                .iter()
                .any(|d| d.code == codes::SATURATED_ACTIVATION && d.layer == Some(2)),
            "{diags:?}"
        );
    }

    #[test]
    fn constant_output_is_reported() {
        let model = ModelBuilder::new("const", TaskKind::Other, Shape::vector(4))
            .dense_with(Tensor::zeros(4, 3), None)
            .softmax()
            .build()
            .unwrap();
        let ctx = ctx_with(vec![("const", model)]);
        let diags = deep(&ctx);
        assert!(
            diags.iter().any(|d| d.code == codes::CONSTANT_OUTPUT),
            "{diags:?}"
        );
    }

    #[test]
    fn rank_collapsed_dense_is_reported() {
        // Rows are exact multiples of the first: rank 1.
        let w = Tensor::from_vec(
            3,
            3,
            vec![1.0, 2.0, -1.0, 2.0, 4.0, -2.0, -0.5, -1.0, 0.5],
        );
        let model = ModelBuilder::new("rank1", TaskKind::Other, Shape::vector(3))
            .dense_with(w, None)
            .softmax()
            .build()
            .unwrap();
        let ctx = ctx_with(vec![("rank1", model)]);
        let diags = deep(&ctx);
        assert!(
            diags.iter().any(|d| d.code == codes::RANK_COLLAPSED),
            "{diags:?}"
        );
        // A non-finite tensor is SOM081's, whatever its rows.
        let mut inf = Tensor::from_vec(3, 3, vec![1.0, 2.0, -1.0, 2.0, 4.0, -2.0, -0.5, -1.0, 0.5]);
        inf.set(0, 0, f32::INFINITY);
        let model = ModelBuilder::new("inf", TaskKind::Other, Shape::vector(3))
            .dense_with(inf, None)
            .softmax()
            .build()
            .unwrap();
        assert!(deep(&ctx_with(vec![("inf", model)]))
            .iter()
            .all(|d| d.code != codes::RANK_COLLAPSED));
        // A healthy random dense must not trip the check.
        let clean = ctx_with(vec![("ok", mlp("ok", 7))]);
        assert!(deep(&clean)
            .iter()
            .all(|d| d.code != codes::RANK_COLLAPSED));
    }

    #[test]
    fn declared_cost_drift_is_reported() {
        let mut model = mlp("declared", 9);
        let actual = model_cost(&model).flops;
        model
            .metadata
            .insert("cost.flops".into(), (actual + 1).to_string());
        model
            .metadata
            .insert("cost.param_bytes".into(), "not-a-number".into());
        let ctx = ctx_with(vec![("declared", model)]);
        let diags = deep(&ctx);
        let drift: Vec<_> = diags
            .iter()
            .filter(|d| d.code == codes::DECLARED_COST_DRIFT)
            .collect();
        assert_eq!(drift.len(), 2, "{diags:?}");
        // A correct declaration is silent.
        let mut honest = mlp("honest", 10);
        let cost = model_cost(&honest);
        honest.metadata.insert("cost.flops".into(), cost.flops.to_string());
        let ctx = ctx_with(vec![("honest", honest)]);
        assert!(deep(&ctx).is_empty());
    }

    #[test]
    fn fingerprint_drift_is_caught_by_the_cross_pass() {
        use sommelier_index::semantic::SemanticIndexConfig;
        use sommelier_index::{PairAnalyzer, SemanticIndex};
        struct NoPairs;
        impl PairAnalyzer for NoPairs {
            fn whole_diff(&self, _: &Model, _: &Model) -> Option<f64> {
                None
            }
        }
        let stored = mlp("drifted", 11);
        let indexed = mlp("drifted", 12); // same key, different weights
        let mut semantic = SemanticIndex::new(SemanticIndexConfig::default(), 1);
        let pool = sommelier_parallel::ThreadPool::new(1);
        semantic.apply(&pool, &[], &[indexed], &|_| None, &NoPairs);
        let mut ctx = ctx_with(vec![("drifted", stored)]);
        ctx.semantic = Some(semantic);
        let mut diags = Vec::new();
        cross_artifact_findings(&ctx, &mut diags);
        assert!(
            diags
                .iter()
                .any(|d| d.code == codes::FINGERPRINT_DRIFT
                    && d.severity == Severity::Error),
            "{diags:?}"
        );
    }
}
