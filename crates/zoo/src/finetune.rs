//! Fine-tuning simulation via weight perturbation.
//!
//! The paper's experiments repeatedly derive model variants by fine-tuning
//! a base model "to certain levels" (Figures 10 and 11) and by adding
//! worst-case noise to parameters (the "noisy" line of Figure 10). In this
//! reproduction a fine-tune of level `ℓ` adds zero-mean Gaussian noise of
//! relative scale `ℓ` to the weights of a chosen suffix of the linear
//! layers — layer-wise, so freezing a prefix (transfer learning's frozen
//! base) corresponds exactly to leaving those layers untouched.

use sommelier_graph::{LayerId, Model};
use sommelier_tensor::{Prng, Tensor};

/// Perturb the weights (and biases) of the given linear layers by relative
/// Gaussian noise of scale `level`. `level = 0` returns an identical
/// model. The input model is not modified.
pub fn perturb_layers(model: &Model, layers: &[LayerId], level: f64, rng: &mut Prng) -> Model {
    let mut out = model.clone();
    if level == 0.0 {
        return out;
    }
    for &id in layers {
        let layer = model.layer(id);
        let mut params = layer.params.clone();
        if let Some(w) = &params.weight {
            params.weight = Some(noised(w, level, rng));
        }
        if let Some(b) = &params.bias {
            params.bias = Some(noised(b, level, rng));
        }
        out.set_params(id, params)
            .expect("perturbation preserves shapes");
    }
    out
}

/// Perturb *all* linear layers (whole-model fine-tune of the given level).
pub fn perturb_all(model: &Model, level: f64, rng: &mut Prng) -> Model {
    perturb_layers(model, &model.linear_layers(), level, rng)
}

/// Sparse fine-tune: perturb only a `density` fraction of the elements
/// of the last `fraction` of linear layers, leaving every other element
/// (and the whole frozen prefix) bit-identical to the base. This is the
/// regime delta storage exploits — a realistic "last-layers, light
/// touch" fine-tune where most weights survive verbatim.
pub fn perturb_sparse(
    model: &Model,
    fraction: f64,
    level: f64,
    density: f64,
    rng: &mut Prng,
) -> Model {
    let mut out = model.clone();
    if level == 0.0 || density <= 0.0 {
        return out;
    }
    let linear = model.linear_layers();
    let f = fraction.clamp(0.0, 1.0);
    let tuned = ((linear.len() as f64) * f).round() as usize;
    let start = linear.len() - tuned;
    let density = density.min(1.0);
    for &id in &linear[start..] {
        let mut params = model.layer(id).params.clone();
        for slot in [&mut params.weight, &mut params.bias] {
            if let Some(t) = slot.as_mut() {
                *t = sparse_noised(t, level, density, rng);
            }
        }
        out.set_params(id, params)
            .expect("sparse perturbation preserves shapes");
    }
    out
}

/// Build a fine-tune family: the base model followed by `variants`
/// sparse fine-tunes of it, named `<base>-ft1…`, each carrying its
/// provenance in `metadata["base"]` — the hint the on-disk repository's
/// `publish` uses to pick the delta base.
pub fn finetune_family(
    base: &Model,
    variants: usize,
    fraction: f64,
    level: f64,
    density: f64,
    rng: &mut Prng,
) -> Vec<Model> {
    let mut out = Vec::with_capacity(variants + 1);
    out.push(base.clone());
    for i in 0..variants {
        let mut v = perturb_sparse(base, fraction, level, density, rng);
        v.name = format!("{}-ft{}", base.name, i + 1);
        v.metadata.insert("base".to_string(), base.name.clone());
        out.push(v);
    }
    out
}

fn sparse_noised(t: &Tensor, level: f64, density: f64, rng: &mut Prng) -> Tensor {
    let n = t.len().max(1);
    let std = level * t.frobenius_norm() / (n as f64).sqrt();
    let mut data = t.as_slice().to_vec();
    for v in &mut data {
        if rng.flip(density) {
            *v += (rng.gaussian() * std) as f32;
        }
    }
    Tensor::from_vec(t.rows(), t.cols(), data)
}

fn noised(t: &Tensor, level: f64, rng: &mut Prng) -> Tensor {
    let n = t.len().max(1);
    let std = level * t.frobenius_norm() / (n as f64).sqrt();
    let delta = Tensor::gaussian(t.rows(), t.cols(), std, rng);
    t.zip_with(&delta, |a, b| a + b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::teacher::{DatasetBias, Teacher};
    use crate::{BodyStyle, EmbedSpec};
    use sommelier_graph::TaskKind;
    use sommelier_runtime::execute;
    use sommelier_runtime::metrics::agreement_ratio;
    use sommelier_tensor::Tensor;

    fn base_model() -> Model {
        let teacher = Teacher::for_task(TaskKind::ImageRecognition, 17);
        let bias = DatasetBias::new(&teacher, "imagenet", 0.05);
        let mut rng = Prng::seed_from_u64(1);
        crate::embed::embed_model(
            "base",
            &teacher,
            &bias,
            &EmbedSpec {
                style: BodyStyle::Residual,
                body_width: 96,
                depth: 3,
                noise: 0.01,
            },
            &mut rng,
        )
    }

    #[test]
    fn zero_level_is_identity() {
        let m = base_model();
        let mut rng = Prng::seed_from_u64(2);
        let tuned = perturb_all(&m, 0.0, &mut rng);
        assert_eq!(m, tuned);
    }

    #[test]
    fn perturbation_changes_weights_not_structure() {
        let m = base_model();
        let mut rng = Prng::seed_from_u64(2);
        let tuned = perturb_all(&m, 0.1, &mut rng);
        assert_eq!(m.op_tags(), tuned.op_tags());
        assert_ne!(m, tuned);
    }

    #[test]
    fn frozen_prefix_is_untouched() {
        let m = base_model();
        let mut rng = Prng::seed_from_u64(3);
        let tuned = perturb_sparse(&m, 0.5, 0.2, 1.0, &mut rng);
        let linear = m.linear_layers();
        let boundary = linear.len() - linear.len() / 2;
        for (i, &id) in linear.iter().enumerate() {
            let same = m.layer(id).params == tuned.layer(id).params;
            if i < boundary {
                assert!(same, "frozen layer {i} was modified");
            }
        }
        // At least one tuned layer differs.
        assert!(linear
            .iter()
            .any(|&id| m.layer(id).params != tuned.layer(id).params));
    }

    #[test]
    fn heavier_tuning_drifts_further() {
        let m = base_model();
        let mut rng = Prng::seed_from_u64(5);
        let x = Tensor::gaussian(200, m.input_width(), 1.0, &mut rng);
        let base_out = execute(&m, &x).unwrap();
        let agree_at = |level: f64| {
            let mut r = Prng::seed_from_u64(77);
            let tuned = perturb_all(&m, level, &mut r);
            agreement_ratio(&base_out, &execute(&tuned, &x).unwrap())
        };
        let light = agree_at(0.01);
        let heavy = agree_at(0.8);
        assert!(light > heavy, "light={light} heavy={heavy}");
        assert!(light > 0.9);
    }

    #[test]
    fn sparse_perturbation_touches_few_elements() {
        let m = base_model();
        let mut rng = Prng::seed_from_u64(9);
        let tuned = perturb_sparse(&m, 0.5, 0.1, 0.05, &mut rng);
        assert_eq!(m.op_tags(), tuned.op_tags());
        assert_ne!(m, tuned);
        let linear = m.linear_layers();
        let boundary = linear.len() - linear.len() / 2;
        let mut total = 0usize;
        let mut changed = 0usize;
        for (i, &id) in linear.iter().enumerate() {
            let before = m.layer(id).params.weight.as_ref().unwrap();
            let after = tuned.layer(id).params.weight.as_ref().unwrap();
            let diff = before
                .as_slice()
                .iter()
                .zip(after.as_slice())
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count();
            if i < boundary {
                assert_eq!(diff, 0, "frozen layer {i} was modified");
            } else {
                total += before.len();
                changed += diff;
            }
        }
        assert!(changed > 0);
        // ~5% density: comfortably under a quarter of the elements.
        assert!(
            (changed as f64) < (total as f64) * 0.25,
            "{changed}/{total} changed"
        );
    }

    #[test]
    fn sparse_zero_density_is_identity() {
        let m = base_model();
        let mut rng = Prng::seed_from_u64(10);
        assert_eq!(m, perturb_sparse(&m, 1.0, 0.1, 0.0, &mut rng));
        assert_eq!(m, perturb_sparse(&m, 1.0, 0.0, 0.5, &mut rng));
    }

    #[test]
    fn finetune_family_records_provenance() {
        let m = base_model();
        let mut rng = Prng::seed_from_u64(11);
        let family = finetune_family(&m, 3, 0.5, 0.05, 0.05, &mut rng);
        assert_eq!(family.len(), 4);
        assert_eq!(family[0], m);
        for (i, v) in family.iter().enumerate().skip(1) {
            assert_eq!(v.name, format!("base-ft{i}"));
            assert_eq!(v.metadata.get("base").map(String::as_str), Some("base"));
            assert_eq!(v.op_tags(), m.op_tags());
        }
    }

    #[test]
    fn suffix_fraction_clamps() {
        let m = base_model();
        let mut rng = Prng::seed_from_u64(6);
        // Out-of-range fractions behave as 0 / 1 rather than panicking.
        let all = perturb_sparse(&m, 5.0, 0.1, 1.0, &mut rng);
        assert_ne!(m, all);
        let none = perturb_sparse(&m, -1.0, 0.1, 1.0, &mut rng);
        assert_eq!(m, none);
    }
}
