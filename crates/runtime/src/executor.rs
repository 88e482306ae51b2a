//! Forward execution of a model graph.
//!
//! Layers are stored topologically, so execution is a single forward scan.
//! [`execute_traced`] additionally returns every intermediate activation;
//! the segment-equivalence assessment uses this to perturb a segment's
//! output with calibrated noise and re-run the remainder of the model
//! (paper Section 4.2, step ii).

use sommelier_graph::{LayerId, Model, Op};
use sommelier_tensor::{ops, Tensor};
use std::fmt;

/// Execution failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The input tensor width does not match the model's input layer.
    InputWidthMismatch { expected: usize, actual: usize },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::InputWidthMismatch { expected, actual } => write!(
                f,
                "input width {actual} does not match model input width {expected}"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Run the model on a `[batch, input_width]` tensor, returning the output
/// of the final layer.
pub fn execute(model: &Model, input: &Tensor) -> Result<Tensor, ExecError> {
    let trace = execute_traced(model, input)?;
    Ok(trace
        .into_iter()
        .next_back()
        .expect("validated model has at least one layer"))
}

/// Run the model and return the activation of *every* layer, indexed by
/// layer id. Entry 0 is the input itself.
pub fn execute_traced(model: &Model, input: &Tensor) -> Result<Vec<Tensor>, ExecError> {
    if input.cols() != model.input_width() {
        return Err(ExecError::InputWidthMismatch {
            expected: model.input_width(),
            actual: input.cols(),
        });
    }
    let mut acts: Vec<Tensor> = Vec::with_capacity(model.num_layers());
    for i in 0..model.num_layers() {
        let out = execute_layer(model, i, input, &acts);
        debug_assert_eq!(
            out.cols(),
            model.width_of(LayerId(i)),
            "layer {i} produced unexpected width"
        );
        acts.push(out);
    }
    Ok(acts)
}

/// Resume execution from a set of already-computed activations: layers with
/// ids in `overrides` take the provided tensor instead of being computed.
/// Used to emulate replacing a segment with a perturbed counterpart
/// (Section 4.2): run the model once, perturb the segment's tail
/// activation, then resume from there.
pub fn execute_with_overrides(
    model: &Model,
    input: &Tensor,
    overrides: &[(LayerId, Tensor)],
) -> Result<Tensor, ExecError> {
    if input.cols() != model.input_width() {
        return Err(ExecError::InputWidthMismatch {
            expected: model.input_width(),
            actual: input.cols(),
        });
    }
    let mut acts: Vec<Tensor> = Vec::with_capacity(model.num_layers());
    for i in 0..model.num_layers() {
        if let Some((_, t)) = overrides.iter().find(|(id, _)| id.index() == i) {
            acts.push(t.clone());
            continue;
        }
        let partial = execute_layer(model, i, input, &acts);
        acts.push(partial);
    }
    Ok(acts.into_iter().next_back().expect("non-empty"))
}

fn execute_layer(model: &Model, i: usize, input: &Tensor, acts: &[Tensor]) -> Tensor {
    let layer = &model.layers()[i];
    match &layer.op {
        Op::Input { .. } => input.clone(),
        Op::Dense { .. } => {
            let x = &acts[layer.inputs[0].index()];
            let w = layer.params.weight.as_ref().expect("dense weight");
            let mut y = ops::matmul(x, w);
            if let Some(b) = &layer.params.bias {
                ops::add_bias(&mut y, b);
            }
            y
        }
        Op::Conv1d { stride, .. } => ops::conv1d(
            &acts[layer.inputs[0].index()],
            layer.params.weight.as_ref().expect("conv kernel"),
            *stride,
        ),
        Op::Relu => ops::relu(&acts[layer.inputs[0].index()]),
        Op::LeakyRelu { slope } => ops::leaky_relu(&acts[layer.inputs[0].index()], *slope),
        Op::Tanh => ops::tanh(&acts[layer.inputs[0].index()]),
        Op::Sigmoid => ops::sigmoid(&acts[layer.inputs[0].index()]),
        Op::Softmax => ops::softmax(&acts[layer.inputs[0].index()]),
        Op::MaxPool { window } => ops::max_pool(&acts[layer.inputs[0].index()], *window),
        Op::MeanPool { window } => ops::mean_pool(&acts[layer.inputs[0].index()], *window),
        Op::L2Normalize => ops::l2_normalize(&acts[layer.inputs[0].index()]),
        Op::Scale => {
            let x = &acts[layer.inputs[0].index()];
            let scale = layer.params.weight.as_ref().expect("scale row");
            let mut y = Tensor::from_fn(x.rows(), x.cols(), |r, c| {
                x.get(r, c) * scale.get(0, c)
            });
            if let Some(shift) = &layer.params.bias {
                ops::add_bias(&mut y, shift);
            }
            y
        }
        Op::Add | Op::Multiply | Op::Concat => {
            let inputs: Vec<&Tensor> = layer.inputs.iter().map(|id| &acts[id.index()]).collect();
            match &layer.op {
                Op::Add => ops::add_n(&inputs),
                Op::Multiply => ops::multiply_n(&inputs),
                _ => ops::concat(&inputs),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_graph::{ModelBuilder, TaskKind};
    use sommelier_tensor::{Prng, Shape};

    fn rng() -> Prng {
        Prng::seed_from_u64(3)
    }

    #[test]
    fn dense_relu_forward_matches_hand_computation() {
        let w = Tensor::from_vec(2, 2, vec![1., -1., 2., 0.5]);
        let m = ModelBuilder::new("m", TaskKind::Other, Shape::vector(2))
            .dense_with(w, None)
            .relu()
            .build()
            .unwrap();
        let x = Tensor::row_vector(vec![1.0, 2.0]);
        let y = execute(&m, &x).unwrap();
        // x·W = [1+4, -1+1] = [5, 0] → relu → [5, 0]
        assert_eq!(y.as_slice(), &[5.0, 0.0]);
    }

    #[test]
    fn residual_add_feeds_both_paths() {
        let w = Tensor::identity(2);
        let mut b = ModelBuilder::new("m", TaskKind::Other, Shape::vector(2));
        let stem = b.cursor();
        b.dense_with(w, None);
        let branch = b.cursor();
        let m = b.add_from(&[stem, branch]).build().unwrap();
        let x = Tensor::row_vector(vec![3.0, 4.0]);
        let y = execute(&m, &x).unwrap();
        assert_eq!(y.as_slice(), &[6.0, 8.0]); // x + Ix
    }

    #[test]
    fn input_width_mismatch_rejected() {
        let mut r = rng();
        let m = ModelBuilder::new("m", TaskKind::Other, Shape::vector(4))
            .dense(2, &mut r)
            .build()
            .unwrap();
        let err = execute(&m, &Tensor::zeros(1, 5)).unwrap_err();
        assert_eq!(
            err,
            ExecError::InputWidthMismatch {
                expected: 4,
                actual: 5
            }
        );
    }

    #[test]
    fn trace_has_one_activation_per_layer() {
        let mut r = rng();
        let m = ModelBuilder::new("m", TaskKind::Other, Shape::vector(4))
            .dense(3, &mut r)
            .relu()
            .dense(2, &mut r)
            .build()
            .unwrap();
        let trace = execute_traced(&m, &Tensor::ones(2, 4)).unwrap();
        assert_eq!(trace.len(), m.num_layers());
        assert_eq!(trace[0].cols(), 4);
        assert_eq!(trace.last().unwrap().cols(), 2);
        assert_eq!(trace.last().unwrap().rows(), 2);
    }

    #[test]
    fn overrides_substitute_activations() {
        let mut r = rng();
        let m = ModelBuilder::new("m", TaskKind::Other, Shape::vector(3))
            .dense(3, &mut r)
            .relu()
            .dense(2, &mut r)
            .build()
            .unwrap();
        let x = Tensor::ones(1, 3);
        // Overriding the relu output with zeros must propagate: the final
        // dense layer sees zeros, so output is its bias (zero).
        let zero_relu = Tensor::zeros(1, 3);
        let y = execute_with_overrides(&m, &x, &[(LayerId(2), zero_relu)]).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn overrides_empty_matches_plain_execution() {
        let mut r = rng();
        let m = ModelBuilder::new("m", TaskKind::Other, Shape::vector(5))
            .dense(4, &mut r)
            .tanh()
            .dense(3, &mut r)
            .softmax()
            .build()
            .unwrap();
        let x = Tensor::gaussian(4, 5, 1.0, &mut r);
        let a = execute(&m, &x).unwrap();
        let b = execute_with_overrides(&m, &x, &[]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn batch_rows_execute_independently() {
        let mut r = rng();
        let m = ModelBuilder::new("m", TaskKind::Other, Shape::vector(6))
            .dense(4, &mut r)
            .relu()
            .dense(2, &mut r)
            .build()
            .unwrap();
        let x = Tensor::gaussian(3, 6, 1.0, &mut r);
        let batched = execute(&m, &x).unwrap();
        for row in 0..3 {
            let single = execute(&m, &x.row_tensor(row)).unwrap();
            for c in 0..2 {
                assert!((batched.get(row, c) - single.get(0, c)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn scale_applies_affine_per_feature() {
        let scale = Tensor::from_vec(1, 3, vec![2.0, 0.5, -1.0]);
        let shift = Tensor::from_vec(1, 3, vec![1.0, 0.0, 10.0]);
        let m = ModelBuilder::new("m", TaskKind::Other, Shape::vector(3))
            .scale_with(scale, Some(shift))
            .build()
            .unwrap();
        let x = Tensor::row_vector(vec![3.0, 4.0, 5.0]);
        let y = execute(&m, &x).unwrap();
        assert_eq!(y.as_slice(), &[7.0, 2.0, 5.0]);
    }

    #[test]
    fn unrolled_rnn_executes_and_is_bounded_by_tanh() {
        let mut r = rng();
        let m = ModelBuilder::new("rnn", TaskKind::Other, Shape::vector(6))
            .unrolled_rnn(4, &mut r)
            .build()
            .unwrap();
        let x = Tensor::gaussian(2, 6, 1.0, &mut r);
        let y = execute(&m, &x).unwrap();
        assert!(y.as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn pooling_and_concat_execute() {
        let r = rng();
        let mut b = ModelBuilder::new("m", TaskKind::Other, Shape::vector(8));
        let stem = b.cursor();
        b.max_pool(2);
        let p1 = b.cursor();
        b.goto(stem).mean_pool(2);
        let p2 = b.cursor();
        let m = b.concat_from(&[p1, p2]).build().unwrap();
        let x = Tensor::row_vector(vec![1., 3., 2., 2., 5., 1., 0., 4.]);
        let y = execute(&m, &x).unwrap();
        assert_eq!(y.as_slice(), &[3., 2., 5., 4., 2., 2., 3., 2.]);
        let _ = r;
    }
}
