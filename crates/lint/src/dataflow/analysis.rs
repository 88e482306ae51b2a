//! Forward abstract interpretation over a model graph.
//!
//! One pass over the (topologically ordered) layers of a valid model
//! computes, per layer, an optional [`Interval`] — the hull of every
//! activation value the layer can produce when the model input stays
//! inside the analyzed input box.
//!
//! The interpreter never executes the model: dense and convolution
//! transfer functions fold the *weights* into interval arithmetic
//! (`O(params)` per layer, the same order as fingerprinting), which is
//! what lets the audit prove saturation and constant outputs without a
//! single forward pass — the paper's "no execution at curation time"
//! constraint.

use super::interval::Interval;
use sommelier_graph::{LayerId, Model, Op};

/// The result of one abstract interpretation run.
#[derive(Clone, Debug)]
pub struct ModelAnalysis {
    /// Per layer, indexed by layer id: the hull of its possible
    /// activation values; `None` when non-finite weights poison the
    /// arithmetic upstream.
    pub values: Vec<Option<Interval>>,
}

impl ModelAnalysis {
    /// The abstract output value of the model, if analyzable.
    pub fn output_value(&self) -> Option<Interval> {
        self.values.last().copied().flatten()
    }
}

/// Default input box for audits: zoo datasets and the runtime's
/// validation batches draw features from a standard-normal-ish range,
/// so `[-3, 3]` covers every realistic input without being vacuous.
pub const DEFAULT_INPUT: Interval = Interval { lo: -3.0, hi: 3.0 };

/// Run the forward interpreter with the model input confined to `input`.
pub fn analyze(model: &Model, input: Interval) -> ModelAnalysis {
    let n = model.num_layers();
    let mut values: Vec<Option<Interval>> = Vec::with_capacity(n);
    for (id, layer) in model.layers().iter().enumerate() {
        let in_values: Option<Vec<Interval>> =
            layer.inputs.iter().map(|id| values[id.index()]).collect();
        let width = model.width_of(LayerId(id));
        values.push(in_values.and_then(|ins| value_transfer(layer, &ins, width, input)));
    }
    ModelAnalysis { values }
}

/// Interval transfer for one layer. `width` is the layer's output
/// width; `model_input` the analyzed input box (consumed by the
/// source layer). Returns `None` when non-finite weights would poison
/// the arithmetic.
fn value_transfer(
    layer: &sommelier_graph::Layer,
    ins: &[Interval],
    width: usize,
    model_input: Interval,
) -> Option<Interval> {
    let finite = |t: &sommelier_tensor::Tensor| t.as_slice().iter().all(|v| v.is_finite());
    match &layer.op {
        Op::Input { .. } => Some(model_input),
        Op::Dense { units } => {
            let x = *ins.first()?;
            let weight = layer.params.weight.as_ref()?;
            if !finite(weight) || layer.params.bias.as_ref().is_some_and(|b| !finite(b)) {
                return None;
            }
            let mut hull: Option<Interval> = None;
            for j in 0..*units {
                let b = layer.params.bias.as_ref().map_or(0.0, |b| b.get(0, j) as f64);
                let mut acc = Interval::point(b);
                for i in 0..weight.rows() {
                    acc = acc + x.scale(weight.get(i, j) as f64);
                }
                hull = Some(hull.map_or(acc, |h| h.join(acc)));
            }
            hull
        }
        Op::Conv1d {
            out_channels,
            kernel_size,
            ..
        } => {
            let x = *ins.first()?;
            let kernel = layer.params.weight.as_ref()?;
            if !finite(kernel) {
                return None;
            }
            let mut hull: Option<Interval> = None;
            for c in 0..*out_channels {
                let mut acc = Interval::point(0.0);
                for k in 0..*kernel_size {
                    acc = acc + x.scale(kernel.get(c, k) as f64);
                }
                hull = Some(hull.map_or(acc, |h| h.join(acc)));
            }
            hull
        }
        Op::Scale => {
            let x = *ins.first()?;
            let scale = layer.params.weight.as_ref()?;
            if !finite(scale) || layer.params.bias.as_ref().is_some_and(|b| !finite(b)) {
                return None;
            }
            let mut hull: Option<Interval> = None;
            for i in 0..scale.cols() {
                let shift = layer.params.bias.as_ref().map_or(0.0, |b| b.get(0, i) as f64);
                let f = x.scale(scale.get(0, i) as f64).shift(shift);
                hull = Some(hull.map_or(f, |h| h.join(f)));
            }
            hull
        }
        Op::Relu => Some(ins.first()?.relu()),
        Op::LeakyRelu { slope } => Some(ins.first()?.leaky_relu(*slope as f64)),
        Op::Tanh => Some(ins.first()?.tanh()),
        Op::Sigmoid => Some(ins.first()?.sigmoid()),
        Op::Softmax => {
            // A point input means every feature holds the same value, so
            // softmax provably flattens to the uniform distribution.
            let x = *ins.first()?;
            Some(if x.is_point() {
                Interval::point(1.0 / width as f64)
            } else {
                Interval::new(0.0, 1.0)
            })
        }
        Op::L2Normalize => {
            let x = *ins.first()?;
            Some(if x.is_point() && x.lo != 0.0 {
                Interval::point(x.lo.signum() / (width as f64).sqrt())
            } else {
                Interval::new(-1.0, 1.0)
            })
        }
        Op::MaxPool { .. } | Op::MeanPool { .. } => ins.first().copied(),
        Op::Add => {
            let mut it = ins.iter();
            let first = *it.next()?;
            Some(it.fold(first, |acc, i| acc + *i))
        }
        Op::Multiply => {
            let mut it = ins.iter();
            let first = *it.next()?;
            Some(it.fold(first, |acc, i| acc * *i))
        }
        Op::Concat => {
            let mut it = ins.iter();
            let first = *it.next()?;
            Some(it.fold(first, |acc, i| acc.join(*i)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_graph::{ModelBuilder, TaskKind};
    use sommelier_tensor::{Prng, Shape, Tensor};

    fn mlp(seed: u64) -> Model {
        let mut rng = Prng::seed_from_u64(seed);
        ModelBuilder::new("m", TaskKind::Other, Shape::vector(4))
            .dense(8, &mut rng)
            .relu()
            .dense(3, &mut rng)
            .softmax()
            .build()
            .unwrap()
    }

    /// Liveness is the model's ([`Model::live_layers`]), not the
    /// interpreter's: a chain model is live throughout, and every layer
    /// gets a value.
    #[test]
    fn every_layer_of_a_chain_model_is_live() {
        let model = mlp(1);
        let analysis = analyze(&model, DEFAULT_INPUT);
        assert_eq!(analysis.values.len(), model.num_layers());
        for (i, (live, value)) in model.live_layers().iter().zip(&analysis.values).enumerate() {
            assert!(live, "layer {i} of a chain model is live");
            assert!(value.is_some(), "layer {i} of a finite model is analyzable");
        }
    }

    #[test]
    fn intervals_bound_a_concrete_execution() {
        let model = mlp(2);
        let analysis = analyze(&model, DEFAULT_INPUT);
        // Execute on a batch inside the input box and check containment
        // layer by layer would need the runtime; here we check the two
        // invariants the audit relies on: relu output is non-negative
        // and softmax output lands in [0, 1].
        let relu = analysis.values[2].unwrap();
        assert!(relu.lo >= 0.0);
        let out = analysis.output_value().unwrap();
        assert!(out.lo >= 0.0 && out.hi <= 1.0);
    }

    #[test]
    fn zero_weights_collapse_to_a_point() {
        let model = ModelBuilder::new("z", TaskKind::Other, Shape::vector(4))
            .dense_with(Tensor::zeros(4, 3), None)
            .build()
            .unwrap();
        let analysis = analyze(&model, DEFAULT_INPUT);
        let out = analysis.output_value().unwrap();
        assert!(out.is_point() && out.lo == 0.0);
    }

    #[test]
    fn non_finite_weights_poison_the_value_domain() {
        let mut w = Tensor::zeros(4, 3);
        w.set(0, 0, f32::INFINITY);
        let model = ModelBuilder::new("inf", TaskKind::Other, Shape::vector(4))
            .dense_with(w, None)
            .softmax()
            .build()
            .unwrap();
        let analysis = analyze(&model, DEFAULT_INPUT);
        assert!(analysis.values[1].is_none());
        assert!(analysis.output_value().is_none());
    }

    /// The interpreter values dead layers like any other; the deep
    /// pass reads [`Model::live_layers`] to skip them.
    #[test]
    fn dead_branches_are_unreachable() {
        let mut rng = Prng::seed_from_u64(3);
        let mut b = ModelBuilder::new("dead", TaskKind::Other, Shape::vector(4));
        b.dense(4, &mut rng);
        let trunk = b.cursor();
        b.relu();
        let live = b.cursor();
        b.goto(trunk);
        b.dense(2, &mut rng); // dead branch head
        let dead_head = b.cursor();
        b.relu(); // transitively dead: consumed, but only by dead layers
        let dead_tail = b.cursor();
        b.goto(live);
        b.softmax();
        let model = b.build().unwrap();
        let analysis = analyze(&model, DEFAULT_INPUT);
        let reachable = model.live_layers();
        for dead in [dead_head, dead_tail] {
            assert!(!reachable[dead.index()]);
            assert!(analysis.values[dead.index()].is_some());
        }
        assert!(reachable[live.index()]);
        assert!(reachable[0], "input feeds the live trunk");
    }
}
