//! Forward abstract interpretation over a model graph.
//!
//! One pass over the (topologically ordered) layers of a valid model
//! computes, per layer, an optional [`Interval`] — the hull of every
//! activation value the layer can produce when the model input stays
//! inside the analyzed input box. A backward reachability sweep from the output marks the layers
//! whose values can influence an inference at all.
//!
//! The interpreter never executes the model: dense and convolution
//! transfer functions fold the *weights* into interval arithmetic
//! (`O(params)` per layer, the same order as fingerprinting), which is
//! what lets the audit prove saturation and constant outputs without a
//! single forward pass — the paper's "no execution at curation time"
//! constraint.

use super::interval::Interval;
use sommelier_graph::{LayerId, Model, Op};

/// Abstract facts derived for one layer.
#[derive(Clone, Debug)]
pub struct LayerFact {
    /// Hull of the layer's possible activation values; `None` when
    /// non-finite weights poison the arithmetic upstream.
    pub value: Option<Interval>,
    /// Whether the layer can influence the model output.
    pub reachable: bool,
}

/// The result of one abstract interpretation run.
#[derive(Clone, Debug)]
pub struct ModelAnalysis {
    /// Per-layer facts, indexed by layer id.
    pub facts: Vec<LayerFact>,
}

impl ModelAnalysis {
    /// The abstract output value of the model, if analyzable.
    pub fn output_value(&self) -> Option<Interval> {
        self.facts.last().and_then(|f| f.value)
    }
}

/// Default input box for audits: zoo datasets and the runtime's
/// validation batches draw features from a standard-normal-ish range,
/// so `[-3, 3]` covers every realistic input without being vacuous.
pub const DEFAULT_INPUT: Interval = Interval { lo: -3.0, hi: 3.0 };

/// Run the forward interpreter with the model input confined to `input`.
pub fn analyze(model: &Model, input: Interval) -> ModelAnalysis {
    let n = model.num_layers();
    let mut facts: Vec<LayerFact> = Vec::with_capacity(n);
    for (id, layer) in model.layers().iter().enumerate() {
        let in_values: Option<Vec<Interval>> =
            layer.inputs.iter().map(|id| facts[id.index()].value).collect();
        let width = model.width_of(LayerId(id));
        let value = in_values.and_then(|ins| value_transfer(layer, &ins, width, input));
        facts.push(LayerFact {
            value,
            reachable: false,
        });
    }
    // Backward reachability from the output: a layer is live iff some
    // path of data dependencies connects it to the output layer.
    let mut stack = vec![model.output_id()];
    while let Some(id) = stack.pop() {
        let fact = &mut facts[id.index()];
        if fact.reachable {
            continue;
        }
        fact.reachable = true;
        stack.extend(model.layer(id).inputs.iter().copied());
    }
    ModelAnalysis { facts }
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

    #[test]
    fn every_layer_of_a_chain_model_is_live() {
        let model = mlp(1);
        let analysis = analyze(&model, DEFAULT_INPUT);
        assert_eq!(analysis.facts.len(), model.num_layers());
        for (i, fact) in analysis.facts.iter().enumerate() {
            assert!(fact.reachable, "layer {i} of a chain model is live");
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
        let relu = analysis.facts[2].value.unwrap();
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
        assert!(analysis.facts[1].value.is_none());
        assert!(analysis.output_value().is_none());
    }

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
        assert!(!analysis.facts[dead_head.index()].reachable);
        assert!(!analysis.facts[dead_tail.index()].reachable);
        assert!(analysis.facts[live.index()].reachable);
        assert!(analysis.facts[0].reachable, "input feeds the live trunk");
    }
}
