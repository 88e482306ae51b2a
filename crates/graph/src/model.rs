//! The model DAG.
//!
//! A [`Model`] is a validated directed acyclic graph of [`Layer`]s stored
//! in topological order: every layer's inputs have strictly smaller ids, so
//! acyclicity holds by construction and a plain forward scan is a valid
//! execution order. The first layer is the unique `Input` source and the
//! last layer is the model output.

use crate::layer::{Layer, LayerId, Params};
use crate::op::{Op, OpKind};
use crate::task::TaskKind;
use serde::{Deserialize, Serialize};
use sommelier_tensor::{Shape, Tensor};
use std::collections::BTreeMap;
use std::fmt;

/// Structural validation failure for a model.
#[derive(Clone, Debug, PartialEq)]
pub enum ModelError {
    /// Model has no layers.
    Empty,
    /// The first layer must be the unique `Input`.
    MissingInput,
    /// An `Input` operator appeared after layer 0.
    ExtraInput { layer: usize },
    /// The declared logical input shape flattens to a different width than
    /// the `Input` layer publishes.
    InputShapeMismatch { declared: usize, layer_width: usize },
    /// A layer referenced an input id ≥ its own id (breaks topological
    /// order) or an id out of range.
    BadInputRef { layer: usize, input: usize },
    /// A layer received the wrong number of inputs for its operator.
    BadArity {
        layer: usize,
        expected: usize,
        actual: usize,
    },
    /// The operator rejected its input widths (e.g. mismatched `Add`
    /// widths, kernel larger than its input).
    BadWidths { layer: usize },
    /// Parameter tensors have the wrong shape for the operator.
    BadParams { layer: usize, detail: String },
    /// A deserialized model caches an output width its layers do not
    /// produce.
    StaleWidth { layer: usize },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Empty => write!(f, "model has no layers"),
            ModelError::MissingInput => write!(f, "layer 0 must be an Input operator"),
            ModelError::ExtraInput { layer } => {
                write!(f, "layer {layer}: Input operators are only allowed at position 0")
            }
            ModelError::InputShapeMismatch {
                declared,
                layer_width,
            } => write!(
                f,
                "declared input shape flattens to {declared} but the Input layer publishes {layer_width}"
            ),
            ModelError::BadInputRef { layer, input } => {
                write!(f, "layer {layer}: input reference {input} is not an earlier layer")
            }
            ModelError::BadArity {
                layer,
                expected,
                actual,
            } => write!(f, "layer {layer}: expected {expected} inputs, got {actual}"),
            ModelError::BadWidths { layer } => {
                write!(f, "layer {layer}: operator rejected its input widths")
            }
            ModelError::BadParams { layer, detail } => {
                write!(f, "layer {layer}: bad parameters: {detail}")
            }
            ModelError::StaleWidth { layer } => {
                write!(f, "layer {layer}: stored output width disagrees with its operator")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// A validated DNN model.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Model {
    /// Repository-visible model name, e.g. `"resnetish-50"`.
    pub name: String,
    /// Version string; repositories key on `(name, version)`.
    pub version: String,
    /// Inference task category.
    pub task: TaskKind,
    /// Logical (pre-flattening) input shape, e.g. `[224, 224, 3]`.
    pub input_shape: Shape,
    /// Optional per-dimension output labels for classification tasks
    /// (paper Section 4.1: syntax check between models).
    pub output_syntax: Option<Vec<String>>,
    /// Free-form annotations (provenance, series, notes).
    pub metadata: BTreeMap<String, String>,
    layers: Vec<Layer>,
    /// Cached inferred output width of each layer.
    widths: Vec<usize>,
}

impl Model {
    /// Validate and construct a model. See [`ModelError`] for the checks.
    pub fn new(
        name: impl Into<String>,
        task: TaskKind,
        input_shape: Shape,
        layers: Vec<Layer>,
    ) -> Result<Model, ModelError> {
        let widths = Self::checked_widths(&input_shape, &layers)?;
        Ok(Model {
            name: name.into(),
            version: "1".into(),
            task,
            input_shape,
            output_syntax: None,
            metadata: BTreeMap::new(),
            layers,
            widths,
        })
    }

    /// Re-run [`Model::new`]'s checks, and check the cached widths
    /// against them. A model from `new` always passes; one deserialized
    /// from a file is taken as written and may not.
    pub fn validate(&self) -> Result<(), ModelError> {
        let widths = Self::checked_widths(&self.input_shape, &self.layers)?;
        if widths != self.widths {
            let layer = widths.iter().zip(&self.widths).take_while(|(a, b)| a == b).count();
            return Err(ModelError::StaleWidth { layer });
        }
        Ok(())
    }

    /// The checks behind [`Model::new`]: each layer's output width, or
    /// the first layer that fails.
    fn checked_widths(input_shape: &Shape, layers: &[Layer]) -> Result<Vec<usize>, ModelError> {
        if layers.is_empty() {
            return Err(ModelError::Empty);
        }
        let Op::Input { width } = layers[0].op else {
            return Err(ModelError::MissingInput);
        };
        if input_shape.flattened() != width {
            return Err(ModelError::InputShapeMismatch {
                declared: input_shape.flattened(),
                layer_width: width,
            });
        }
        let mut widths = Vec::with_capacity(layers.len());
        for (i, layer) in layers.iter().enumerate() {
            if i > 0 && matches!(layer.op, Op::Input { .. }) {
                return Err(ModelError::ExtraInput { layer: i });
            }
            if let Some(expected) = layer.op.arity() {
                if layer.inputs.len() != expected {
                    return Err(ModelError::BadArity {
                        layer: i,
                        expected,
                        actual: layer.inputs.len(),
                    });
                }
            } else if layer.inputs.is_empty() {
                return Err(ModelError::BadArity {
                    layer: i,
                    expected: 1,
                    actual: 0,
                });
            }
            let mut in_widths = Vec::with_capacity(layer.inputs.len());
            for &input in &layer.inputs {
                if input.index() >= i {
                    return Err(ModelError::BadInputRef {
                        layer: i,
                        input: input.index(),
                    });
                }
                in_widths.push(widths[input.index()]);
            }
            let out = layer
                .op
                .output_width(&in_widths)
                .ok_or(ModelError::BadWidths { layer: i })?;
            Self::check_params(i, layer, &in_widths)?;
            widths.push(out);
        }
        Ok(widths)
    }

    fn check_params(i: usize, layer: &Layer, in_widths: &[usize]) -> Result<(), ModelError> {
        let bad = |detail: String| ModelError::BadParams { layer: i, detail };
        match &layer.op {
            Op::Dense { units } => {
                let w = layer
                    .params
                    .weight
                    .as_ref()
                    .ok_or_else(|| bad("Dense layer requires a weight".into()))?;
                if w.rows() != in_widths[0] || w.cols() != *units {
                    return Err(bad(format!(
                        "Dense weight is {}x{}, expected {}x{}",
                        w.rows(),
                        w.cols(),
                        in_widths[0],
                        units
                    )));
                }
                if let Some(b) = &layer.params.bias {
                    if b.rows() != 1 || b.cols() != *units {
                        return Err(bad(format!(
                            "Dense bias is {}x{}, expected 1x{}",
                            b.rows(),
                            b.cols(),
                            units
                        )));
                    }
                }
            }
            Op::Conv1d {
                out_channels,
                kernel_size,
                ..
            } => {
                let w = layer
                    .params
                    .weight
                    .as_ref()
                    .ok_or_else(|| bad("Conv1d layer requires a kernel".into()))?;
                if w.rows() != *out_channels || w.cols() != *kernel_size {
                    return Err(bad(format!(
                        "Conv1d kernel is {}x{}, expected {}x{}",
                        w.rows(),
                        w.cols(),
                        out_channels,
                        kernel_size
                    )));
                }
                if layer.params.bias.is_some() {
                    return Err(bad("Conv1d does not take a bias".into()));
                }
            }
            Op::Scale => {
                let width = in_widths[0];
                let w = layer
                    .params
                    .weight
                    .as_ref()
                    .ok_or_else(|| bad("Scale layer requires a scale row".into()))?;
                if w.rows() != 1 || w.cols() != width {
                    return Err(bad(format!(
                        "Scale weight is {}x{}, expected 1x{width}",
                        w.rows(),
                        w.cols()
                    )));
                }
                if let Some(b) = &layer.params.bias {
                    if b.rows() != 1 || b.cols() != width {
                        return Err(bad(format!(
                            "Scale shift is {}x{}, expected 1x{width}",
                            b.rows(),
                            b.cols()
                        )));
                    }
                }
            }
            _ => {
                if layer.params.count() != 0 {
                    return Err(bad("non-linear operators carry no parameters".into()));
                }
            }
        }
        Ok(())
    }

    /// All layers in topological order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Layer lookup by id.
    pub fn layer(&self, id: LayerId) -> &Layer {
        &self.layers[id.index()]
    }

    /// Number of layers (including the input source).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Output feature width of a layer.
    pub fn width_of(&self, id: LayerId) -> usize {
        self.widths[id.index()]
    }

    /// Flattened input width.
    pub fn input_width(&self) -> usize {
        self.widths[0]
    }

    /// Width of the model output (the last layer).
    pub fn output_width(&self) -> usize {
        *self.widths.last().expect("validated model is non-empty")
    }

    /// Id of the output layer.
    pub fn output_id(&self) -> LayerId {
        LayerId(self.layers.len() - 1)
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Layer::param_count).sum()
    }

    /// Ids of layers carrying parameters (the linear operators), in order.
    pub fn linear_layers(&self) -> Vec<LayerId> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.op.kind() == OpKind::Linear)
            .map(|(i, _)| LayerId(i))
            .collect()
    }

    /// For each layer, the ids of the layers that consume its output.
    pub fn consumers(&self) -> Vec<Vec<LayerId>> {
        let mut out = vec![Vec::new(); self.layers.len()];
        for (i, layer) in self.layers.iter().enumerate() {
            for &input in &layer.inputs {
                out[input.index()].push(LayerId(i));
            }
        }
        out
    }

    /// For each layer, whether some path of data dependencies connects
    /// it to the output layer. A layer that is not live is dead
    /// computation, even when a (dead) layer consumes it.
    pub fn live_layers(&self) -> Vec<bool> {
        let mut live = vec![false; self.layers.len()];
        live[self.output_id().index()] = true;
        // Every input has a smaller id than its consumer, so one
        // backward sweep settles each layer before its inputs.
        for (i, layer) in self.layers.iter().enumerate().rev() {
            if live[i] {
                for input in &layer.inputs {
                    live[input.index()] = true;
                }
            }
        }
        live
    }

    /// Longest path length (in layers) from input to output; a proxy for
    /// model depth `d` in the generalization bound (paper Section 4.1).
    pub fn depth(&self) -> usize {
        let mut dist = vec![0usize; self.layers.len()];
        for (i, layer) in self.layers.iter().enumerate() {
            let longest_in = layer
                .inputs
                .iter()
                .map(|id| dist[id.index()])
                .max()
                .unwrap_or(0);
            dist[i] = longest_in + usize::from(i > 0);
        }
        *dist.last().unwrap_or(&0)
    }

    /// The dense-equivalent weight matrix of a linear layer: a `[in, out]`
    /// matrix `M` such that the layer computes `x · M` (plus bias, for
    /// Dense). Returns `None` for non-linear layers.
    ///
    /// Convolution kernels are materialized into their (sparse) dense form,
    /// which is how the paper's analysis treats them (Section 4.2: kernels
    /// "are always internally reshaped into a single 2D matrix").
    pub fn dense_equivalent(&self, id: LayerId) -> Option<Tensor> {
        let layer = self.layer(id);
        match &layer.op {
            Op::Dense { .. } => layer.params.weight.clone(),
            Op::Scale => {
                let scale = layer.params.weight.as_ref()?;
                let w = scale.cols();
                let mut diag = Tensor::zeros(w, w);
                for i in 0..w {
                    diag.set(i, i, scale.get(0, i));
                }
                Some(diag)
            }
            Op::Conv1d {
                out_channels,
                kernel_size,
                stride,
            } => {
                let input_width = self.width_of(layer.inputs[0]);
                let windows = (input_width - kernel_size) / stride + 1;
                let kernel = layer.params.weight.as_ref()?;
                let mut dense = Tensor::zeros(input_width, out_channels * windows);
                for o in 0..*out_channels {
                    for j in 0..windows {
                        for c in 0..*kernel_size {
                            let r = j * stride + c;
                            let col = o * windows + j;
                            dense.set(r, col, dense.get(r, col) + kernel.get(o, c));
                        }
                    }
                }
                Some(dense)
            }
            _ => None,
        }
    }

    /// Replace the parameters of a layer, revalidating shapes. Used by the
    /// zoo's fine-tuning simulation and by segment replacement.
    pub fn set_params(&mut self, id: LayerId, params: Params) -> Result<(), ModelError> {
        let in_widths: Vec<usize> = self.layers[id.index()]
            .inputs
            .iter()
            .map(|i| self.widths[i.index()])
            .collect();
        let mut candidate = self.layers[id.index()].clone();
        candidate.params = params;
        Self::check_params(id.index(), &candidate, &in_widths)?;
        self.layers[id.index()] = candidate;
        Ok(())
    }

    /// Split the model into a parameter-free *skeleton* plus the
    /// extracted `(layer, params)` pairs, in layer order. This is the
    /// storage shape of `sommelier-repo`'s chunked manifests: the
    /// skeleton travels inline in the manifest while the parameter
    /// tensors travel as content-addressed chunks. The skeleton is not
    /// a valid executable model (its linear layers are bare) and exists
    /// only to be rehydrated by [`Model::attach_params`]. The parameters
    /// are borrowed, so no tensor is copied.
    pub fn strip_params(&self) -> (Model, Vec<(LayerId, &Params)>) {
        let bare = |l: &Layer| Layer::new(&l.name, l.op.clone(), l.inputs.clone(), Params::none());
        let skeleton = Model {
            name: self.name.clone(),
            version: self.version.clone(),
            task: self.task,
            input_shape: self.input_shape.clone(),
            output_syntax: self.output_syntax.clone(),
            metadata: self.metadata.clone(),
            layers: self.layers.iter().map(bare).collect(),
            widths: self.widths.clone(),
        };
        let extracted = self
            .layers
            .iter()
            .enumerate()
            .filter(|(_, layer)| layer.params.count() != 0)
            .map(|(i, layer)| (LayerId(i), &layer.params))
            .collect();
        (skeleton, extracted)
    }

    /// Rehydrate a skeleton produced by [`Model::strip_params`]:
    /// reattach every extracted parameter set, then [`Model::validate`]
    /// the whole model. A skeleton read from a file is taken as written,
    /// so a forged width, arity or input reference, a parameter of the
    /// wrong shape, or a parameterized operator left bare (a truncated
    /// manifest) is refused here rather than served.
    pub fn attach_params(
        skeleton: &Model,
        params: impl IntoIterator<Item = (LayerId, Params)>,
    ) -> Result<Model, ModelError> {
        let mut model = skeleton.clone();
        let num_layers = model.layers.len();
        for (id, p) in params {
            let layer = model.layers.get_mut(id.index()).ok_or(ModelError::BadParams {
                layer: id.index(),
                detail: format!("no such layer (model has {num_layers})"),
            })?;
            layer.params = p;
        }
        model.validate()?;
        Ok(model)
    }

    /// A copy of this model under a new name (same structure and weights).
    pub fn renamed(&self, name: impl Into<String>) -> Model {
        let mut m = self.clone();
        m.name = name.into();
        m
    }

    /// Operator type tags along the topological order — the "operational
    /// sequence" view used by segment extraction (paper Section 4.2).
    pub fn op_tags(&self) -> Vec<String> {
        self.layers.iter().map(|l| l.op.type_tag()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;
    use sommelier_tensor::Prng;

    fn tiny_model() -> Model {
        let mut rng = Prng::seed_from_u64(1);
        ModelBuilder::new("tiny", TaskKind::ImageRecognition, Shape::vector(8))
            .dense(4, &mut rng)
            .relu()
            .dense(3, &mut rng)
            .softmax()
            .build()
            .unwrap()
    }

    #[test]
    fn empty_model_rejected() {
        assert_eq!(
            Model::new("m", TaskKind::Other, Shape::vector(1), vec![]),
            Err(ModelError::Empty)
        );
    }

    #[test]
    fn first_layer_must_be_input() {
        let layers = vec![Layer::new("r", Op::Relu, vec![], Params::none())];
        assert_eq!(
            Model::new("m", TaskKind::Other, Shape::vector(1), layers),
            Err(ModelError::MissingInput)
        );
    }

    #[test]
    fn input_shape_must_flatten_to_input_width() {
        let layers = vec![Layer::new(
            "in",
            Op::Input { width: 10 },
            vec![],
            Params::none(),
        )];
        let err = Model::new("m", TaskKind::Other, Shape::vector(9), layers).unwrap_err();
        assert!(matches!(err, ModelError::InputShapeMismatch { .. }));
    }

    #[test]
    fn forward_references_rejected() {
        let layers = vec![
            Layer::new("in", Op::Input { width: 4 }, vec![], Params::none()),
            Layer::new("r", Op::Relu, vec![LayerId(1)], Params::none()),
        ];
        let err = Model::new("m", TaskKind::Other, Shape::vector(4), layers).unwrap_err();
        assert!(matches!(err, ModelError::BadInputRef { layer: 1, input: 1 }));
    }

    #[test]
    fn dense_weight_shape_checked() {
        let layers = vec![
            Layer::new("in", Op::Input { width: 4 }, vec![], Params::none()),
            Layer::new(
                "d",
                Op::Dense { units: 3 },
                vec![LayerId(0)],
                Params::with_weight(Tensor::zeros(5, 3)), // wrong in-width
            ),
        ];
        let err = Model::new("m", TaskKind::Other, Shape::vector(4), layers).unwrap_err();
        assert!(matches!(err, ModelError::BadParams { layer: 1, .. }));
    }

    #[test]
    fn widths_inferred_along_graph() {
        let m = tiny_model();
        assert_eq!(m.input_width(), 8);
        assert_eq!(m.output_width(), 3);
        assert_eq!(m.width_of(LayerId(1)), 4);
    }

    #[test]
    fn param_count_totals_linear_layers() {
        let m = tiny_model();
        // dense1: 8*4 + 4; dense2: 4*3 + 3
        assert_eq!(m.param_count(), 32 + 4 + 12 + 3);
        assert_eq!(m.linear_layers().len(), 2);
    }

    #[test]
    fn depth_counts_longest_path() {
        let m = tiny_model();
        assert_eq!(m.depth(), 4); // dense, relu, dense, softmax
    }

    #[test]
    fn consumers_inverts_edges() {
        let m = tiny_model();
        let cons = m.consumers();
        assert_eq!(cons[0], vec![LayerId(1)]);
        assert!(cons[m.output_id().index()].is_empty());
    }

    #[test]
    fn live_layers_exclude_transitively_dead_branches() {
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
        let m = b.build().unwrap();
        let flags = m.live_layers();
        assert!(!flags[dead_head.index()] && !flags[dead_tail.index()]);
        assert!(flags[live.index()] && flags[trunk.index()]);
        assert!(flags[0], "input feeds the live trunk");
        assert!(tiny_model().live_layers().iter().all(|&l| l), "a chain is all live");
    }

    #[test]
    fn dense_equivalent_of_conv_matches_execution() {
        use sommelier_tensor::ops;
        let mut rng = Prng::seed_from_u64(2);
        let m = ModelBuilder::new("c", TaskKind::Other, Shape::vector(6))
            .conv1d(2, 3, 1, &mut rng)
            .build()
            .unwrap();
        let conv_id = LayerId(1);
        let dense = m.dense_equivalent(conv_id).unwrap();
        let x = Tensor::gaussian(3, 6, 1.0, &mut rng);
        let kernel = m.layer(conv_id).params.weight.as_ref().unwrap();
        let direct = ops::conv1d(&x, kernel, 1);
        let via_dense = ops::matmul(&x, &dense);
        for (a, b) in direct.as_slice().iter().zip(via_dense.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn set_params_revalidates() {
        let mut m = tiny_model();
        let id = m.linear_layers()[0];
        let err = m.set_params(id, Params::with_weight(Tensor::zeros(1, 1)));
        assert!(err.is_err());
        let ok = m.set_params(
            id,
            Params::with_weight_bias(Tensor::zeros(8, 4), Tensor::zeros(1, 4)),
        );
        assert!(ok.is_ok());
        assert_eq!(m.layer(id).params.weight.as_ref().unwrap().max_abs(), 0.0);
    }

    fn owned(params: Vec<(LayerId, &Params)>) -> Vec<(LayerId, Params)> {
        params.into_iter().map(|(id, p)| (id, p.clone())).collect()
    }

    #[test]
    fn strip_then_attach_round_trips() {
        let m = tiny_model();
        let (skeleton, params) = m.strip_params();
        assert_eq!(skeleton.param_count(), 0);
        assert_eq!(skeleton.op_tags(), m.op_tags());
        assert_eq!(params.len(), 2);
        let back = Model::attach_params(&skeleton, owned(params)).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn skeleton_is_the_model_with_bare_layers() {
        let m = tiny_model();
        let mut bare = m.clone();
        for layer in &mut bare.layers {
            layer.params = Params::none();
        }
        assert_eq!(m.strip_params().0, bare);
    }

    #[test]
    fn attach_rejects_bare_parameterized_layers() {
        let m = tiny_model();
        let (skeleton, mut params) = m.strip_params();
        params.pop(); // lose the last dense layer's weights
        let err = Model::attach_params(&skeleton, owned(params)).unwrap_err();
        assert!(matches!(err, ModelError::BadParams { .. }));
    }

    #[test]
    fn attach_rejects_out_of_range_layer() {
        let m = tiny_model();
        let (skeleton, mut params) = m.strip_params();
        let stray = Params::with_weight(Tensor::zeros(1, 1));
        params.push((LayerId(99), &stray));
        assert!(Model::attach_params(&skeleton, owned(params)).is_err());
    }

    #[test]
    fn attach_rejects_a_skeleton_whose_widths_lie() {
        let m = tiny_model();
        let (mut skeleton, params) = m.strip_params();
        // Layer 2 is a relu: no parameter is checked against its width.
        skeleton.widths[2] += 1;
        let err = Model::attach_params(&skeleton, owned(params)).unwrap_err();
        assert_eq!(err, ModelError::StaleWidth { layer: 2 });
    }

    #[test]
    fn extra_input_rejected() {
        let layers = vec![
            Layer::new("in", Op::Input { width: 4 }, vec![], Params::none()),
            Layer::new("in2", Op::Input { width: 4 }, vec![], Params::none()),
        ];
        let err = Model::new("m", TaskKind::Other, Shape::vector(4), layers).unwrap_err();
        assert_eq!(err, ModelError::ExtraInput { layer: 1 });
    }

    #[test]
    fn op_tags_reflect_structure() {
        let m = tiny_model();
        assert_eq!(
            m.op_tags(),
            vec!["input:8", "dense:4", "relu", "dense:3", "softmax"]
        );
    }
}
