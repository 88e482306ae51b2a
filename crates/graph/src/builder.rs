//! Fluent model construction.
//!
//! [`ModelBuilder`] appends layers in topological order, tracking feature
//! widths so linear layers can size and initialize their weights. A
//! *cursor* points at the layer the next operation consumes; branching
//! (residual connections, Inception-style parallel paths) is expressed by
//! saving the cursor with [`ModelBuilder::cursor`], moving it with
//! [`ModelBuilder::goto`], and merging with the multi-source methods.

use crate::layer::{Layer, LayerId, Params};
use crate::model::{Model, ModelError};
use crate::op::Op;
use crate::task::TaskKind;
use sommelier_tensor::{Prng, Shape, Tensor};

/// Incremental builder for [`Model`].
///
/// ```
/// use sommelier_graph::{ModelBuilder, TaskKind};
/// use sommelier_tensor::{Prng, Shape};
///
/// let mut rng = Prng::seed_from_u64(1);
/// let model = ModelBuilder::new("mlp", TaskKind::Other, Shape::vector(8))
///     .dense(4, &mut rng)
///     .relu()
///     .dense(2, &mut rng)
///     .softmax()
///     .build()
///     .unwrap();
/// assert_eq!(model.output_width(), 2);
/// ```
pub struct ModelBuilder {
    name: String,
    task: TaskKind,
    input_shape: Shape,
    layers: Vec<Layer>,
    widths: Vec<usize>,
    cursor: LayerId,
}

impl ModelBuilder {
    /// Start a model; the input layer is created immediately with the
    /// flattened width of `input_shape`.
    pub fn new(name: impl Into<String>, task: TaskKind, input_shape: Shape) -> Self {
        let width = input_shape.flattened();
        ModelBuilder {
            name: name.into(),
            task,
            input_shape,
            layers: vec![Layer::new(
                "input",
                Op::Input { width },
                Vec::new(),
                Params::none(),
            )],
            widths: vec![width],
            cursor: LayerId(0),
        }
    }

    /// Id of the layer the next operation will consume.
    pub fn cursor(&self) -> LayerId {
        self.cursor
    }

    /// Move the cursor to an existing layer (to start a parallel branch).
    /// Panics on an out-of-range id.
    pub fn goto(&mut self, id: LayerId) -> &mut Self {
        assert!(id.index() < self.layers.len(), "goto out of range");
        self.cursor = id;
        self
    }

    /// Feature width at the cursor.
    pub fn current_width(&self) -> usize {
        self.widths[self.cursor.index()]
    }

    /// Number of layers appended so far.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    pub fn is_empty(&self) -> bool {
        false // the input layer always exists
    }

    fn push(&mut self, name: String, op: Op, inputs: Vec<LayerId>, params: Params) -> LayerId {
        let in_widths: Vec<usize> = inputs.iter().map(|i| self.widths[i.index()]).collect();
        let out = op
            .output_width(&in_widths)
            .unwrap_or_else(|| panic!("builder produced invalid widths for {op}"));
        let id = LayerId(self.layers.len());
        self.layers.push(Layer::new(name, op, inputs, params));
        self.widths.push(out);
        self.cursor = id;
        id
    }

    fn push_unary(&mut self, op: Op, params: Params) -> LayerId {
        let name = format!("{}_{}", op.type_tag(), self.layers.len());
        let input = self.cursor;
        self.push(name, op, vec![input], params)
    }

    /// Append a fully-connected layer with He-initialized weights and zero
    /// bias.
    pub fn dense(&mut self, units: usize, rng: &mut Prng) -> &mut Self {
        let fan_in = self.current_width();
        let std_dev = (2.0 / fan_in as f64).sqrt();
        let weight = Tensor::gaussian(fan_in, units, std_dev, rng);
        let bias = Tensor::zeros(1, units);
        self.push_unary(Op::Dense { units }, Params::with_weight_bias(weight, bias));
        self
    }

    /// Append a fully-connected layer with explicit parameters.
    pub fn dense_with(&mut self, weight: Tensor, bias: Option<Tensor>) -> &mut Self {
        let units = weight.cols();
        let params = match bias {
            Some(b) => Params::with_weight_bias(weight, b),
            None => Params::with_weight(weight),
        };
        self.push_unary(Op::Dense { units }, params);
        self
    }

    /// Append a 1-D convolution with He-initialized kernel.
    pub fn conv1d(
        &mut self,
        out_channels: usize,
        kernel_size: usize,
        stride: usize,
        rng: &mut Prng,
    ) -> &mut Self {
        let std_dev = (2.0 / kernel_size as f64).sqrt();
        let kernel = Tensor::gaussian(out_channels, kernel_size, std_dev, rng);
        self.push_unary(
            Op::Conv1d {
                out_channels,
                kernel_size,
                stride,
            },
            Params::with_weight(kernel),
        );
        self
    }

    /// Append a 1-D convolution with an explicit kernel
    /// (`[out_channels, kernel_size]`).
    pub fn conv1d_with(&mut self, kernel: Tensor, stride: usize) -> &mut Self {
        let (out_channels, kernel_size) = (kernel.rows(), kernel.cols());
        self.push_unary(
            Op::Conv1d {
                out_channels,
                kernel_size,
                stride,
            },
            Params::with_weight(kernel),
        );
        self
    }

    /// Append a ReLU activation.
    pub fn relu(&mut self) -> &mut Self {
        self.push_unary(Op::Relu, Params::none());
        self
    }

    /// Append a leaky ReLU activation.
    pub fn leaky_relu(&mut self, slope: f32) -> &mut Self {
        self.push_unary(Op::LeakyRelu { slope }, Params::none());
        self
    }

    /// Append a tanh activation.
    pub fn tanh(&mut self) -> &mut Self {
        self.push_unary(Op::Tanh, Params::none());
        self
    }

    /// Append a sigmoid activation.
    pub fn sigmoid(&mut self) -> &mut Self {
        self.push_unary(Op::Sigmoid, Params::none());
        self
    }

    /// Append a softmax readout.
    pub fn softmax(&mut self) -> &mut Self {
        self.push_unary(Op::Softmax, Params::none());
        self
    }

    /// Append non-overlapping max pooling.
    pub fn max_pool(&mut self, window: usize) -> &mut Self {
        self.push_unary(Op::MaxPool { window }, Params::none());
        self
    }

    /// Append non-overlapping mean pooling.
    pub fn mean_pool(&mut self, window: usize) -> &mut Self {
        self.push_unary(Op::MeanPool { window }, Params::none());
        self
    }

    /// Append row-wise l2 normalization.
    pub fn l2_normalize(&mut self) -> &mut Self {
        self.push_unary(Op::L2Normalize, Params::none());
        self
    }

    /// Append a per-feature affine transform (inference-time batch norm)
    /// initialized near identity: scale ≈ 1 ± jitter, shift ≈ 0 ± jitter.
    pub fn scale(&mut self, jitter: f64, rng: &mut Prng) -> &mut Self {
        let w = self.current_width();
        let scale = Tensor::from_fn(1, w, |_, _| 1.0 + rng.gaussian_with(0.0, jitter) as f32);
        let shift = Tensor::from_fn(1, w, |_, _| rng.gaussian_with(0.0, jitter) as f32);
        self.push_unary(Op::Scale, Params::with_weight_bias(scale, shift));
        self
    }

    /// Append a per-feature affine transform with explicit scale and
    /// shift rows (each `[1, width]`).
    pub fn scale_with(&mut self, scale: Tensor, shift: Option<Tensor>) -> &mut Self {
        let params = match shift {
            Some(b) => Params::with_weight_bias(scale, b),
            None => Params::with_weight(scale),
        };
        self.push_unary(Op::Scale, params);
        self
    }

    /// Append an unrolled recurrent cell: `steps` iterations of
    /// `h ← tanh(h·W_h + x·W_x)` where `x` is the activation at entry.
    /// The paper treats recurrent operators as compositions of basic
    /// operators — "each recurrent operator itself can be treated as a
    /// model segment" (Section 4.2); this builds exactly that segment.
    pub fn unrolled_rnn(&mut self, steps: usize, rng: &mut Prng) -> &mut Self {
        let x = self.cursor();
        let width = self.current_width();
        for _ in 0..steps {
            let h = self.cursor();
            self.goto(x).dense(width, rng);
            let from_x = self.cursor();
            self.goto(h).dense(width, rng);
            let from_h = self.cursor();
            self.add_from(&[from_x, from_h]).tanh();
        }
        self
    }

    /// Merge several branches element-wise (`Add`); the cursor moves to the
    /// merge layer.
    pub fn add_from(&mut self, inputs: &[LayerId]) -> &mut Self {
        let name = format!("add_{}", self.layers.len());
        self.push(name, Op::Add, inputs.to_vec(), Params::none());
        self
    }

    /// Concatenate several branches along the feature axis.
    pub fn concat_from(&mut self, inputs: &[LayerId]) -> &mut Self {
        let name = format!("concat_{}", self.layers.len());
        self.push(name, Op::Concat, inputs.to_vec(), Params::none());
        self
    }

    /// A residual block: two dense+ReLU layers whose output is added back
    /// to the block input (the idiom of ResNet [He et al. 2016], which the
    /// paper calls out as the structure transferred across 50+ models).
    pub fn residual_block(&mut self, rng: &mut Prng) -> &mut Self {
        let entry = self.cursor;
        let width = self.current_width();
        self.dense(width, rng).relu().dense(width, rng);
        let branch = self.cursor;
        self.add_from(&[entry, branch]).relu();
        self
    }

    /// Finish and validate the model.
    pub fn build(&mut self) -> Result<Model, ModelError> {
        Model::new(
            self.name.clone(),
            self.task,
            self.input_shape.clone(),
            self.layers.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Prng {
        Prng::seed_from_u64(7)
    }

    #[test]
    fn sequential_build_infers_widths() {
        let mut r = rng();
        let m = ModelBuilder::new("m", TaskKind::Other, Shape::vector(16))
            .dense(8, &mut r)
            .relu()
            .max_pool(2)
            .dense(5, &mut r)
            .softmax()
            .build()
            .unwrap();
        assert_eq!(m.output_width(), 5);
        assert_eq!(m.num_layers(), 6);
    }

    #[test]
    fn residual_block_round_trips_width() {
        let mut r = rng();
        let m = ModelBuilder::new("res", TaskKind::Other, Shape::vector(8))
            .residual_block(&mut r)
            .residual_block(&mut r)
            .build()
            .unwrap();
        assert_eq!(m.output_width(), 8);
        // input + 2 * (dense, relu, dense, add, relu)
        assert_eq!(m.num_layers(), 11);
    }

    #[test]
    fn branching_with_concat() {
        let mut r = rng();
        let mut b = ModelBuilder::new("inception", TaskKind::Other, Shape::vector(12));
        let stem = b.cursor();
        b.dense(4, &mut r).relu();
        let branch_a = b.cursor();
        b.goto(stem).dense(6, &mut r).tanh();
        let branch_b = b.cursor();
        let m = b.concat_from(&[branch_a, branch_b]).build().unwrap();
        assert_eq!(m.output_width(), 10);
    }

    #[test]
    fn cursor_tracks_last_layer() {
        let mut r = rng();
        let mut b = ModelBuilder::new("m", TaskKind::Other, Shape::vector(4));
        assert_eq!(b.cursor(), LayerId(0));
        b.dense(2, &mut r);
        assert_eq!(b.cursor(), LayerId(1));
        assert_eq!(b.current_width(), 2);
    }

    #[test]
    #[should_panic(expected = "goto out of range")]
    fn goto_rejects_bad_id() {
        let mut b = ModelBuilder::new("m", TaskKind::Other, Shape::vector(4));
        b.goto(LayerId(5));
    }

    #[test]
    fn scale_layer_keeps_width_and_params() {
        let mut r = rng();
        let m = ModelBuilder::new("m", TaskKind::Other, Shape::vector(6))
            .dense(4, &mut r)
            .scale(0.01, &mut r)
            .build()
            .unwrap();
        assert_eq!(m.output_width(), 4);
        let scale_layer = m.layer(LayerId(2));
        assert_eq!(scale_layer.op.type_tag(), "scale");
        assert_eq!(scale_layer.params.weight.as_ref().unwrap().cols(), 4);
        // near-identity: values around 1.
        for &v in scale_layer.params.weight.as_ref().unwrap().as_slice() {
            assert!((v - 1.0).abs() < 0.1);
        }
    }

    #[test]
    fn scale_dense_equivalent_is_diagonal() {
        let scale = Tensor::from_vec(1, 3, vec![2.0, -1.0, 0.5]);
        let m = ModelBuilder::new("m", TaskKind::Other, Shape::vector(3))
            .scale_with(scale, None)
            .build()
            .unwrap();
        let d = m.dense_equivalent(LayerId(1)).unwrap();
        assert_eq!(d.get(0, 0), 2.0);
        assert_eq!(d.get(1, 1), -1.0);
        assert_eq!(d.get(2, 2), 0.5);
        assert_eq!(d.get(0, 1), 0.0);
    }

    #[test]
    fn unrolled_rnn_builds_recurrent_composition() {
        let mut r = rng();
        let m = ModelBuilder::new("rnn", TaskKind::Other, Shape::vector(8))
            .unrolled_rnn(3, &mut r)
            .build()
            .unwrap();
        assert_eq!(m.output_width(), 8);
        // 3 steps × (dense, dense, add, tanh) after the input.
        assert_eq!(m.num_layers(), 1 + 3 * 4);
        let tags = m.op_tags();
        assert_eq!(tags.iter().filter(|t| *t == "tanh").count(), 3);
        assert_eq!(tags.iter().filter(|t| *t == "add").count(), 3);
    }

    #[test]
    fn dense_with_uses_given_weights() {
        let w = Tensor::from_fn(4, 2, |r, c| (r + c) as f32);
        let m = ModelBuilder::new("m", TaskKind::Other, Shape::vector(4))
            .dense_with(w.clone(), None)
            .build()
            .unwrap();
        assert_eq!(m.layer(LayerId(1)).params.weight.as_ref().unwrap(), &w);
    }
}
