//! Dense tensor substrate for the Sommelier DNN query engine.
//!
//! Sommelier (SIGMOD 2022) analyzes DNN models structurally (weight
//! matrices, singular values) and behaviourally (executing them over
//! validation data). Both require a small, dependable numeric kernel. This
//! crate provides exactly that: a dense `f32` [`Tensor`], the linear-algebra
//! helpers the equivalence analysis needs ([`linalg`]), and seeded random
//! sampling ([`rng`]) so every experiment in the reproduction is
//! deterministic.
//!
//! Design notes:
//! * Runtime execution in this reproduction flows 2-D `[batch, features]`
//!   tensors through the graph; higher-rank logical shapes (e.g. image
//!   `[224, 224, 3]`) are recorded as metadata and flattened for execution.
//!   The paper's analysis treats convolutions as reshaped 2-D matrices
//!   anyway (Section 4.2), so nothing is lost for equivalence assessment.
//! * Everything is deterministic given a seed. No global RNG state.

pub mod linalg;
pub mod ops;
pub mod rng;
pub mod shape;
pub mod tensor;

pub use rng::{mix64, stable_hash64, Mix64, Prng};
pub use shape::Shape;
pub use tensor::Tensor;
