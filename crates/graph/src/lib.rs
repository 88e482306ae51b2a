//! DNN graph intermediate representation.
//!
//! A DNN model in Sommelier is a directed acyclic graph of layers
//! (paper Figure 2): each node is an atomic operator with *attributes*
//! (tensor shapes and dependencies) and *parameters* (weights/biases). This
//! crate defines that IR along with everything the layers above need to
//! reason about a model without executing it:
//!
//! * the operator taxonomy ([`op`]) used by the error-propagation analysis
//!   — linear / activation / pooling / normalization / multi-source
//!   (paper Section 4.2);
//! * the model DAG itself ([`model`]) with structural validation and width
//!   inference;
//! * fluent construction ([`builder`]);
//! * stable content fingerprints ([`fingerprint`]) that key the semantic
//!   index (Section 5.2);
//! * hardware-independent cost accounting ([`cost`]): FLOPs, parameter
//!   counts, and memory — the paper's "computational complexity profiles"
//!   (Section 5.3);
//! * maximal linear chain extraction ([`chains`]) feeding the model-segment
//!   analysis (Section 4.2, Figure 4);
//! * an on-disk interchange format ([`serde_model`]), standing in for ONNX.

pub mod builder;
pub mod chains;
pub mod cost;
pub mod dot;
pub mod fingerprint;
pub mod layer;
pub mod model;
pub mod op;
pub mod serde_model;
pub mod task;

pub use builder::ModelBuilder;
pub use fingerprint::{Fingerprint, LayerKey};
pub use layer::{Layer, LayerId, Params};
pub use model::{Model, ModelError};
pub use op::{Op, OpKind};
pub use task::TaskKind;
