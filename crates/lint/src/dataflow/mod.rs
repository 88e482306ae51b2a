//! Abstract-interpretation dataflow analysis over model graphs.
//!
//! The deep pass family (`SOM081`–`SOM086`) needs facts that the
//! shallow per-layer lints cannot see: whether a value can ever escape
//! an activation's saturation region, whether the output can vary at
//! all, whether a layer can reach the output. Those are dataflow
//! properties over a model whose shapes already hold (the repository
//! loads only models that pass `Model::validate`), so this module
//! provides one abstract domain and the forward interpreter over it:
//!
//! * [`interval`] — closed `[lo, hi]` intervals with sound transfer
//!   functions for every operator in the taxonomy;
//! * [`analysis`] — one forward pass per model producing per-layer
//!   [`LayerFact`]s plus backward output-reachability.

pub mod analysis;
pub mod interval;

pub use analysis::{analyze, LayerFact, ModelAnalysis, DEFAULT_INPUT};
pub use interval::Interval;
