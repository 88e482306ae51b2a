//! Functional-equivalence assessment between DNN models and segments.
//!
//! This crate implements Section 4 of the paper — the algorithmic core of
//! Sommelier:
//!
//! * [`iocheck`] — the fast input/output "type check" that filters out
//!   incomparable models before any execution (Section 4.1);
//! * [`genbound`] — the generalization error bound that turns a
//!   dataset-*dependent* empirical QoR difference into a
//!   dataset-*independent* bound (the Arora-et-al-style compression bound
//!   the paper cites);
//! * [`whole`] — whole-model equivalence: empirical QoR difference on a
//!   validation set, refined by the generalization bound and compared to
//!   the threshold ε (Section 4.1);
//! * [`segment`] — extraction of structurally identical model segments via
//!   longest-common-operator-sequence matching in `O(N²)` (Section 4.2,
//!   Figure 4);
//! * [`propagation`] — the inductive layer-wise output-difference bound:
//!   linear operators scale errors by their largest singular value,
//!   activations/pooling are non-expansive, normalization rescales
//!   (Section 4.2);
//! * [`assessment`] — completing the segment analysis: noise-injected
//!   twin-model QoR estimation with progressive segment removal
//!   (Section 4.2, steps i–iii), plus actual segment replacement surgery;
//! * [`modeldiff`] — the ModelDiff baseline (testing-based cosine
//!   similarity over decision distance vectors) compared against in
//!   Section 7.2 / Figure 11.

pub mod assessment;
pub mod explain;
pub mod genbound;
pub mod iocheck;
pub mod modeldiff;
pub mod propagation;
pub mod segment;
pub mod whole;

pub use explain::{explain, Explanation};
pub use genbound::GenBoundConfig;
pub use iocheck::{check_io, IoCompat, IoDescriptor};
pub use segment::MatchedSegment;
pub use whole::{assess_whole, EquivConfig, ProbeOutput, WholeModelReport};
