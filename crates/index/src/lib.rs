//! Index structures of the Sommelier query engine (paper Section 5).
//!
//! Two complementary indices let queries run without per-query model
//! analysis:
//!
//! * the **semantic index** ([`semantic`]) — a hashtable keyed by model
//!   fingerprint whose values are candidate lists sorted by functional-
//!   equivalence score. Insertion analyzes the new model against a small
//!   random sample of stored models and derives the remaining relations
//!   *transitively* (`|A−B| ≤ d ≤ A+B`), which is what makes indexing
//!   scale (Section 5.2);
//! * the **resource index** ([`resource`]) — a map from model key to its
//!   resource-profile vector: one hash probe per semantic candidate on the
//!   query path, one exact pass for the resource-only range query
//!   (Section 5.3).
//!
//! [`footprint`] accounts for the memory both structures occupy (Table 4),
//! and [`persist`] serializes them (Section 5.5 "Persistence": indices are
//! lightweight and can be populated to disk) — as readable JSON or as the
//! [`somb`] binary snapshot format built for O(1) open validation.

pub mod footprint;
pub mod persist;
pub mod resource;
pub mod semantic;
pub mod somb;

pub use persist::{IndexSnapshot, PersistError, SnapshotFormat};
pub use resource::{ResourceConstraint, ResourceIndex};
pub use semantic::{CandidateKind, CandidateRecord, EdgeMeasurement, PairAnalyzer, SemanticIndex};

// Kept for `benchmark/src/fixture.rs:79`, which no product PR may edit;
// delete with ROADMAP item 1.
#[doc(hidden)]
pub mod lsh {
    #[derive(Clone, Copy, Debug, Default)]
    pub struct LshConfig;
}
