//! The Sommelier query language and engine facade (paper Sections 5–6).
//!
//! A query names a reference model (or a task category for a default
//! reference), a functional-equivalence threshold, and relative or
//! absolute resource bounds (Figure 7's syntax):
//!
//! ```text
//! SELECT model CORR resnetish-50
//!     ON memory <= 80% AND flops <= 60%
//!     WITHIN 0.95
//!     ORDER BY similarity
//! ```
//!
//! Processing follows Section 5.4: the text is parsed into an AST
//! ([`ast`], [`lexer`], [`parser`]), planned into a pipeline of filters
//! ([`plan`]) — semantic filter, resource filter, final selection — and
//! executed against the two indices by the [`engine::Sommelier`] facade,
//! which also owns model registration (repository publish + index
//! insertion with the production [`engine::EquivAnalyzer`]).
//!
//! The engine is four files, one job each: `engine/analyzer.rs` holds
//! the pairwise analysis, `engine/reader.rs` the query path
//! ([`engine::SommelierReader`]), `engine/writer.rs` the mutations
//! ([`engine::Sommelier::apply`]) and `engine/open.rs` connect, restore,
//! recovery and save. Only the writer publishes a snapshot.

pub mod ast;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod plancache;

pub use ast::{FinalSelection, Query, RefSpec, ResourceDim, ResourcePredicate, SelectKind};
pub use engine::{
    BatchQueryItem, EngineSnapshot, MutationBatch, QueryError, QueryResult, SnapshotRecovery,
    Sommelier, SommelierConfig, SommelierReader,
};
pub use parser::{parse, ParseError};
pub use plan::{plan, plan_checked, PlanDiagnostic, QueryPlan};
pub use plancache::{normalize_query, PlanCache, PlanCacheStats};
