//! Built-in lint passes, grouped by what they look at.
//!
//! * [`model`] — pure-graph analyses of stored models (`SOM00x`,
//!   `SOM081`);
//! * [`index`] — cross-checks between the repository and the persisted
//!   semantic/resource indices (`SOM02x`);
//! * [`plan`] — static analyses of parsed query ASTs (`SOM04x`);
//! * [`store`] — store-directory hygiene: quarantined artifacts,
//!   orphaned temp files, non-canonical file names (`SOM07x`);
//! * [`deep`] — the abstract-interpretation dataflow family and the
//!   cross-artifact consistency join (`SOM083`–`SOM086`, `SOM09x`).
//!
//! Passes only read the [`crate::LintContext`]; they never execute a
//! model and never mutate an index.

#[cfg(test)]
mod binary;
pub mod deep;
pub mod index;
pub mod model;
pub mod plan;
pub mod store;
