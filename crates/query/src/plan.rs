//! Query planning (paper Section 5.4).
//!
//! A query is executed as a pipeline of filtering operations: the
//! *semantic filter* (candidate lookup on the semantic index), the
//! *resource filter* (each candidate's profile, probed on the resource
//! index, against the bounds), and the *final selection*. Planning
//! resolves what the AST leaves symbolic: the reference key (task
//! references resolve to the default reference model), and relative
//! resource bounds against the reference model's profile, producing
//! the concrete multi-dimensional constraint vector
//! the paper describes ("memory less than 200 MB, computation complexity
//! less than 50 GFLOPS, and latency less than 30 ms is simply represented
//! as a vector (200, 50, 30)").

use crate::ast::{BoundValue, FinalSelection, Query, ResourceDim, SelectKind};
use serde::{Deserialize, Serialize};
use sommelier_index::ResourceConstraint;
use sommelier_runtime::ResourceProfile;

/// A fully resolved query plan.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QueryPlan {
    /// Resolved reference model key.
    pub reference_key: String,
    /// Minimum functional-equivalence score.
    pub min_score: f64,
    /// Resolved absolute resource bounds.
    pub constraint: ResourceConstraint,
    /// Final ordering criterion.
    pub selection: FinalSelection,
    /// Number of results to return.
    pub limit: usize,
}

/// A non-fatal observation produced while resolving a query into a plan.
///
/// Planning never fails — a questionable query still resolves to *some*
/// plan — but combinations that are statically unsatisfiable or redundant
/// are worth surfacing before the engine spends any work on them. The
/// `sommelier-lint` crate maps these onto its `SOM04x` diagnostic codes;
/// the engine itself treats them as advisory.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PlanDiagnostic {
    /// The `WITHIN` threshold exceeds 1.0: equivalence scores live in
    /// `[0, 1]`, so the semantic filter can never admit anything.
    UnsatisfiableThreshold { threshold: f64 },
    /// A resolved resource bound is non-positive: no profile can satisfy
    /// it, so the resource filter statically prunes to empty.
    EmptyBudget { dim: ResourceDim, bound: f64 },
    /// A predicate on a dimension is at least as loose as another on the
    /// same dimension; the looser bound can never influence the result.
    ShadowedPredicate {
        dim: ResourceDim,
        kept: f64,
        shadowed: f64,
    },
    /// `SELECT models 0`: the final selection statically returns nothing.
    LimitZero,
}

impl std::fmt::Display for PlanDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanDiagnostic::UnsatisfiableThreshold { threshold } => write!(
                f,
                "WITHIN {threshold} can never be satisfied (scores live in [0, 1])"
            ),
            PlanDiagnostic::EmptyBudget { dim, bound } => write!(
                f,
                "resolved {dim:?} bound {bound} is non-positive; no model can satisfy it"
            ),
            PlanDiagnostic::ShadowedPredicate { dim, kept, shadowed } => write!(
                f,
                "{dim:?} predicate {shadowed} is shadowed by the tighter bound {kept}"
            ),
            PlanDiagnostic::LimitZero => write!(f, "SELECT models 0 statically returns nothing"),
        }
    }
}

/// Resolve a query against a reference key and its resource profile,
/// collecting [`PlanDiagnostic`]s about statically suspicious plans.
pub fn plan_checked(
    query: &Query,
    reference_key: &str,
    reference_profile: &ResourceProfile,
) -> (QueryPlan, Vec<PlanDiagnostic>) {
    let mut diagnostics = Vec::new();
    if query.threshold > 1.0 {
        diagnostics.push(PlanDiagnostic::UnsatisfiableThreshold {
            threshold: query.threshold,
        });
    }
    let mut constraint = ResourceConstraint::default();
    for pred in &query.predicates {
        let bound = match (pred.dim, pred.value) {
            (ResourceDim::Memory, BoundValue::RelativePercent(p)) => {
                reference_profile.memory_mb * p / 100.0
            }
            (ResourceDim::Flops, BoundValue::RelativePercent(p)) => {
                reference_profile.gflops * p / 100.0
            }
            (ResourceDim::Latency, BoundValue::RelativePercent(p)) => {
                reference_profile.latency_ms * p / 100.0
            }
            (_, BoundValue::Absolute(v)) => v,
        };
        let slot = match pred.dim {
            ResourceDim::Memory => &mut constraint.max_memory_mb,
            ResourceDim::Flops => &mut constraint.max_gflops,
            ResourceDim::Latency => &mut constraint.max_latency_ms,
        };
        // Multiple predicates on the same dimension intersect (tightest
        // bound wins); the looser one is dead weight worth reporting.
        *slot = Some(match *slot {
            Some(existing) => {
                let (kept, shadowed) = if bound < existing {
                    (bound, existing)
                } else {
                    (existing, bound)
                };
                diagnostics.push(PlanDiagnostic::ShadowedPredicate {
                    dim: pred.dim,
                    kept,
                    shadowed,
                });
                kept
            }
            None => bound,
        });
    }
    for (dim, slot) in [
        (ResourceDim::Memory, constraint.max_memory_mb),
        (ResourceDim::Flops, constraint.max_gflops),
        (ResourceDim::Latency, constraint.max_latency_ms),
    ] {
        if let Some(bound) = slot {
            if bound <= 0.0 {
                diagnostics.push(PlanDiagnostic::EmptyBudget { dim, bound });
            }
        }
    }
    let limit = match query.select {
        SelectKind::Model => 1,
        SelectKind::Models(n) => n,
    };
    if limit == 0 {
        diagnostics.push(PlanDiagnostic::LimitZero);
    }
    (
        QueryPlan {
            reference_key: reference_key.to_string(),
            min_score: query.threshold,
            constraint,
            selection: query.selection,
            limit,
        },
        diagnostics,
    )
}

/// Resolve a query against a reference key and its resource profile.
pub fn plan(query: &Query, reference_key: &str, reference_profile: &ResourceProfile) -> QueryPlan {
    plan_checked(query, reference_key, reference_profile).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Query;

    fn profile() -> ResourceProfile {
        ResourceProfile {
            memory_mb: 100.0,
            gflops: 10.0,
            latency_ms: 20.0,
        }
    }

    #[test]
    fn relative_bounds_resolve_against_reference() {
        let q = Query::corr("ref")
            .memory_at_most_frac(0.8)
            .flops_at_most_frac(0.5);
        let p = plan(&q, "ref", &profile());
        assert_eq!(p.constraint.max_memory_mb, Some(80.0));
        assert_eq!(p.constraint.max_gflops, Some(5.0));
        assert_eq!(p.constraint.max_latency_ms, None);
        assert_eq!(p.limit, 1);
        assert_eq!(p.min_score, 0.95);
    }

    #[test]
    fn absolute_bounds_pass_through() {
        let q = Query::corr("ref").latency_at_most_ms(30.0);
        let p = plan(&q, "ref", &profile());
        assert_eq!(p.constraint.max_latency_ms, Some(30.0));
    }

    #[test]
    fn repeated_dimension_takes_tightest() {
        let q = Query::corr("ref")
            .memory_at_most_frac(0.8)
            .memory_at_most_frac(0.5);
        let p = plan(&q, "ref", &profile());
        assert_eq!(p.constraint.max_memory_mb, Some(50.0));
    }

    #[test]
    fn limit_tracks_select_kind() {
        let q = Query::corr("ref").top(7);
        assert_eq!(plan(&q, "ref", &profile()).limit, 7);
    }

    #[test]
    fn clean_query_plans_without_diagnostics() {
        let q = Query::corr("ref").within(0.9).memory_at_most_frac(0.8);
        let (_, diags) = plan_checked(&q, "ref", &profile());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn impossible_threshold_is_reported() {
        let q = Query::corr("ref").within(1.5);
        let (p, diags) = plan_checked(&q, "ref", &profile());
        assert_eq!(p.min_score, 1.5, "plan still resolves");
        assert!(diags
            .iter()
            .any(|d| matches!(d, PlanDiagnostic::UnsatisfiableThreshold { .. })));
    }

    #[test]
    fn non_positive_budget_is_reported() {
        let q = Query::corr("ref").latency_at_most_ms(-3.0);
        let (_, diags) = plan_checked(&q, "ref", &profile());
        assert!(diags.iter().any(|d| matches!(
            d,
            PlanDiagnostic::EmptyBudget {
                dim: ResourceDim::Latency,
                ..
            }
        )));
    }

    #[test]
    fn shadowed_predicate_is_reported() {
        let q = Query::corr("ref")
            .memory_at_most_frac(0.8)
            .memory_at_most_frac(0.5);
        let (p, diags) = plan_checked(&q, "ref", &profile());
        assert_eq!(p.constraint.max_memory_mb, Some(50.0));
        assert!(diags.iter().any(|d| matches!(
            d,
            PlanDiagnostic::ShadowedPredicate { kept, shadowed, .. }
                if *kept == 50.0 && *shadowed == 80.0
        )));
    }

    #[test]
    fn zero_limit_is_reported() {
        let q = Query::corr("ref").top(0);
        let (_, diags) = plan_checked(&q, "ref", &profile());
        assert!(diags.contains(&PlanDiagnostic::LimitZero));
    }
}
