//! Query-plan lints (`SOM040`–`SOM044`).
//!
//! Queries are linted by *planning* them, never executing them: the
//! reference is resolved against the stored models, relative bounds are
//! resolved against the reference's statically computed resource
//! profile, and the planner's own [`PlanDiagnostic`]s are mapped onto
//! the shared `SOM04x` codes. A query that names a reference no stored
//! model satisfies is itself a finding (`SOM043`): the semantic filter
//! would prune every candidate before any work happened.

use crate::diagnostics::{codes, Diagnostic};
use crate::{LintContext, Pass};
use sommelier_graph::Model;
use sommelier_query::plan::{plan_checked, PlanDiagnostic};
use sommelier_query::RefSpec;
use sommelier_runtime::ResourceProfile;

/// Static query analysis: unsatisfiable `WITHIN` thresholds (`SOM040`),
/// statically empty resource budgets (`SOM041`), shadowed predicates
/// (`SOM042`), references that prune to nothing (`SOM043`), and
/// `SELECT models 0` (`SOM044`).
pub struct QueryPlanPass;

impl QueryPlanPass {
    fn resolve<'a>(ctx: &'a LintContext, spec: &RefSpec) -> Option<(&'a str, &'a Model)> {
        match spec {
            RefSpec::Named(name) => ctx
                .models
                .iter()
                .find(|(key, model)| key == name || &model.name == name)
                .map(|(key, model)| (key.as_str(), model)),
            RefSpec::Task(task) => ctx
                .models
                .iter()
                .find(|(_, model)| model.task == *task)
                .map(|(key, model)| (key.as_str(), model)),
        }
    }
}

impl Pass for QueryPlanPass {
    fn run(&self, ctx: &LintContext, out: &mut Vec<Diagnostic>) {
        for (i, query) in ctx.queries.iter().enumerate() {
            let target = format!("query #{}", i + 1);
            let Some((key, model)) = Self::resolve(ctx, &query.reference) else {
                let what = match &query.reference {
                    RefSpec::Named(name) => format!("reference model '{name}'"),
                    RefSpec::Task(task) => format!("task {task:?} default reference"),
                };
                out.push(
                    Diagnostic::error(
                        codes::EMPTY_REFERENCE,
                        target,
                        format!("{what} matches no stored model; the query returns nothing"),
                    )
                    .with_help("check the reference name against `sommelier list`"),
                );
                continue;
            };
            let profile = ResourceProfile::of(model);
            let (_, plan_diags) = plan_checked(query, key, &profile);
            for d in plan_diags {
                out.push(match &d {
                    PlanDiagnostic::UnsatisfiableThreshold { .. } => {
                        Diagnostic::error(codes::UNSATISFIABLE_THRESHOLD, &target, d.to_string())
                            .with_help("WITHIN thresholds must lie in [0, 1]")
                    }
                    PlanDiagnostic::EmptyBudget { .. } => {
                        Diagnostic::error(codes::EMPTY_BUDGET, &target, d.to_string())
                            .with_help("loosen the bound or drop the predicate")
                    }
                    PlanDiagnostic::ShadowedPredicate { .. } => {
                        Diagnostic::info(codes::SHADOWED_PREDICATE, &target, d.to_string())
                            .with_help("the looser predicate can be removed")
                    }
                    PlanDiagnostic::LimitZero => {
                        Diagnostic::warn(codes::LIMIT_ZERO, &target, d.to_string())
                            .with_help("ask for at least one model")
                    }
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::Severity;
    use sommelier_graph::{ModelBuilder, TaskKind};
    use sommelier_query::Query;
    use sommelier_tensor::{Prng, Shape};

    fn ctx_with_ref() -> LintContext {
        let mut rng = Prng::seed_from_u64(1);
        let model = ModelBuilder::new("ref", TaskKind::SentimentAnalysis, Shape::vector(4))
            .dense(4, &mut rng)
            .relu()
            .dense(3, &mut rng)
            .softmax()
            .build()
            .unwrap();
        let mut ctx = LintContext::new();
        ctx.models.push(("ref".to_string(), model));
        ctx
    }

    fn lint(ctx: &LintContext) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        QueryPlanPass.run(ctx, &mut out);
        out
    }

    #[test]
    fn sound_query_is_clean() {
        let mut ctx = ctx_with_ref();
        ctx.queries.push(Query::corr("ref").within(0.9).memory_at_most_frac(0.8));
        assert!(lint(&ctx).is_empty());
    }

    #[test]
    fn impossible_threshold_is_an_error() {
        let mut ctx = ctx_with_ref();
        ctx.queries.push(Query::corr("ref").within(1.5));
        let diags = lint(&ctx);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, codes::UNSATISFIABLE_THRESHOLD);
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[0].target, "query #1");
    }

    #[test]
    fn empty_budget_is_an_error() {
        let mut ctx = ctx_with_ref();
        ctx.queries.push(Query::corr("ref").latency_at_most_ms(-3.0));
        let diags = lint(&ctx);
        assert!(diags.iter().any(|d| d.code == codes::EMPTY_BUDGET), "{diags:?}");
    }

    #[test]
    fn shadowed_predicate_is_informational() {
        let mut ctx = ctx_with_ref();
        ctx.queries.push(
            Query::corr("ref")
                .memory_at_most_frac(0.8)
                .memory_at_most_frac(0.5),
        );
        let diags = lint(&ctx);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, codes::SHADOWED_PREDICATE);
        assert_eq!(diags[0].severity, Severity::Info);
    }

    #[test]
    fn unknown_reference_is_an_error() {
        let mut ctx = ctx_with_ref();
        ctx.queries.push(Query::corr("ghost"));
        let diags = lint(&ctx);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, codes::EMPTY_REFERENCE);
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn task_reference_resolves_against_stored_tasks() {
        let mut ctx = ctx_with_ref();
        let mut matching = Query::corr("ignored");
        matching.reference = RefSpec::Task(TaskKind::SentimentAnalysis);
        let mut missing = Query::corr("ignored");
        missing.reference = RefSpec::Task(TaskKind::ObjectDetection);
        ctx.queries.push(matching);
        ctx.queries.push(missing);
        let diags = lint(&ctx);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, codes::EMPTY_REFERENCE);
        assert_eq!(diags[0].target, "query #2");
    }

    #[test]
    fn zero_limit_is_a_warning() {
        let mut ctx = ctx_with_ref();
        ctx.queries.push(Query::corr("ref").top(0));
        let diags = lint(&ctx);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, codes::LIMIT_ZERO);
        assert_eq!(diags[0].severity, Severity::Warn);
    }
}
