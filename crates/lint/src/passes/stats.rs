//! `SOM05x` — snapshot stats-header lints.
//!
//! PR 2's parallel build pipeline writes a content-derived metrics
//! header ([`sommelier_index::persist::SnapshotStats`]) into every
//! snapshot: model count, candidate-record total, resource-entry count.
//! The header exists so audit tooling can sanity-check a snapshot
//! without deserializing the index bodies; this pass closes the loop by
//! validating the header *against* the bodies.
//!
//! Tolerance rules (the header evolves independently of the snapshot
//! format):
//!
//! * a snapshot with **no** header (pre-stats format) is an `Info`
//!   finding, never a failure;
//! * an **unknown** `stats_version` is a `Warn` and suppresses all
//!   field checks — a newer writer may have changed field semantics;
//! * **negative** counters and header/content **mismatches** are
//!   `Error`s: the header is a pure function of the contents, so any
//!   disagreement means corruption or hand-editing.

use crate::diagnostics::{codes, Diagnostic};
use crate::{LintContext, Pass};
use sommelier_index::persist::STATS_VERSION;

/// Validates the snapshot's stats header against the loaded indices.
pub struct SnapshotStatsPass;

impl Pass for SnapshotStatsPass {
    fn run(&self, ctx: &LintContext, out: &mut Vec<Diagnostic>) {
        // No snapshot at all → nothing to check.
        if ctx.semantic.is_none() && ctx.resource.is_none() {
            return;
        }
        let Some(stats) = &ctx.snapshot_stats else {
            out.push(Diagnostic::info(
                codes::MISSING_SNAPSHOT_STATS,
                "index-snapshot",
                "snapshot has no stats header (pre-stats format)",
            )
            .with_help("re-run `sommelier index` to refresh the snapshot"));
            return;
        };
        // Every version up to the current one is understood (version 1
        // is version 2 minus the epoch field); only a *newer* writer's
        // header has unknowable field semantics.
        if !(1..=STATS_VERSION).contains(&stats.stats_version) {
            out.push(Diagnostic::warn(
                codes::UNKNOWN_STATS_VERSION,
                "index-snapshot",
                format!(
                    "stats header declares version {} (this build knows {STATS_VERSION}); \
                     skipping field checks",
                    stats.stats_version
                ),
            ));
            return;
        }
        for (field, value) in [
            ("models", stats.models),
            ("candidate_records", stats.candidate_records),
            ("resource_entries", stats.resource_entries),
        ] {
            if value < 0 {
                out.push(Diagnostic::error(
                    codes::NEGATIVE_STATS_COUNTER,
                    "index-snapshot",
                    format!("stats counter '{field}' is negative ({value})"),
                ));
            }
        }
        if let Some(sem) = &ctx.semantic {
            let actual_models = sem.len() as i64;
            if stats.models != actual_models {
                out.push(Diagnostic::error(
                    codes::STATS_CONTENT_MISMATCH,
                    "index-snapshot",
                    format!(
                        "stats header records {} model(s) but the semantic index holds {}",
                        stats.models, actual_models
                    ),
                ));
            }
            let actual_records = sem.candidate_records() as i64;
            if stats.candidate_records != actual_records {
                out.push(Diagnostic::error(
                    codes::STATS_CONTENT_MISMATCH,
                    "index-snapshot",
                    format!(
                        "stats header records {} candidate record(s) but the semantic \
                         index holds {}",
                        stats.candidate_records, actual_records
                    ),
                ));
            }
        }
        if let Some(res) = &ctx.resource {
            let actual = res.len() as i64;
            if stats.resource_entries != actual {
                out.push(Diagnostic::error(
                    codes::STATS_CONTENT_MISMATCH,
                    "index-snapshot",
                    format!(
                        "stats header records {} resource entrie(s) but the resource \
                         index holds {}",
                        stats.resource_entries, actual
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;
    use sommelier_index::persist::SnapshotStats;
    use sommelier_index::semantic::SemanticIndexConfig;
    use sommelier_index::{ResourceIndex, SemanticIndex};

    fn run(ctx: &LintContext) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        SnapshotStatsPass.run(ctx, &mut out);
        out
    }

    fn ctx_with_indices() -> LintContext {
        let mut ctx = LintContext::new();
        ctx.semantic = Some(SemanticIndex::new(SemanticIndexConfig::default(), 1));
        ctx.resource = Some(ResourceIndex::default());
        ctx
    }

    #[test]
    fn no_snapshot_is_silent() {
        assert!(run(&LintContext::new()).is_empty());
    }

    #[test]
    fn missing_header_is_an_info_not_a_failure() {
        let ctx = ctx_with_indices();
        let out = run(&ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, codes::MISSING_SNAPSHOT_STATS);
        assert_eq!(out[0].severity, Severity::Info);
    }

    #[test]
    fn consistent_header_lints_clean() {
        let mut ctx = ctx_with_indices();
        ctx.snapshot_stats = Some(SnapshotStats::of(
            ctx.semantic.as_ref().unwrap(),
            ctx.resource.as_ref().unwrap(),
            0,
        ));
        assert!(run(&ctx).is_empty());
    }

    #[test]
    fn unknown_version_warns_and_skips_field_checks() {
        let mut ctx = ctx_with_indices();
        ctx.snapshot_stats = Some(SnapshotStats {
            stats_version: STATS_VERSION + 7,
            // Wildly wrong — but must NOT be reported under an unknown
            // version, whose field semantics we cannot assume.
            models: -5,
            candidate_records: 999,
            resource_entries: -1,
            epoch: None,
        });
        let out = run(&ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, codes::UNKNOWN_STATS_VERSION);
        assert_eq!(out[0].severity, Severity::Warn);
    }

    #[test]
    fn negative_counters_are_errors() {
        let mut ctx = ctx_with_indices();
        ctx.snapshot_stats = Some(SnapshotStats {
            stats_version: STATS_VERSION,
            models: -1,
            candidate_records: 0,
            resource_entries: 0,
            epoch: Some(1),
        });
        let out = run(&ctx);
        assert!(out
            .iter()
            .any(|d| d.code == codes::NEGATIVE_STATS_COUNTER && d.severity == Severity::Error));
    }

    #[test]
    fn content_mismatch_is_an_error() {
        let mut ctx = ctx_with_indices();
        ctx.snapshot_stats = Some(SnapshotStats {
            stats_version: STATS_VERSION,
            models: 12,
            candidate_records: 0,
            resource_entries: 0,
            epoch: Some(1),
        });
        let out = run(&ctx);
        assert!(out
            .iter()
            .any(|d| d.code == codes::STATS_CONTENT_MISMATCH && d.severity == Severity::Error));
    }
}
