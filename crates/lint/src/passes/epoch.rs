//! `SOM06x` — snapshot publication-epoch lints.
//!
//! PR 4's snapshot query path publishes every index mutation as an
//! immutable snapshot stamped with a monotonically increasing epoch; the
//! epoch is persisted in the stats header so a restarted engine resumes
//! the sequence instead of restarting it (which would let a stale plan
//! cache serve results from a different index under a recycled key).
//! This pass validates the persisted epoch against the header that
//! carries it:
//!
//! * `SOM060` — the epoch is negative, or the snapshot holds models but
//!   claims epoch 0: every registration bumps the epoch, so a populated
//!   snapshot at epoch 0 means the header was hand-edited or the
//!   sequence regressed;
//! * `SOM061` — the header's shape disagrees with its declared version:
//!   a version-2 header without an epoch field is an error, a version-1
//!   header (pre-epoch format) is merely noted.
//!
//! A candidate naming a key the snapshot never registered is no record
//! its edge table derives, so the index pass reports it (`SOM021`).
//!
//! As in the stats pass, an unknown (newer) `stats_version` suppresses
//! the header checks — its field semantics are unknowable here.

use crate::diagnostics::{codes, Diagnostic};
use crate::{LintContext, Pass};
use sommelier_index::persist::STATS_VERSION;

/// Validates the snapshot's publication epoch.
pub struct SnapshotEpochPass;

impl Pass for SnapshotEpochPass {
    fn run(&self, ctx: &LintContext, out: &mut Vec<Diagnostic>) {
        if let Some(stats) = &ctx.snapshot_stats {
            // Unknown versions are the stats pass's SOM051; field checks
            // would be guesses.
            if (1..=STATS_VERSION).contains(&stats.stats_version) {
                match stats.epoch {
                    Some(e) if e < 0 => out.push(Diagnostic::error(
                        codes::EPOCH_REGRESSION,
                        "index-snapshot",
                        format!("publication epoch is negative ({e})"),
                    )),
                    Some(0) if stats.models > 0 => out.push(
                        Diagnostic::error(
                            codes::EPOCH_REGRESSION,
                            "index-snapshot",
                            format!(
                                "snapshot holds {} model(s) but claims publication epoch 0; \
                                 every registration bumps the epoch",
                                stats.models
                            ),
                        )
                        .with_help("re-run `sommelier index` to refresh the snapshot"),
                    ),
                    Some(_) => {}
                    None if stats.stats_version >= 2 => out.push(Diagnostic::error(
                        codes::EPOCH_HEADER_MISMATCH,
                        "index-snapshot",
                        format!(
                            "stats header declares version {} but carries no epoch field",
                            stats.stats_version
                        ),
                    )),
                    None => out.push(Diagnostic::info(
                        codes::EPOCH_HEADER_MISMATCH,
                        "index-snapshot",
                        "version-1 stats header predates epoch stamping",
                    )),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;
    use sommelier_index::persist::SnapshotStats;
    use sommelier_index::SemanticIndex;

    fn run(ctx: &LintContext) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        SnapshotEpochPass.run(ctx, &mut out);
        out
    }

    fn stats(version: u32, models: i64, epoch: Option<i64>) -> SnapshotStats {
        SnapshotStats {
            stats_version: version,
            models,
            candidate_records: 0,
            resource_entries: 0,
            epoch,
        }
    }

    /// `m-a` and `m-b` registered, `m-a`'s candidates reference `m-b`
    /// plus three keys this snapshot never published; the one edge
    /// derives only the first record.
    fn semantic_with_unregistered_refs() -> SemanticIndex {
        serde_json::from_str(
            r#"{
                "config": {"sample_size": 5, "segments": true, "max_candidates": 64},
                "entries": {
                    "1": {"key": "m-a", "candidates": [
                        {"key": "m-b", "diff_bound": 0.1, "score": 0.9, "kind": "Whole"},
                        {"key": "phantom", "diff_bound": 0.2, "score": 0.8, "kind": "Whole"},
                        {"key": "m-b", "diff_bound": 0.3, "score": 0.7,
                         "kind": {"Transitive": {"via": "gone"}}},
                        {"key": "m-a", "diff_bound": 0.4, "score": 0.6,
                         "kind": {"Synthesized": {"donor": "missing"}}}
                    ]},
                    "2": {"key": "m-b", "candidates": []}
                },
                "by_key": {"m-a": 1, "m-b": 2},
                "order": ["m-a", "m-b"],
                "seed_state": 0,
                "edges": [{"lo": 1, "hi": 2, "fwd": 0.1, "rev": null,
                           "seg_fwd": null, "seg_rev": null}]
            }"#,
        )
        .expect("fixture parses")
    }

    #[test]
    fn empty_context_is_silent() {
        assert!(run(&LintContext::new()).is_empty());
    }

    #[test]
    fn well_formed_header_lints_clean() {
        let mut ctx = LintContext::new();
        ctx.snapshot_stats = Some(stats(STATS_VERSION, 3, Some(3)));
        assert!(run(&ctx).is_empty());
        // An empty snapshot legitimately sits at epoch 0.
        ctx.snapshot_stats = Some(stats(STATS_VERSION, 0, Some(0)));
        assert!(run(&ctx).is_empty());
    }

    #[test]
    fn negative_or_regressed_epoch_is_an_error() {
        let mut ctx = LintContext::new();
        ctx.snapshot_stats = Some(stats(STATS_VERSION, 0, Some(-2)));
        let out = run(&ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, codes::EPOCH_REGRESSION);
        assert_eq!(out[0].severity, Severity::Error);

        // Populated snapshot at epoch 0: registrations happened without
        // publications.
        ctx.snapshot_stats = Some(stats(STATS_VERSION, 5, Some(0)));
        let out = run(&ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, codes::EPOCH_REGRESSION);
    }

    #[test]
    fn header_version_must_match_epoch_presence() {
        let mut ctx = LintContext::new();
        ctx.snapshot_stats = Some(stats(2, 1, None));
        let out = run(&ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, codes::EPOCH_HEADER_MISMATCH);
        assert_eq!(out[0].severity, Severity::Error);

        // A version-1 header never carried an epoch — note, don't fail.
        ctx.snapshot_stats = Some(stats(1, 1, None));
        let out = run(&ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, codes::EPOCH_HEADER_MISMATCH);
        assert_eq!(out[0].severity, Severity::Info);
    }

    #[test]
    fn unknown_versions_skip_the_header_checks() {
        let mut ctx = LintContext::new();
        ctx.snapshot_stats = Some(stats(STATS_VERSION + 9, 5, Some(-1)));
        assert!(run(&ctx).is_empty());
    }

    #[test]
    fn unregistered_candidate_references_are_errors() {
        let mut ctx = LintContext::new();
        // `phantom` IS stored in the repository, so the index key check
        // (SOM020) stays silent about it; the snapshot still never
        // registered it, and no edge derives a record naming it.
        ctx.models.push(("phantom".into(), {
            use sommelier_graph::builder::ModelBuilder;
            use sommelier_graph::TaskKind;
            use sommelier_tensor::{Prng, Shape};
            let mut rng = Prng::seed_from_u64(1);
            ModelBuilder::new("phantom", TaskKind::Other, Shape::vector(4))
                .dense(3, &mut rng)
                .softmax()
                .build()
                .unwrap()
        }));
        ctx.semantic = Some(semantic_with_unregistered_refs());
        // The epoch pass reads the header only.
        assert!(run(&ctx).is_empty());
        let mut out = Vec::new();
        crate::passes::index::IndexIntegrityPass.run(&ctx, &mut out);
        let underived: Vec<&Diagnostic> = out
            .iter()
            .filter(|d| d.code == codes::UNDERIVED_CANDIDATES)
            .collect();
        assert_eq!(underived.len(), 1, "{out:?}");
        // `m-b` at 0.1 is the one record the edge table derives.
        let message = &underived[0].message;
        assert!(message.contains("'m-a'"), "{message}");
        assert!(message.contains("record 1: stored Whole 'phantom'"), "{message}");
        assert!(message.ends_with("derived none"), "{message}");
        assert_eq!(underived[0].severity, Severity::Error);
    }

    #[test]
    fn registered_candidates_lint_clean() {
        let mut ctx = LintContext::new();
        let semantic: SemanticIndex = serde_json::from_str(
            r#"{
                "config": {"sample_size": 5, "segments": true, "max_candidates": 64},
                "entries": {
                    "1": {"key": "m-a", "candidates": [
                        {"key": "m-b", "diff_bound": 0.1, "score": 0.9, "kind": "Whole"}
                    ]},
                    "2": {"key": "m-b", "candidates": []}
                },
                "by_key": {"m-a": 1, "m-b": 2},
                "order": ["m-a", "m-b"],
                "seed_state": 0,
                "edges": [{"lo": 1, "hi": 2, "fwd": 0.1, "rev": null,
                           "seg_fwd": null, "seg_rev": null}]
            }"#,
        )
        .expect("fixture parses");
        assert!(semantic.underived_entries().is_empty());
        ctx.semantic = Some(semantic);
        assert!(run(&ctx).is_empty());
    }
}
