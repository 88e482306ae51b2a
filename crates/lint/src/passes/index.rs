//! Repository & index invariant lints (`SOM020`–`SOM024`).
//!
//! The persisted indices are derived data: every key they register must
//! exist in the repository, every candidate list must be exactly the one
//! its edge table derives, directly measured bounds must be mutually
//! consistent, and the snapshot must not predate the artifacts it
//! summarizes. Each of these is checked here without touching a single
//! weight. What a snapshot holds on its own (a profile for every key,
//! finite profiles, a header that matches it) is the decoder's to check:
//! a snapshot that breaks it never reaches a pass (`SOM027`).

use crate::diagnostics::{codes, Diagnostic};
use crate::{LintContext, Pass};
use sommelier_index::{CandidateKind, CandidateRecord};
use std::collections::{HashMap, HashSet};

const SEMANTIC: &str = "semantic-index";
const RESOURCE: &str = "resource-index";

/// Tolerance on top of [`TrianglePass::SLACK`]: measured bounds
/// round-trip the snapshot exactly, so only rounding noise is forgiven.
const TRIANGLE_EPS: f64 = 1e-9;

/// Referential and derivation invariants of both indices: dangling keys
/// (`SOM020`) and candidate lists that differ from their derivation
/// (`SOM021`). Every derived record names an entry, so checking the
/// entry keys against the store covers every candidate too.
pub struct IndexIntegrityPass;

/// One record as a `SOM021` finding prints it; `none` past a list's end.
fn describe(c: Option<&CandidateRecord>) -> String {
    c.map_or("none".into(), |c| {
        format!("{:?} '{}' bound {:?} score {:?}", c.kind, c.key, c.diff_bound, c.score)
    })
}

impl Pass for IndexIntegrityPass {
    fn run(&self, ctx: &LintContext, out: &mut Vec<Diagnostic>) {
        let stored: HashSet<&str> = ctx.models.iter().map(|(k, _)| k.as_str()).collect();
        if let Some(semantic) = &ctx.semantic {
            for (key, _) in semantic.by_key_audit() {
                if !stored.contains(key) {
                    out.push(
                        Diagnostic::error(
                            codes::DANGLING_KEY,
                            SEMANTIC,
                            format!("indexed key '{key}' has no stored model"),
                        )
                        .with_help("re-run `sommelier index` to rebuild from the repository"),
                    );
                }
            }
            for (key, at, derived) in semantic.underived_entries() {
                let stored = describe(semantic.candidates_of(key).get(at));
                let derived = describe(derived.as_ref());
                out.push(
                    Diagnostic::error(
                        codes::UNDERIVED_CANDIDATES,
                        SEMANTIC,
                        format!(
                            "candidate list of '{key}' differs from its edge table's \
                             derivation at record {at}: stored {stored}, derived {derived}"
                        ),
                    )
                    .with_help("re-run `sommelier index` to rebuild from the repository"),
                );
            }
        }
        if let Some(resource) = &ctx.resource {
            for (key, _) in resource.entries_audit() {
                if !stored.contains(key) {
                    out.push(
                        Diagnostic::error(
                            codes::DANGLING_KEY,
                            RESOURCE,
                            format!("profiled key '{key}' has no stored model"),
                        )
                        .with_help("re-run `sommelier index` to rebuild from the repository"),
                    );
                }
            }
        }
    }
}

/// `SOM023`: transitive consistency of directly measured bounds.
///
/// Only `Whole` (directly measured) edges participate: transitive and
/// synthesized bounds tighten asynchronously as more pairs are measured,
/// so comparing them against each other produces false alarms on healthy
/// indices. Even measured bounds use a *relative* QoR normalization, so
/// the strict triangle inequality need not hold — we flag only gross
/// violations beyond [`TrianglePass::SLACK`]×.
pub struct TrianglePass;

impl TrianglePass {
    /// Multiplicative slack on the triangle bound.
    pub const SLACK: f64 = 1.5;
}

impl Pass for TrianglePass {
    fn run(&self, ctx: &LintContext, out: &mut Vec<Diagnostic>) {
        let Some(semantic) = &ctx.semantic else { return };
        // All directly measured edges, keyed both ways.
        let mut whole: HashMap<(&str, &str), f64> = HashMap::new();
        for (_, key, candidates) in semantic.entries_audit() {
            for c in candidates {
                if matches!(c.kind, CandidateKind::Whole) {
                    whole.insert((key, c.key.as_str()), c.diff_bound);
                    whole.insert((c.key.as_str(), key), c.diff_bound);
                }
            }
        }
        for (_, x, candidates) in semantic.entries_audit() {
            let edges: Vec<(&str, f64)> = candidates
                .iter()
                .filter(|c| matches!(c.kind, CandidateKind::Whole))
                .map(|c| (c.key.as_str(), c.diff_bound))
                .collect();
            for (i, &(y, dxy)) in edges.iter().enumerate() {
                for &(z, dxz) in &edges[i + 1..] {
                    let Some(&dyz) = whole.get(&(y, z)) else {
                        continue;
                    };
                    // The longest side against the detour through the
                    // opposite vertex.
                    let (long, a, b) = if dxz >= dxy { (dxz, dxy, dyz) } else { (dxy, dxz, dyz) };
                    if long > Self::SLACK * (a + b) + TRIANGLE_EPS {
                        out.push(
                            Diagnostic::error(
                                codes::TRIANGLE_VIOLATION,
                                SEMANTIC,
                                format!(
                                    "measured bounds among '{x}', '{y}', '{z}' are inconsistent: \
                                     {long} exceeds {slack}x the detour {a} + {b}",
                                    slack = Self::SLACK
                                ),
                            )
                            .with_help("one of the three measurements is likely corrupt"),
                        );
                    }
                }
            }
        }
    }
}

/// `SOM024`: the snapshot must not be older than any stored model file.
/// A model republished after the last `sommelier index` run is invisible
/// (or stale) to every query until the indices are rebuilt.
pub struct FreshnessPass;

impl Pass for FreshnessPass {
    fn run(&self, ctx: &LintContext, out: &mut Vec<Diagnostic>) {
        let Some(index_mtime) = ctx.index_mtime else { return };
        let newer: Vec<&str> = ctx
            .model_mtimes
            .iter()
            .filter(|(_, mtime)| *mtime > index_mtime)
            .map(|(key, _)| key.as_str())
            .collect();
        if let Some(example) = newer.first() {
            out.push(
                Diagnostic::warn(
                    codes::STALE_INDEX,
                    "index-snapshot",
                    format!(
                        "{} model file(s) are newer than the index snapshot (e.g. '{example}')",
                        newer.len()
                    ),
                )
                .with_help("re-run `sommelier index` to refresh the snapshot"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::Severity;
    use sommelier_graph::{Model, ModelBuilder, TaskKind};
    use sommelier_index::persist::{IndexSnapshot, SnapshotStats, SNAPSHOT_VERSION};
    use sommelier_index::{ResourceIndex, SemanticIndex};
    use sommelier_runtime::ResourceProfile;
    use sommelier_tensor::{Prng, Shape};
    use std::time::{Duration, SystemTime};

    fn model(name: &str, seed: u64) -> Model {
        let mut rng = Prng::seed_from_u64(seed);
        ModelBuilder::new(name, TaskKind::Other, Shape::vector(4))
            .dense(4, &mut rng)
            .relu()
            .dense(3, &mut rng)
            .softmax()
            .build()
            .unwrap()
    }

    fn run(pass: &dyn Pass, ctx: &LintContext) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        pass.run(ctx, &mut out);
        out
    }

    /// A handcrafted corrupt semantic index: `ghost` is indexed but not
    /// stored, and `m-a`'s candidate list, which no edge derives, is out
    /// of order, references the missing `ghost`, and records a score
    /// that disagrees with its diff bound.
    fn corrupt_semantic_json() -> String {
        r#"{
            "config": {"sample_size": 5, "segments": true, "max_candidates": 64},
            "entries": {
                "1": {"key": "m-a", "candidates": [
                    {"key": "ghost", "diff_bound": 0.5, "score": 0.5, "kind": "Whole"},
                    {"key": "m-b", "diff_bound": 0.2, "score": 0.9, "kind": "Whole"}
                ]},
                "2": {"key": "ghost", "candidates": []}
            },
            "by_key": {"m-a": 1, "ghost": 2},
            "order": ["m-a", "ghost"],
            "seed_state": 0,
            "edges": []
        }"#
        .to_string()
    }

    fn ctx_with_models(names: &[&str]) -> LintContext {
        let mut ctx = LintContext::new();
        for (i, name) in names.iter().enumerate() {
            ctx.models.push((name.to_string(), model(name, i as u64)));
        }
        ctx
    }

    #[test]
    fn consistent_index_lints_clean() {
        let mut ctx = ctx_with_models(&["m-a", "m-b"]);
        let semantic: SemanticIndex = serde_json::from_str(
            r#"{
                "config": {"sample_size": 5, "segments": true, "max_candidates": 64},
                "entries": {
                    "1": {"key": "m-a", "candidates": [
                        {"key": "m-b", "diff_bound": 0.1, "score": 0.9, "kind": "Whole"}
                    ]},
                    "2": {"key": "m-b", "candidates": [
                        {"key": "m-a", "diff_bound": 0.1, "score": 0.9, "kind": "Whole"}
                    ]}
                },
                "by_key": {"m-a": 1, "m-b": 2},
                "order": ["m-a", "m-b"],
                "seed_state": 0,
                "edges": [{"lo": 1, "hi": 2, "fwd": 0.1, "rev": 0.1,
                           "seg_fwd": null, "seg_rev": null}]
            }"#,
        )
        .expect("fixture parses");
        let mut resource = ResourceIndex::default();
        for (key, model) in &ctx.models {
            resource.insert(key.clone(), ResourceProfile::of(model));
        }
        ctx.semantic = Some(semantic);
        ctx.resource = Some(resource);
        let diags = run(&IndexIntegrityPass, &ctx);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(run(&TrianglePass, &ctx).is_empty());
    }

    #[test]
    fn corrupt_semantic_index_reports_dangling_unsorted_and_mismatch() {
        let mut ctx = ctx_with_models(&["m-a", "m-b"]);
        ctx.semantic = Some(serde_json::from_str(&corrupt_semantic_json()).expect("parses"));
        let diags = run(&IndexIntegrityPass, &ctx);
        // `ghost` dangles as an indexed key; the order, the score and the
        // dangling candidate all make `m-a`'s list one no edge derives,
        // reported once from its first record.
        let of = |code| -> Vec<&str> {
            diags
                .iter()
                .filter(|d| d.code == code)
                .map(|d| d.message.as_str())
                .collect()
        };
        assert_eq!(of(codes::DANGLING_KEY), ["indexed key 'ghost' has no stored model"]);
        let underived = of(codes::UNDERIVED_CANDIDATES);
        assert_eq!(underived.len(), 1, "{diags:?}");
        assert!(underived[0].contains("'m-a'"), "{underived:?}");
        assert!(underived[0].contains("record 0: stored Whole 'ghost'"), "{underived:?}");
        assert!(underived[0].ends_with("derived none"), "{underived:?}");
        assert_eq!(
            diags.iter().map(|d| d.severity).max(),
            Some(Severity::Error)
        );
    }

    /// Three models with exactly representable bounds: `m-a ↔ m-c` and
    /// `m-c ↔ m-b` measured at 0.125, `m-a ↔ m-b` never attempted, and
    /// `m-c` donating a segment to `m-a` at 0.375. `m_a` is `m-a`'s list.
    fn derivable_semantic_json(m_a: &str) -> String {
        format!(
            r#"{{
                "config": {{"sample_size": 5, "segments": true, "max_candidates": 64}},
                "entries": {{
                    "1": {{"key": "m-a", "candidates": [{m_a}]}},
                    "2": {{"key": "m-b", "candidates": [
                        {{"key": "m-c", "diff_bound": 0.125, "score": 0.875, "kind": "Whole"}},
                        {{"key": "m-a", "diff_bound": 0.25, "score": 0.75,
                         "kind": {{"Transitive": {{"via": "m-c"}}}}}}
                    ]}},
                    "3": {{"key": "m-c", "candidates": [
                        {{"key": "m-a", "diff_bound": 0.125, "score": 0.875, "kind": "Whole"}},
                        {{"key": "m-b", "diff_bound": 0.125, "score": 0.875, "kind": "Whole"}}
                    ]}}
                }},
                "by_key": {{"m-a": 1, "m-b": 2, "m-c": 3}},
                "order": ["m-a", "m-b", "m-c"],
                "seed_state": 0,
                "edges": [
                    {{"lo": 1, "hi": 3, "fwd": 0.125, "rev": 0.125,
                     "seg_fwd": 0.375, "seg_rev": null}},
                    {{"lo": 2, "hi": 3, "fwd": 0.125, "rev": 0.125,
                     "seg_fwd": null, "seg_rev": null}}
                ]
            }}"#
        )
    }

    #[test]
    fn transitive_via_and_synthesized_donor_must_exist() {
        let m_a = |via: &str, donor: &str| {
            format!(
                r#"{{"key": "m-c", "diff_bound": 0.125, "score": 0.875, "kind": "Whole"}},
                   {{"key": "m-b", "diff_bound": 0.25, "score": 0.75,
                    "kind": {{"Transitive": {{"via": "{via}"}}}}}},
                   {{"key": "m-a+m-c", "diff_bound": 0.375, "score": 0.625,
                    "kind": {{"Synthesized": {{"donor": "{donor}"}}}}}}"#
            )
        };
        let lint = |list: String| {
            let mut ctx = ctx_with_models(&["m-a", "m-b", "m-c"]);
            ctx.semantic = Some(
                serde_json::from_str(&derivable_semantic_json(&list)).expect("fixture parses"),
            );
            run(&IndexIntegrityPass, &ctx)
        };
        let clean = lint(m_a("m-c", "m-c"));
        assert!(clean.is_empty(), "{clean:?}");
        // A via or donor that names no model is a record no edge derives;
        // the synthesized candidate's own key is a variant name, never
        // reported as dangling.
        for (list, at) in [(m_a("gone", "m-c"), 1), (m_a("m-c", "missing"), 2)] {
            let diags = lint(list);
            assert_eq!(diags.len(), 1, "{diags:?}");
            assert_eq!(diags[0].code, codes::UNDERIVED_CANDIDATES);
            let message = &diags[0].message;
            assert!(message.contains("'m-a'"), "{message}");
            assert!(message.contains(&format!("at record {at}:")), "{message}");
            assert!(message.contains("\"m-c\" }"), "derived names m-c: {message}");
        }
    }

    /// `semantic` under `resource` as a writer saves them at epoch 1,
    /// with every `1234.5` in the text made `1e999`, a number the JSON
    /// text can spell that reads back as +inf.
    fn json_image(semantic: SemanticIndex, resource: ResourceIndex) -> String {
        let snapshot = IndexSnapshot {
            version: SNAPSHOT_VERSION,
            stats: Some(SnapshotStats::of(&semantic, &resource, 1)),
            semantic,
            resource,
        };
        serde_json::to_string(&snapshot).unwrap().replace("1234.5", "1e999")
    }

    /// The one finding of linting `image`: the decoder's refusal.
    fn refusal(tag: &str, image: &str) -> String {
        let diags = crate::tests::lint_snapshot_image(tag, image.as_bytes()).diagnostics;
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, codes::SNAPSHOT_UNREADABLE);
        assert_eq!(diags[0].severity, Severity::Error);
        diags[0].message.clone()
    }

    #[test]
    fn non_finite_profile_in_a_json_image_is_reported_with_its_key() {
        let profile = |latency_ms| ResourceProfile {
            memory_mb: 1.0,
            gflops: 1.0,
            latency_ms,
        };
        let resource = [("m-a", 1.0), ("m-b", 1234.5)]
            .map(|(key, latency)| (key.to_string(), profile(latency)))
            .into_iter()
            .collect();
        let empty = SemanticIndex::new(Default::default(), 1);
        let message = refusal("json-inf", &json_image(empty, resource));
        assert!(message.contains("'m-b' is non-finite"), "{message}");
    }

    #[test]
    fn missing_resource_profile_is_reported() {
        let semantic = serde_json::from_str(
            r#"{
                "config": {"sample_size": 5, "segments": true, "max_candidates": 64},
                "entries": {"1": {"key": "m-a", "candidates": []}},
                "by_key": {"m-a": 1},
                "order": ["m-a"],
                "seed_state": 0,
                "edges": []
            }"#,
        )
        .expect("fixture parses");
        let message = refusal("unprofiled", &json_image(semantic, ResourceIndex::default()));
        assert!(message.contains("'m-a' has no resource profile"), "{message}");
    }

    #[test]
    fn gross_triangle_violation_among_measured_bounds_is_reported() {
        let mut ctx = ctx_with_models(&["m-a", "m-b", "m-c"]);
        ctx.semantic = Some(
            serde_json::from_str(
                r#"{
                    "config": {"sample_size": 5, "segments": true, "max_candidates": 64},
                    "entries": {
                        "1": {"key": "m-a", "candidates": [
                            {"key": "m-b", "diff_bound": 0.1, "score": 0.9, "kind": "Whole"},
                            {"key": "m-c", "diff_bound": 5.0, "score": 0.0, "kind": "Whole"}
                        ]},
                        "2": {"key": "m-b", "candidates": [
                            {"key": "m-c", "diff_bound": 0.1, "score": 0.9, "kind": "Whole"}
                        ]}
                    },
                    "by_key": {"m-a": 1, "m-b": 2},
                    "order": ["m-a", "m-b"],
                    "seed_state": 0,
                    "edges": []
                }"#,
            )
            .expect("fixture parses"),
        );
        let diags = run(&TrianglePass, &ctx);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, codes::TRIANGLE_VIOLATION);
    }

    #[test]
    fn transitive_bounds_do_not_participate_in_the_triangle_check() {
        let mut ctx = ctx_with_models(&["m-a", "m-b", "m-c"]);
        ctx.semantic = Some(
            serde_json::from_str(
                r#"{
                    "config": {"sample_size": 5, "segments": true, "max_candidates": 64},
                    "entries": {
                        "1": {"key": "m-a", "candidates": [
                            {"key": "m-b", "diff_bound": 0.1, "score": 0.9, "kind": "Whole"},
                            {"key": "m-c", "diff_bound": 5.0, "score": 0.0,
                             "kind": {"Transitive": {"via": "m-b"}}}
                        ]},
                        "2": {"key": "m-b", "candidates": [
                            {"key": "m-c", "diff_bound": 0.1, "score": 0.9, "kind": "Whole"}
                        ]}
                    },
                    "by_key": {"m-a": 1, "m-b": 2},
                    "order": ["m-a", "m-b"],
                    "seed_state": 0,
                    "edges": []
                }"#,
            )
            .expect("fixture parses"),
        );
        assert!(run(&TrianglePass, &ctx).is_empty());
    }

    #[test]
    fn stale_snapshot_is_reported_once_with_a_count() {
        let t0 = SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000);
        let mut ctx = LintContext::new();
        ctx.index_mtime = Some(t0);
        ctx.model_mtimes.push(("old".into(), t0 - Duration::from_secs(60)));
        ctx.model_mtimes.push(("new-a".into(), t0 + Duration::from_secs(60)));
        ctx.model_mtimes.push(("new-b".into(), t0 + Duration::from_secs(120)));
        let diags = run(&FreshnessPass, &ctx);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, codes::STALE_INDEX);
        assert!(diags[0].message.contains("2 model file(s)"), "{}", diags[0].message);
    }

    #[test]
    fn fresh_snapshot_is_clean() {
        let t0 = SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000);
        let mut ctx = LintContext::new();
        ctx.index_mtime = Some(t0);
        ctx.model_mtimes.push(("old".into(), t0 - Duration::from_secs(60)));
        assert!(run(&FreshnessPass, &ctx).is_empty());
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
    fn unregistered_candidate_references_are_errors() {
        // `phantom` IS stored in the repository, so the index key check
        // (SOM020) stays silent about it; the snapshot still never
        // registered it, and no edge derives a record naming it.
        let mut ctx = ctx_with_models(&["m-a", "m-b", "phantom"]);
        ctx.semantic = Some(semantic_with_unregistered_refs());
        let out = run(&IndexIntegrityPass, &ctx);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, codes::UNDERIVED_CANDIDATES);
        // `m-b` at 0.1 is the one record the edge table derives.
        let message = &out[0].message;
        assert!(message.contains("'m-a'"), "{message}");
        assert!(message.contains("record 1: stored Whole 'phantom'"), "{message}");
        assert!(message.ends_with("derived none"), "{message}");
        assert_eq!(out[0].severity, Severity::Error);
    }

    #[test]
    fn registered_candidates_lint_clean() {
        let mut ctx = ctx_with_models(&["m-a", "m-b"]);
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
        let out = run(&IndexIntegrityPass, &ctx);
        assert!(out.is_empty(), "{out:?}");
    }
}
