//! Repository & index invariant lints (`SOM020`–`SOM026`).
//!
//! The persisted indices are derived data: every key they mention must
//! exist in the repository, candidate lists must keep the descending
//! score order the query engine's early-exit relies on, scores must
//! agree with their recorded difference bounds, stored resource profiles
//! must be finite, directly measured bounds must be mutually consistent,
//! and the snapshot must not predate the artifacts it summarizes. Each of
//! these is checked here without touching a single weight.

use crate::diagnostics::{codes, Diagnostic};
use crate::{LintContext, Pass};
use sommelier_index::{CandidateKind, CandidateRecord};
use std::collections::{HashMap, HashSet};

const SEMANTIC: &str = "semantic-index";
const RESOURCE: &str = "resource-index";

/// Score tolerance when comparing recorded scores against the
/// `score = max(0, 1 − diff_bound)` invariant. Floats round-trip the
/// snapshot exactly, so anything beyond rounding noise is corruption.
const SCORE_EPS: f64 = 1e-9;

/// The models a candidate depends on: the candidate itself and, for a
/// transitive one, its intermediary. A synthesized candidate's key names
/// the variant, not a stored model, so only its donor counts.
pub(crate) fn referenced_models(c: &CandidateRecord) -> Vec<&str> {
    match &c.kind {
        CandidateKind::Whole => vec![c.key.as_str()],
        CandidateKind::Transitive { via } => vec![c.key.as_str(), via],
        CandidateKind::Synthesized { donor } => vec![donor],
    }
}

/// Referential and ordering invariants of both indices: dangling keys
/// (`SOM020`), unsorted candidate lists (`SOM021`), score/bound
/// disagreement (`SOM025`), indexed models without a resource profile
/// (`SOM026`), and non-finite profiles in a JSON image (`SOM056`).
pub struct IndexIntegrityPass;

/// `SOM056` on `subject` — raised here for a JSON image and by
/// [`crate::passes::binary`] for a `.somb` one.
pub(crate) fn non_finite_profile(location: &str, subject: &str) -> Diagnostic {
    Diagnostic::error(
        codes::NON_FINITE_PROFILE,
        location,
        format!("stored resource profile of {subject} is non-finite"),
    )
    .with_help("no bound comparison against it means anything; re-run `sommelier index`")
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
            for (_, key, candidates) in semantic.entries_audit() {
                if candidates
                    .windows(2)
                    .any(|w| w[1].score > w[0].score + SCORE_EPS)
                {
                    out.push(Diagnostic::error(
                        codes::UNSORTED_CANDIDATES,
                        SEMANTIC,
                        format!("candidate list of '{key}' is not in descending score order"),
                    ));
                }
                for c in candidates {
                    let expected = (1.0 - c.diff_bound).max(0.0);
                    if (c.score - expected).abs() > SCORE_EPS {
                        out.push(Diagnostic::error(
                            codes::SCORE_MISMATCH,
                            SEMANTIC,
                            format!(
                                "candidate '{}' of '{key}' records score {} but its diff bound \
                                 {} implies {expected}",
                                c.key, c.score, c.diff_bound
                            ),
                        ));
                    }
                    for name in referenced_models(c) {
                        if !stored.contains(name) {
                            out.push(Diagnostic::error(
                                codes::DANGLING_KEY,
                                SEMANTIC,
                                format!(
                                    "candidate list of '{key}' references '{name}', which has \
                                     no stored model"
                                ),
                            ));
                        }
                    }
                }
            }
        }
        if let Some(resource) = &ctx.resource {
            for (key, profile) in resource.entries_audit() {
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
                // A `.somb` image's rows are read by the binary pass,
                // which also works when the image no longer decodes.
                if ctx.binary_snapshot.is_none() && !profile.is_finite() {
                    out.push(non_finite_profile(RESOURCE, &format!("'{key}'")));
                }
            }
        }
        if let (Some(semantic), Some(resource)) = (&ctx.semantic, &ctx.resource) {
            for key in semantic.keys() {
                if stored.contains(key) && resource.profile_of(key).is_none() {
                    out.push(
                        Diagnostic::warn(
                            codes::MISSING_PROFILE,
                            RESOURCE,
                            format!("'{key}' is semantically indexed but has no resource profile"),
                        )
                        .with_help("resource-constrained queries will never return this model"),
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
                    if long > Self::SLACK * (a + b) + SCORE_EPS {
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
    /// stored, `m-a`'s candidate list is out of order, references the
    /// missing `ghost`, and records a score that disagrees with its
    /// diff bound.
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
                "edges": []
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
        // `ghost` dangles twice: as an indexed key and as a candidate.
        assert!(
            diags
                .iter()
                .filter(|d| d.code == codes::DANGLING_KEY)
                .count()
                >= 2,
            "{diags:?}"
        );
        assert!(diags.iter().any(|d| d.code == codes::UNSORTED_CANDIDATES), "{diags:?}");
        assert!(
            diags
                .iter()
                .any(|d| d.code == codes::SCORE_MISMATCH && d.message.contains("m-b")),
            "{diags:?}"
        );
        assert_eq!(
            diags.iter().map(|d| d.severity).max(),
            Some(Severity::Error)
        );
    }

    #[test]
    fn transitive_via_and_synthesized_donor_must_exist() {
        let mut ctx = ctx_with_models(&["m-a", "m-b"]);
        ctx.semantic = Some(
            serde_json::from_str(
                r#"{
                    "config": {"sample_size": 5, "segments": true, "max_candidates": 64},
                    "entries": {
                        "1": {"key": "m-a", "candidates": [
                            {"key": "m-b", "diff_bound": 0.1, "score": 0.9,
                             "kind": {"Transitive": {"via": "gone"}}},
                            {"key": "m-a+missing", "diff_bound": 0.3, "score": 0.7,
                             "kind": {"Synthesized": {"donor": "missing"}}}
                        ]}
                    },
                    "by_key": {"m-a": 1},
                    "order": ["m-a"],
                    "seed_state": 0,
                    "edges": []
                }"#,
            )
            .expect("fixture parses"),
        );
        let diags = run(&IndexIntegrityPass, &ctx);
        let dangling: Vec<&str> = diags
            .iter()
            .filter(|d| d.code == codes::DANGLING_KEY)
            .map(|d| d.message.as_str())
            .collect();
        assert!(dangling.iter().any(|m| m.contains("'gone'")), "{dangling:?}");
        assert!(dangling.iter().any(|m| m.contains("'missing'")), "{dangling:?}");
        // The synthesized candidate's own key is a variant name, not a
        // stored model; it must NOT be reported.
        assert!(!dangling.iter().any(|m| m.contains("m-a+missing")), "{dangling:?}");
    }

    #[test]
    fn non_finite_profile_in_a_json_image_is_reported_with_its_key() {
        let mut ctx = ctx_with_models(&["m-a", "m-b", "m-c"]);
        // What the JSON text can spell: a number that overflows to +inf.
        let mut resource: ResourceIndex = serde_json::from_str(
            r#"{"entries": [
                ["m-a", {"memory_mb": 1.0, "gflops": 1.0, "latency_ms": 1.0}],
                ["m-b", {"memory_mb": 2.0, "gflops": 2.0, "latency_ms": 1e999}]
            ]}"#,
        )
        .expect("fixture parses");
        // What only a profiling bug can put there.
        resource.insert(
            "m-c",
            ResourceProfile {
                memory_mb: 3.0,
                gflops: 3.0,
                latency_ms: f64::NAN,
            },
        );
        ctx.resource = Some(resource);
        let diags = run(&IndexIntegrityPass, &ctx);
        let named: Vec<&str> = diags
            .iter()
            .filter(|d| d.code == codes::NON_FINITE_PROFILE && d.severity == Severity::Error)
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(named.len(), 2, "{diags:?}");
        assert!(named[0].contains("'m-b'") && named[1].contains("'m-c'"), "{named:?}");
        // The same index behind a `.somb` image is the binary pass's to
        // report, from the rows as stored.
        ctx.binary_snapshot = Some(Vec::new());
        assert!(run(&IndexIntegrityPass, &ctx).is_empty());
    }

    #[test]
    fn missing_resource_profile_is_reported() {
        let mut ctx = ctx_with_models(&["m-a"]);
        ctx.semantic = Some(
            serde_json::from_str(
                r#"{
                    "config": {"sample_size": 5, "segments": true, "max_candidates": 64},
                    "entries": {"1": {"key": "m-a", "candidates": []}},
                    "by_key": {"m-a": 1},
                    "order": ["m-a"],
                    "seed_state": 0,
                    "edges": []
                }"#,
            )
            .expect("fixture parses"),
        );
        ctx.resource = Some(ResourceIndex::default());
        let diags = run(&IndexIntegrityPass, &ctx);
        assert!(
            diags
                .iter()
                .any(|d| d.code == codes::MISSING_PROFILE && d.severity == Severity::Warn),
            "{diags:?}"
        );
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
}
