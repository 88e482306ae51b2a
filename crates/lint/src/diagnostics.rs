//! Shared diagnostics vocabulary of the lint layer.
//!
//! Every pass reports through the same structured [`Diagnostic`] record:
//! a stable `SOM0xx` code, a severity, the object the finding is about
//! (a model key, an index, a query), an optional layer id for graph
//! findings, a human-readable message, and an optional remediation hint.
//! Keeping the vocabulary shared means reports aggregate, sort, and
//! serialize uniformly regardless of which pass produced them.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Stable diagnostic codes, grouped by pass family:
/// `SOM00x` model-graph lints, `SOM02x` repository/index invariants,
/// `SOM04x` query-plan lints, `SOM07x` store-hygiene lints (quarantine,
/// temp orphans, file naming), `SOM08x` weight and dataflow findings
/// (`SOM081` runs in every lint, the rest only in the deep audit),
/// `SOM09x` cross-artifact consistency findings.
/// What the readers refuse (a model that fails `Model::validate`, a
/// snapshot that breaks a decode rule) is one code each: `SOM007` and
/// `SOM027`.
pub mod codes {
    /// A layer has no data path to the output (dead computation).
    pub const DEAD_LAYER: &str = "SOM001";
    /// An interior layer narrows to width 1, zeroing error propagation.
    pub const WIDTH_BOTTLENECK: &str = "SOM002";
    /// Suspicious activation/normalization ordering (repeated or no-op).
    pub const SUSPICIOUS_ORDER: &str = "SOM003";
    /// Cost profile is an outlier against the model's declared family.
    pub const COST_OUTLIER: &str = "SOM004";
    /// A linear layer carries an all-zero weight tensor.
    pub const ZERO_WEIGHTS: &str = "SOM006";
    /// A stored model could not be read, or fails `Model::validate`.
    pub const MODEL_UNREADABLE: &str = "SOM007";
    /// An index references a model key absent from the repository.
    pub const DANGLING_KEY: &str = "SOM020";
    /// A candidate list differs from the one its edge table derives.
    pub const UNDERIVED_CANDIDATES: &str = "SOM021";
    /// Recorded bounds violate the transitive triangle relation.
    pub const TRIANGLE_VIOLATION: &str = "SOM023";
    /// The index snapshot is older than a stored model file.
    pub const STALE_INDEX: &str = "SOM024";
    /// The index snapshot could not be read, or its decoder refused it.
    pub const SNAPSHOT_UNREADABLE: &str = "SOM027";
    /// A `WITHIN` threshold no score can ever reach.
    pub const UNSATISFIABLE_THRESHOLD: &str = "SOM040";
    /// A resolved resource bound statically admits nothing.
    pub const EMPTY_BUDGET: &str = "SOM041";
    /// A predicate shadowed by a tighter one on the same dimension.
    pub const SHADOWED_PREDICATE: &str = "SOM042";
    /// A reference filter that statically prunes every candidate.
    pub const EMPTY_REFERENCE: &str = "SOM043";
    /// `SELECT models 0` — the query statically returns nothing.
    pub const LIMIT_ZERO: &str = "SOM044";
    /// A quarantined (`*.corrupt-<epoch>`) artifact sits in the store.
    pub const QUARANTINED_FILE: &str = "SOM070";
    /// An orphaned temp file (`*.tmp-<pid>-<seq>`) from an interrupted write.
    pub const ORPHANED_TEMP: &str = "SOM071";
    /// A model file whose name is not a canonical key encoding.
    pub const NON_CANONICAL_MODEL_FILE: &str = "SOM072";
    /// The store directory could not be listed at all.
    pub const STORE_LISTING_FAILED: &str = "SOM073";
    /// A manifest references a chunk absent from the chunk store.
    pub const DANGLING_CHUNK: &str = "SOM074";
    /// A chunk no manifest references (refcount zero), or a stray
    /// non-chunk file inside the chunk namespace.
    pub const ORPHANED_CHUNK: &str = "SOM075";
    /// A delta manifest whose base chain is missing or cyclic.
    pub const BROKEN_DELTA_BASE: &str = "SOM076";
    /// A parameter tensor contains NaN or infinite values.
    pub const NONFINITE_WEIGHTS: &str = "SOM081";
    /// An activation is saturated for every input in the analyzed range.
    pub const SATURATED_ACTIVATION: &str = "SOM083";
    /// The output interval is a single point — input-independent output.
    pub const CONSTANT_OUTPUT: &str = "SOM084";
    /// A multi-unit linear layer has numerical rank ≤ 1.
    pub const RANK_COLLAPSED: &str = "SOM085";
    /// Metadata-declared cost disagrees with the recomputed `ModelCost`.
    pub const DECLARED_COST_DRIFT: &str = "SOM086";
    /// An indexed fingerprint disagrees with the stored model's.
    pub const FINGERPRINT_DRIFT: &str = "SOM090";
    /// A resource-index vector disagrees with the recomputed profile.
    pub const RESOURCE_DRIFT: &str = "SOM091";

    /// Every known code with a one-line meaning, in code order. This is
    /// the single source of truth for `--deny` validation and the README
    /// code table; adding a constant above without registering it here
    /// fails the `registry_covers_every_constant` test.
    pub const ALL: &[(&str, &str)] = &[
        (DEAD_LAYER, "layer has no data path to the output"),
        (WIDTH_BOTTLENECK, "interior layer narrows to width 1"),
        (SUSPICIOUS_ORDER, "redundant activation/normalization ordering"),
        (COST_OUTLIER, "cost profile is an outlier in its series"),
        (ZERO_WEIGHTS, "linear layer carries an all-zero weight tensor"),
        (MODEL_UNREADABLE, "stored model could not be read or is invalid"),
        (DANGLING_KEY, "index references a key absent from the repository"),
        (UNDERIVED_CANDIDATES, "candidate list differs from its derivation"),
        (TRIANGLE_VIOLATION, "bounds violate the triangle relation"),
        (STALE_INDEX, "index snapshot older than a stored model"),
        (SNAPSHOT_UNREADABLE, "index snapshot could not be read or decoded"),
        (UNSATISFIABLE_THRESHOLD, "WITHIN threshold no score can reach"),
        (EMPTY_BUDGET, "resource bound statically admits nothing"),
        (SHADOWED_PREDICATE, "predicate shadowed by a tighter one"),
        (EMPTY_REFERENCE, "reference filter prunes every candidate"),
        (LIMIT_ZERO, "SELECT models 0 returns nothing"),
        (QUARANTINED_FILE, "quarantined artifact sits in the store"),
        (ORPHANED_TEMP, "orphaned temp file from an interrupted write"),
        (NON_CANONICAL_MODEL_FILE, "model file name is not a canonical key"),
        (STORE_LISTING_FAILED, "store directory could not be listed"),
        (DANGLING_CHUNK, "manifest references a missing chunk"),
        (ORPHANED_CHUNK, "chunk is referenced by no manifest"),
        (BROKEN_DELTA_BASE, "delta manifest base missing or cyclic"),
        (NONFINITE_WEIGHTS, "parameter tensor contains NaN/Inf values"),
        (SATURATED_ACTIVATION, "activation saturated over the input range"),
        (CONSTANT_OUTPUT, "output provably independent of the input"),
        (RANK_COLLAPSED, "multi-unit linear layer has rank <= 1"),
        (DECLARED_COST_DRIFT, "declared cost disagrees with recomputed"),
        (FINGERPRINT_DRIFT, "indexed fingerprint disagrees with the store"),
        (RESOURCE_DRIFT, "resource vector disagrees with recomputation"),
    ];
}

/// How bad a finding is. Ordered: `Info < Warn < Error`.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum Severity {
    /// Advisory; never affects exit status.
    Info,
    /// Suspicious but not provably broken.
    Warn,
    /// A violated invariant.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        })
    }
}

/// One structured lint finding.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable code (see [`codes`]).
    pub code: String,
    /// Finding severity.
    pub severity: Severity,
    /// What the finding is about: a model key, an index name, a query.
    pub target: String,
    /// Layer id for model-graph findings.
    pub layer: Option<usize>,
    /// Human-readable description.
    pub message: String,
    /// Optional remediation hint.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Construct a finding with the given severity.
    pub fn new(
        severity: Severity,
        code: &str,
        target: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code: code.to_string(),
            severity,
            target: target.into(),
            layer: None,
            message: message.into(),
            help: None,
        }
    }

    /// An `Error`-severity finding.
    pub fn error(code: &str, target: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Error, code, target, message)
    }

    /// A `Warn`-severity finding.
    pub fn warn(code: &str, target: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Warn, code, target, message)
    }

    /// An `Info`-severity finding.
    pub fn info(code: &str, target: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Info, code, target, message)
    }

    /// Attach the layer id the finding points at.
    pub fn with_layer(mut self, layer: usize) -> Self {
        self.layer = Some(layer);
        self
    }

    /// Attach a remediation hint.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] {}", self.severity, self.code, self.target)?;
        if let Some(layer) = self.layer {
            write!(f, " (layer {layer})")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(help) = &self.help {
            write!(f, "\n    help: {help}")?;
        }
        Ok(())
    }
}

/// The aggregated outcome of a lint run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LintReport {
    /// All findings, sorted by code, then target, then layer.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Build a report from raw findings: sorts them canonically and
    /// drops exact repeats on `(code, target, layer, message)` —
    /// overlapping passes (e.g. the shallow graph lints and the deep
    /// dataflow pass) may legitimately reach the same conclusion, and a
    /// deduplicated, totally ordered report is what makes `--format
    /// json` byte-identical across runs and `--jobs` values.
    pub fn from_diagnostics(mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by(|a, b| {
            (&a.code, &a.target, a.layer, &a.message).cmp(&(&b.code, &b.target, b.layer, &b.message))
        });
        diagnostics.dedup_by(|a, b| {
            (&a.code, &a.target, a.layer, &a.message) == (&b.code, &b.target, b.layer, &b.message)
        });
        LintReport { diagnostics }
    }

    /// Remove findings present in a baseline (matched on
    /// `(code, target, layer, message)`), for CI ratcheting: a baseline
    /// file freezes today's findings so only *new* ones fail the gate.
    pub fn subtract(&mut self, baseline: &[Diagnostic]) {
        use std::collections::BTreeSet;
        let known: BTreeSet<_> = baseline
            .iter()
            .map(|d| (&d.code, &d.target, d.layer, &d.message))
            .collect();
        self.diagnostics
            .retain(|d| !known.contains(&(&d.code, &d.target, d.layer, &d.message)));
    }

    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The worst severity present, if any.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Number of findings at a given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Plain-text report: one finding per line plus a summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} note(s)\n",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info),
        ));
        out
    }

    /// Machine-readable report: the findings as a JSON array, which
    /// deserializes back into `Vec<Diagnostic>`.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.diagnostics).unwrap_or_else(|_| "[]".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_info_warn_error() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
    }

    #[test]
    fn display_includes_code_layer_and_help() {
        let d = Diagnostic::warn(codes::DEAD_LAYER, "model 'm'", "layer is never consumed")
            .with_layer(3)
            .with_help("remove the layer");
        let s = d.to_string();
        assert!(s.contains("warn[SOM001]"), "{s}");
        assert!(s.contains("(layer 3)"), "{s}");
        assert!(s.contains("help: remove the layer"), "{s}");
    }

    #[test]
    fn report_sorts_counts_and_summarizes() {
        let report = LintReport::from_diagnostics(vec![
            Diagnostic::error(codes::DANGLING_KEY, "semantic-index", "b"),
            Diagnostic::warn(codes::DEAD_LAYER, "model 'a'", "a"),
            Diagnostic::info(codes::COST_OUTLIER, "model 'a'", "c"),
        ]);
        assert_eq!(report.diagnostics[0].code, "SOM001");
        assert_eq!(report.max_severity(), Some(Severity::Error));
        assert_eq!(report.count(Severity::Warn), 1);
        assert!(report.render_text().contains("1 error(s), 1 warning(s), 1 note(s)"));
        assert!(!report.is_clean());
        assert!(LintReport::default().is_clean());
    }

    #[test]
    fn identical_findings_from_overlapping_passes_deduplicate() {
        let d = Diagnostic::warn(codes::DEAD_LAYER, "model 'm'", "dead").with_layer(2);
        let report =
            LintReport::from_diagnostics(vec![d.clone(), d.clone(), d.clone()]);
        assert_eq!(report.diagnostics.len(), 1);
        // Different layer on the same code/target/message survives.
        let other = d.clone().with_layer(3);
        let report = LintReport::from_diagnostics(vec![d, other]);
        assert_eq!(report.diagnostics.len(), 2);
    }

    #[test]
    fn baseline_subtraction_removes_known_findings_only() {
        let old = Diagnostic::error(codes::DANGLING_KEY, "semantic-index", "old");
        let new = Diagnostic::error(codes::DANGLING_KEY, "semantic-index", "new");
        let mut report = LintReport::from_diagnostics(vec![old.clone(), new.clone()]);
        report.subtract(&[old]);
        assert_eq!(report.diagnostics, vec![new]);
    }

    fn is_sorted_and_deduped(report: &LintReport) -> bool {
        report.diagnostics.windows(2).all(|w| {
            (&w[0].code, &w[0].target, w[0].layer, &w[0].message)
                < (&w[1].code, &w[1].target, w[1].layer, &w[1].message)
        })
    }

    #[test]
    fn baseline_with_duplicate_findings_subtracts_once_cleanly() {
        // A hand-edited or concatenated baseline may repeat an entry;
        // subtraction must treat it as a set, not consume one
        // occurrence per repeat.
        let known = Diagnostic::error(codes::DANGLING_KEY, "semantic-index", "known");
        let kept = Diagnostic::warn(codes::DEAD_LAYER, "model 'm'", "kept");
        let mut report = LintReport::from_diagnostics(vec![known.clone(), kept.clone()]);
        report.subtract(&[known.clone(), known.clone(), known]);
        assert_eq!(report.diagnostics, vec![kept]);
        assert!(is_sorted_and_deduped(&report));
    }

    #[test]
    fn baseline_superset_of_current_empties_the_report() {
        let a = Diagnostic::error(codes::DANGLING_KEY, "semantic-index", "a");
        let b = Diagnostic::warn(codes::DEAD_LAYER, "model 'm'", "b");
        let extra = Diagnostic::info(codes::COST_OUTLIER, "model 'x'", "never seen");
        let mut report = LintReport::from_diagnostics(vec![a.clone(), b.clone()]);
        report.subtract(&[extra, b, a]);
        assert!(report.is_clean());
        assert_eq!(report.max_severity(), None);
    }

    #[test]
    fn empty_report_survives_subtraction() {
        let mut report = LintReport::default();
        report.subtract(&[Diagnostic::error(codes::DANGLING_KEY, "t", "m")]);
        assert!(report.is_clean());
        // And subtracting an empty baseline is the identity.
        let d = Diagnostic::warn(codes::DEAD_LAYER, "model 'm'", "kept").with_layer(1);
        let mut report = LintReport::from_diagnostics(vec![d.clone(), d.clone()]);
        report.subtract(&[]);
        assert_eq!(report.diagnostics, vec![d]);
        assert!(is_sorted_and_deduped(&report));
    }

    #[test]
    fn registry_covers_every_constant() {
        // The registry must list each code exactly once, in order.
        let mut seen = std::collections::BTreeSet::new();
        for w in codes::ALL.windows(2) {
            assert!(w[0].0 < w[1].0, "registry out of order at {}", w[1].0);
        }
        for (code, meaning) in codes::ALL {
            assert!(code.starts_with("SOM") && code.len() == 6, "{code}");
            assert!(!meaning.is_empty());
            assert!(seen.insert(*code), "duplicate registry entry {code}");
        }
        for known in [
            codes::DEAD_LAYER,
            codes::STORE_LISTING_FAILED,
            codes::NONFINITE_WEIGHTS,
            codes::RESOURCE_DRIFT,
        ] {
            assert!(seen.contains(known), "{known} missing from registry");
        }
        assert_eq!(codes::ALL.len(), 30, "update the registry with new codes");
    }

    #[test]
    fn json_report_round_trips_into_diagnostics() {
        let report = LintReport::from_diagnostics(vec![
            Diagnostic::error(codes::UNDERIVED_CANDIDATES, "semantic-index", "underived")
                .with_help("rebuild the index"),
            Diagnostic::warn(codes::WIDTH_BOTTLENECK, "model 'm'", "width 1").with_layer(2),
        ]);
        let json = report.to_json();
        let back: Vec<Diagnostic> = serde_json::from_str(&json).expect("report JSON parses");
        assert_eq!(back, report.diagnostics);
    }
}
