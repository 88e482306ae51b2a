//! `--deny` specifications: which findings fail a lint/audit run.
//!
//! A spec is accumulated from repeated `--deny` flags; each value is
//! one of:
//!
//! * a severity class — `error`, `warn`, or `info` (deny everything at
//!   or above that severity);
//! * an exact code — `SOM081`;
//! * a code range — trailing `x` digits act as wildcards, so `SOM09x`
//!   denies every known `SOM09…` code and `SOM0xx` denies everything.
//!
//! Unknown codes and ranges matching no registered code are *errors*,
//! not silently-ignored no-ops: a CI gate that misspells a code must
//! fail loudly rather than pass vacuously. The code registry is
//! [`codes::ALL`].

use crate::diagnostics::{codes, Diagnostic, Severity};
use std::collections::BTreeSet;

/// A parsed, validated deny specification.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DenySpec {
    /// Deny any finding at or above this severity.
    severity: Option<Severity>,
    /// Deny these exact codes (expanded from ranges at parse time).
    codes: BTreeSet<&'static str>,
}

impl DenySpec {
    /// The CLI default: deny `error`-severity findings.
    pub fn default_errors() -> DenySpec {
        DenySpec {
            severity: Some(Severity::Error),
            codes: BTreeSet::new(),
        }
    }

    /// Parse one `--deny` value into this spec. Severity classes and
    /// code selectors accumulate; the effective spec is their union.
    pub fn add(&mut self, spec: &str) -> Result<(), String> {
        match spec {
            "error" => {
                self.severity = Some(self.severity.map_or(Severity::Error, |s| s.min(Severity::Error)));
                return Ok(());
            }
            "warn" => {
                self.severity = Some(self.severity.map_or(Severity::Warn, |s| s.min(Severity::Warn)));
                return Ok(());
            }
            "info" => {
                self.severity = Some(Severity::Info);
                return Ok(());
            }
            _ => {}
        }
        let Some(rest) = spec.strip_prefix("SOM") else {
            return Err(format!(
                "unknown deny spec '{spec}' (expected error|warn|info, a SOM0xx code, \
                 or a SOM08x-style range)"
            ));
        };
        if rest.len() != 3 || !rest.chars().all(|c| c.is_ascii_digit() || c == 'x') {
            return Err(format!("malformed code '{spec}' (expected SOM + 3 digits, x as wildcard)"));
        }
        // Trailing-x wildcard: the prefix before the first 'x' matches.
        let prefix_len = rest.find('x').unwrap_or(rest.len());
        if rest[prefix_len..].chars().any(|c| c != 'x') {
            return Err(format!("malformed range '{spec}' (wildcard x digits must be trailing)"));
        }
        let prefix = &spec[..3 + prefix_len];
        let matched: Vec<&'static str> = codes::ALL
            .iter()
            .map(|(code, _)| *code)
            .filter(|code| code.starts_with(prefix))
            .collect();
        if matched.is_empty() {
            return Err(format!("unknown diagnostic code '{spec}'"));
        }
        self.codes.extend(matched);
        Ok(())
    }

    /// Parse a list of `--deny` values; an empty list yields the
    /// default (`error`).
    pub fn parse(specs: &[&str]) -> Result<DenySpec, String> {
        if specs.is_empty() {
            return Ok(DenySpec::default_errors());
        }
        let mut out = DenySpec::default();
        for spec in specs {
            out.add(spec)?;
        }
        Ok(out)
    }

    /// Whether a finding is denied by this spec.
    pub fn denies(&self, d: &Diagnostic) -> bool {
        if self.severity.is_some_and(|s| d.severity >= s) {
            return true;
        }
        self.codes.contains(d.code.as_str())
    }

    /// Count the denied findings in a report's diagnostics.
    pub fn count_denied(&self, diagnostics: &[Diagnostic]) -> usize {
        diagnostics.iter().filter(|d| self.denies(d)).count()
    }

    /// Human-readable form for failure messages.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if let Some(s) = self.severity {
            parts.push(format!("severity >= {s}"));
        }
        if !self.codes.is_empty() {
            parts.push(
                self.codes
                    .iter()
                    .cloned()
                    .collect::<Vec<_>>()
                    .join(","),
            );
        }
        parts.join(" or ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_defaults_to_errors() {
        let spec = DenySpec::parse(&[]).unwrap();
        assert!(spec.denies(&Diagnostic::error(codes::DANGLING_KEY, "t", "m")));
        assert!(!spec.denies(&Diagnostic::warn(codes::DEAD_LAYER, "t", "m")));
    }

    #[test]
    fn severity_classes_deny_at_or_above() {
        let spec = DenySpec::parse(&["warn"]).unwrap();
        assert!(spec.denies(&Diagnostic::error(codes::DANGLING_KEY, "t", "m")));
        assert!(spec.denies(&Diagnostic::warn(codes::DEAD_LAYER, "t", "m")));
        assert!(!spec.denies(&Diagnostic::info(codes::COST_OUTLIER, "t", "m")));
        let spec = DenySpec::parse(&["info"]).unwrap();
        assert!(spec.denies(&Diagnostic::info(codes::COST_OUTLIER, "t", "m")));
    }

    #[test]
    fn exact_codes_deny_regardless_of_severity() {
        let spec = DenySpec::parse(&["SOM004"]).unwrap();
        assert!(spec.denies(&Diagnostic::info(codes::COST_OUTLIER, "t", "m")));
        assert!(!spec.denies(&Diagnostic::error(codes::DANGLING_KEY, "t", "m")));
    }

    #[test]
    fn ranges_expand_over_the_registry() {
        let spec = DenySpec::parse(&["SOM09x"]).unwrap();
        assert!(spec.denies(&Diagnostic::error(codes::FINGERPRINT_DRIFT, "t", "m")));
        assert!(spec.denies(&Diagnostic::error(codes::RESOURCE_DRIFT, "t", "m")));
        assert!(!spec.denies(&Diagnostic::error(codes::SATURATED_ACTIVATION, "t", "m")));
        let everything = DenySpec::parse(&["SOM0xx"]).unwrap();
        assert!(everything.denies(&Diagnostic::info(codes::COST_OUTLIER, "t", "m")));
    }

    #[test]
    fn specs_accumulate_as_a_union() {
        let spec = DenySpec::parse(&["SOM081", "SOM09x"]).unwrap();
        assert!(spec.denies(&Diagnostic::error(codes::NONFINITE_WEIGHTS, "t", "m")));
        assert!(spec.denies(&Diagnostic::error(codes::RESOURCE_DRIFT, "t", "m")));
        assert!(!spec.denies(&Diagnostic::error(codes::SATURATED_ACTIVATION, "t", "m")));
    }

    #[test]
    fn unknown_codes_are_an_error_not_a_noop() {
        assert!(DenySpec::parse(&["SOM999"]).is_err());
        assert!(DenySpec::parse(&["SOM9xx"]).is_err());
        assert!(DenySpec::parse(&["SOM06x"]).is_err(), "no SOM06x code is left");
        assert!(DenySpec::parse(&["SOM05x"]).is_err(), "no SOM05x code is left");
        assert!(DenySpec::parse(&["bogus"]).is_err());
        assert!(DenySpec::parse(&["SOMx81"]).is_err(), "non-trailing wildcard");
        assert!(DenySpec::parse(&["SOM08"]).is_err(), "truncated code");
        for retired in [
            "SOM025", "SOM062", "SOM092", // candidate-list shape checks
            "SOM026", "SOM050", "SOM051", "SOM052", "SOM053", "SOM056", "SOM060", "SOM061",
            "SOM080", // checked by the snapshot decoder and `Model::validate`
            "SOM005", "SOM054", "SOM082", // second checks of SOM081, SOM027 and SOM001
        ] {
            assert!(DenySpec::parse(&[retired]).is_err(), "{retired} is retired");
        }
    }
}
