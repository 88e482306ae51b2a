//! `SOM054`, `SOM056` — binary (`.somb`) snapshot-image lints.
//!
//! The binary snapshot format carries its own integrity machinery: a
//! CRC-checked header and per-section CRCs. The read path already
//! *rejects* a damaged image (and the engine quarantines + rebuilds), but
//! the lint layer should explain **what** is wrong with the bytes, not
//! just that loading failed. This pass scans the raw image with
//! [`sommelier_index::somb::integrity_issues`] — no index construction,
//! so it works even on images too damaged to decode:
//!
//! * header or section CRC mismatch → `SOM054` (`Error`);
//! * a resource row storing a non-finite profile → `SOM056` (`Error`) —
//!   an image that *decodes* and then answers every bound comparison on
//!   that key wrongly.

use crate::diagnostics::{codes, Diagnostic};
use crate::passes::index::non_finite_profile;
use crate::{LintContext, Pass};
use sommelier_index::somb::{self, IntegrityIssue};

/// Validates the raw bytes of a binary snapshot image.
pub struct BinarySnapshotPass;

impl Pass for BinarySnapshotPass {
    fn run(&self, ctx: &LintContext, out: &mut Vec<Diagnostic>) {
        let Some(bytes) = &ctx.binary_snapshot else {
            return;
        };
        for issue in somb::integrity_issues(bytes) {
            out.push(match issue {
                IntegrityIssue::Header(detail) => Diagnostic::error(
                    codes::BINARY_SNAPSHOT_CORRUPT,
                    "binary-snapshot",
                    format!("header validation failed: {detail}"),
                )
                .with_help("quarantine the file and rebuild with `sommelier index`"),
                IntegrityIssue::SectionCrc {
                    section,
                    stored,
                    computed,
                } => Diagnostic::error(
                    codes::BINARY_SNAPSHOT_CORRUPT,
                    "binary-snapshot",
                    format!(
                        "section '{section}' CRC mismatch: stored {stored:#010x}, \
                         computed {computed:#010x}"
                    ),
                )
                .with_help("quarantine the file and rebuild with `sommelier index`"),
                IntegrityIssue::NonFinite { row, key } => non_finite_profile(
                    "binary-snapshot",
                    &key.map_or(format!("resource row {row}"), |k| format!("'{k}'")),
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;
    use sommelier_index::semantic::SemanticIndexConfig;
    use sommelier_index::{ResourceIndex, SemanticIndex};

    fn run(ctx: &LintContext) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        BinarySnapshotPass.run(ctx, &mut out);
        out
    }

    fn image_with_latency(latency_ms: f64) -> Vec<u8> {
        let mut resource = ResourceIndex::default();
        resource.insert(
            "m",
            sommelier_runtime::ResourceProfile {
                memory_mb: 10.0,
                gflops: 2.0,
                latency_ms,
            },
        );
        let semantic = SemanticIndex::new(SemanticIndexConfig::default(), 1);
        somb::encode(&semantic, &resource, None)
    }

    fn image() -> Vec<u8> {
        image_with_latency(5.0)
    }

    #[test]
    fn no_binary_image_is_silent() {
        assert!(run(&LintContext::new()).is_empty());
    }

    #[test]
    fn intact_image_lints_clean() {
        let mut ctx = LintContext::new();
        ctx.binary_snapshot = Some(image());
        assert!(run(&ctx).is_empty());
    }

    #[test]
    fn torn_header_reports_som054() {
        let mut bytes = image();
        bytes[6] ^= 0xFF; // inside the header, breaks its CRC
        let mut ctx = LintContext::new();
        ctx.binary_snapshot = Some(bytes);
        let out = run(&ctx);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, codes::BINARY_SNAPSHOT_CORRUPT);
        assert_eq!(out[0].severity, Severity::Error);
    }

    #[test]
    fn torn_section_reports_som054_with_the_section_name() {
        let mut bytes = image();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // past the header: some section's payload
        let mut ctx = LintContext::new();
        ctx.binary_snapshot = Some(bytes);
        let out = run(&ctx);
        assert!(
            out.iter().any(|d| d.code == codes::BINARY_SNAPSHOT_CORRUPT
                && d.message.contains("CRC mismatch")),
            "{out:?}"
        );
    }

    #[test]
    fn non_finite_profile_in_a_binary_image_is_reported_with_its_key() {
        let mut ctx = LintContext::new();
        ctx.binary_snapshot = Some(image_with_latency(f64::NAN));
        let out = run(&ctx);
        assert_eq!(out.len(), 1, "every CRC holds, the row is the defect: {out:?}");
        assert_eq!(out[0].code, codes::NON_FINITE_PROFILE);
        assert_eq!(out[0].severity, Severity::Error);
        assert!(out[0].message.contains("'m'"), "{out:?}");
    }
}
