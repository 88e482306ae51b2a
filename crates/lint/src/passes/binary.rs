//! `SOM054` — binary (`.somb`) snapshot-image lints.
//!
//! The binary snapshot format carries its own integrity machinery: a
//! CRC-checked header and per-section CRCs. The read path already
//! *rejects* a damaged image (lint reports the refusal as `SOM027`, and
//! the engine quarantines + rebuilds), but the lint layer should explain
//! **where** the bytes are wrong, not just that loading failed. This
//! pass scans the raw image with
//! [`sommelier_index::somb::integrity_issues`] — no index construction,
//! so it works even on images too damaged to decode: a header or
//! section CRC mismatch is `SOM054` (`Error`).

use crate::diagnostics::{codes, Diagnostic};
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
            let message = match issue {
                IntegrityIssue::Header(detail) => format!("header validation failed: {detail}"),
                IntegrityIssue::SectionCrc {
                    section,
                    stored,
                    computed,
                } => format!(
                    "section '{section}' CRC mismatch: stored {stored:#010x}, \
                     computed {computed:#010x}"
                ),
            };
            out.push(
                Diagnostic::error(codes::BINARY_SNAPSHOT_CORRUPT, "binary-snapshot", message)
                    .with_help("quarantine the file and rebuild with `sommelier index`"),
            );
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
        BinarySnapshotPass.run(ctx, &mut out);
        out
    }

    /// What a writer saves for an index holding `m` at `latency_ms`.
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
        let stats = SnapshotStats::of(&semantic, &resource, 1);
        somb::encode(&semantic, &resource, Some(&stats))
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
        // Every CRC holds: the decoder's refusal is the one finding.
        let image = image_with_latency(f64::NAN);
        let out = crate::tests::lint_snapshot_image("binary-nan", &image).diagnostics;
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, codes::SNAPSHOT_UNREADABLE);
        assert_eq!(out[0].severity, Severity::Error);
        assert!(out[0].message.contains("'m' is non-finite"), "{out:?}");
    }
}
