//! Lint over a binary (`.somb`) snapshot image.
//!
//! No pass lives here. The decoder checks the header CRC and every
//! section CRC, and refuses an image that breaks one; lint reports that
//! refusal as the one `SOM027` finding, naming the torn part and both
//! CRCs. `SOM054`, a second scan of the same CRCs, is retired. These
//! tests pin that a damaged image is exactly one finding.

#[cfg(test)]
mod tests {
    use crate::diagnostics::codes;
    use crate::tests::{lint_snapshot_image, refusal};
    use sommelier_index::persist::SnapshotStats;
    use sommelier_index::{ResourceIndex, SemanticIndex};
    use sommelier_runtime::ResourceProfile;

    /// What a writer saves as a binary image for an index holding `m`
    /// at `latency_ms`.
    fn image_with_latency(latency_ms: f64) -> Vec<u8> {
        let profile = ResourceProfile {
            memory_mb: 10.0,
            gflops: 2.0,
            latency_ms,
        };
        let resource: ResourceIndex = [("m".to_string(), profile)].into_iter().collect();
        let semantic = SemanticIndex::new(Default::default(), 1);
        let stats = SnapshotStats::of(&semantic, &resource, 1);
        sommelier_index::somb::encode(&semantic, &resource, Some(&stats))
    }

    fn image() -> Vec<u8> {
        image_with_latency(5.0)
    }

    #[test]
    fn no_binary_image_is_silent() {
        let tag = format!("sommelier-lint-no-image-{}", std::process::id());
        let dir = std::env::temp_dir().join(tag);
        std::fs::create_dir_all(&dir).unwrap();
        let report = crate::run(&crate::LintContext::from_repo_dir(&dir).unwrap(), false, 1);
        std::fs::remove_dir_all(&dir).ok();
        assert!(report.diagnostics.is_empty(), "{report:?}");
    }

    #[test]
    fn intact_image_lints_clean() {
        // The image decodes: its one finding is `m`, stored nowhere.
        let report = lint_snapshot_image("binary-ok", &image());
        let found: Vec<&str> = report.diagnostics.iter().map(|d| d.code.as_str()).collect();
        assert_eq!(found, [codes::DANGLING_KEY], "{report:?}");
    }

    #[test]
    fn torn_header_reports_som054() {
        let mut bytes = image();
        bytes[20] ^= 0xFF; // the epoch, covered by the header CRC
        let message = refusal("binary-torn-header", &bytes);
        assert!(
            message.contains("header CRC mismatch (stored 0x"),
            "{message}"
        );
        assert!(codes::ALL.iter().all(|(code, _)| *code != "SOM054"));
    }

    #[test]
    fn torn_section_reports_som054_with_the_section_name() {
        let mut bytes = image();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // the last section's payload
        let message = refusal("binary-torn-section", &bytes);
        assert!(
            message.contains("section 'edges' CRC mismatch (stored 0x"),
            "{message}"
        );
        assert!(message.contains(", computed 0x"), "{message}");
    }

    #[test]
    fn non_finite_profile_in_a_binary_image_is_reported_with_its_key() {
        // Every CRC holds: the decoder's refusal is the one finding.
        let message = refusal("binary-nan", &image_with_latency(f64::NAN));
        assert!(message.contains("'m' is non-finite"), "{message}");
    }
}
