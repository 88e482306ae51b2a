//! `SOM07x` — store-hygiene lints over the raw repository directory.
//!
//! The directory is read once, by [`sommelier_repo::scan_store`] — the
//! same scan `sommelier fsck` prints and repairs from — and its
//! findings arrive in [`crate::LintContext::store_findings`]. This pass
//! is the table from finding kind to lint code, so it stays
//! execution-free like every other pass and cannot disagree with
//! `fsck` about which file is wrong:
//!
//! * **quarantined artifacts** (`SOM070`, warn) — a corrupt snapshot,
//!   manifest or chunk was set aside as `*.corrupt-<epoch>`; inspect, then
//!   prune it (`sommelier fsck --prune`);
//! * **orphaned temps** (`SOM071`, warn) — an interrupted atomic write
//!   left its `*.tmp-<pid>-<seq>` sibling behind;
//! * **non-canonical file names** (`SOM072`, warn) — a manifest file
//!   whose stem is not a canonical [`sommelier_repo::encode_key`]
//!   spelling, or any standalone `*.model.json`, a layout no store
//!   reads: invisible data, which no repair deletes;
//! * **listing failures** (`SOM073`, error) — raised at load time: the
//!   directory could not be enumerated, so every store check is blind;
//! * **dangling chunk references** (`SOM074`, error) — a manifest
//!   names a chunk `chunks/` does not hold, or the chunk itself no
//!   longer hashes to its name and so counts as absent;
//! * **orphaned chunks** (`SOM075`, warn) — a chunk no manifest
//!   references, or a stray non-chunk file in `chunks/`;
//! * **broken delta bases** (`SOM076`, error) — a delta manifest whose
//!   base chain reaches a key that cannot be loaded, or cycles;
//! * manifests that do not parse surface as `SOM007`, by file name,
//!   next to the loader's per-key `SOM007`.

use crate::diagnostics::{codes, Diagnostic, Severity};
use crate::{LintContext, Pass};
use sommelier_repo::FindingKind;

/// Reports what the store scan found, under the `SOM07x` codes.
pub struct StoreHygienePass;

impl Pass for StoreHygienePass {
    fn run(&self, ctx: &LintContext, out: &mut Vec<Diagnostic>) {
        use FindingKind::*;
        use Severity::{Error, Warn};
        for finding in &ctx.store_findings {
            let (code, severity) = match finding.kind {
                Quarantined => (codes::QUARANTINED_FILE, Warn),
                OrphanedTemp => (codes::ORPHANED_TEMP, Warn),
                NonCanonicalName => (codes::NON_CANONICAL_MODEL_FILE, Warn),
                UnreadableManifest => (codes::MODEL_UNREADABLE, Error),
                CorruptChunk | DanglingChunkRef => (codes::DANGLING_CHUNK, Error),
                StrayChunkFile | OrphanedChunk => (codes::ORPHANED_CHUNK, Warn),
                BrokenDeltaBase => (codes::BROKEN_DELTA_BASE, Error),
            };
            let target = format!("file '{}'", finding.file);
            out.push(
                Diagnostic::new(severity, code, target, &finding.message)
                    .with_help(finding.kind.fix().hint()),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_repo::scan::cross_check;
    use sommelier_repo::{Finding, Manifest};

    /// Lint what the directory-free half of the store scan finds in a
    /// listing: root names, `chunks/` names, parsed manifests.
    fn run(files: &[&str], chunk_files: &[String], manifests: &[(&str, Manifest)]) -> Vec<Diagnostic> {
        let files: Vec<String> = files.iter().map(|s| s.to_string()).collect();
        let manifests = manifests
            .iter()
            .map(|(file, m)| (file.to_string(), m.clone()))
            .collect();
        let mut ctx = LintContext::new();
        ctx.store_findings = cross_check(&files, chunk_files, &manifests);
        let mut out = Vec::new();
        StoreHygienePass.run(&ctx, &mut out);
        out
    }

    #[test]
    fn clean_store_is_silent() {
        let manifests = ["alpha.manifest.json", "a%2Fb.manifest.json"]
            .map(|file| (file, manifest_for(None, &[])));
        let files = [
            "alpha.manifest.json",
            "a%2Fb.manifest.json",
            "sommelier.index.json",
        ];
        assert!(run(&files, &[], &manifests).is_empty());
    }

    #[test]
    fn quarantined_files_warn() {
        let out = run(&["sommelier.index.json.corrupt-1700000000"], &[], &[]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, codes::QUARANTINED_FILE);
        assert_eq!(out[0].severity, Severity::Warn);
    }

    #[test]
    fn orphaned_temps_warn() {
        let out = run(&["alpha.model.json.tmp-123-7"], &[], &[]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, codes::ORPHANED_TEMP);
    }

    fn manifest_for(base: Option<&str>, chunks: &[&str]) -> Manifest {
        use sommelier_graph::{ModelBuilder, TaskKind};
        use sommelier_tensor::{Prng, Shape};
        let mut rng = Prng::seed_from_u64(1);
        let model = ModelBuilder::new("m", TaskKind::Other, Shape::vector(2))
            .dense(2, &mut rng)
            .build()
            .unwrap();
        let (skeleton, _) = model.strip_params();
        Manifest {
            format_version: 1,
            base: base.map(String::from),
            skeleton,
            layers: vec![sommelier_repo::chunks::LayerDelta {
                layer: 1,
                replace: true,
                weight: Some(sommelier_repo::chunks::TensorRef {
                    rows: 2,
                    cols: 2,
                    chunks: chunks.iter().map(|s| s.to_string()).collect(),
                    sparse: None,
                }),
                bias: None,
            }],
        }
    }

    fn hex(fill: char) -> String {
        fill.to_string().repeat(32)
    }

    #[test]
    fn dangling_chunk_reference_errors() {
        let present = hex('a');
        let missing = hex('b');
        let out = run(
            &["m.manifest.json"],
            &[format!("{present}.chunk")],
            &[("m.manifest.json", manifest_for(None, &[&present, &missing]))],
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, codes::DANGLING_CHUNK);
        assert_eq!(out[0].severity, Severity::Error);
        assert_eq!(out[0].target, "file 'm.manifest.json'");
        assert!(out[0].message.contains(&missing));
    }

    #[test]
    fn orphaned_and_stray_chunks_warn() {
        let used = hex('a');
        let orphan = hex('c');
        let out = run(
            &["m.manifest.json"],
            &[
                format!("{used}.chunk"),
                format!("{orphan}.chunk"),
                "notes.txt".into(),
                format!("{used}.chunk.tmp-1-1"),
            ],
            &[("m.manifest.json", manifest_for(None, &[&used]))],
        );
        let orphans: Vec<_> = out
            .iter()
            .filter(|d| d.code == codes::ORPHANED_CHUNK)
            .collect();
        assert_eq!(orphans.len(), 2, "{out:?}"); // refcount-zero + stray
        assert!(orphans.iter().all(|d| d.severity == Severity::Warn));
        assert!(out.iter().any(|d| d.code == codes::ORPHANED_TEMP));
    }

    #[test]
    fn missing_and_cyclic_delta_bases_error() {
        // "a" deltas on a key nobody stores.
        let out = run(
            &["a.manifest.json"],
            &[],
            &[("a.manifest.json", manifest_for(Some("ghost"), &[]))],
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, codes::BROKEN_DELTA_BASE);

        // a -> b -> a cycle, both stored as manifests.
        let out = run(
            &["a.manifest.json", "b.manifest.json"],
            &[],
            &[
                ("a.manifest.json", manifest_for(Some("b"), &[])),
                ("b.manifest.json", manifest_for(Some("a"), &[])),
            ],
        );
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|d| d.code == codes::BROKEN_DELTA_BASE));

        // A healthy delta (base stored full) is silent.
        let out = run(
            &["base.manifest.json", "v1.manifest.json"],
            &[],
            &[
                ("base.manifest.json", manifest_for(None, &[])),
                ("v1.manifest.json", manifest_for(Some("base"), &[])),
            ],
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn non_canonical_model_names_warn() {
        // `%2f` decodes but is not the canonical (uppercase) spelling,
        // and a raw '/' could never appear; a flat model file is no
        // store layout at all. All three are invisible to keys().
        let out = run(
            &["a%2fb.manifest.json", "nul%0.manifest.json", "x.model.json"],
            &[],
            &[],
        );
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|d| d.code == codes::NON_CANONICAL_MODEL_FILE));
    }

    /// The kinds only a directory can show (the scan's I/O half plants
    /// them; `sommelier-repo` tests that): each has a code, names its
    /// file, and a corrupt chunk is an error on the chunk itself.
    #[test]
    fn unreadable_files_and_corrupt_chunks_are_errors_on_their_file() {
        let chunk = format!("chunks/{}.chunk", hex('a'));
        let mut ctx = LintContext::new();
        for (kind, file) in [
            (FindingKind::UnreadableManifest, "m.manifest.json"),
            (FindingKind::CorruptChunk, chunk.as_str()),
        ] {
            ctx.store_findings.push(Finding {
                kind,
                file: file.to_string(),
                message: "does not parse".into(),
            });
        }
        let mut out = Vec::new();
        StoreHygienePass.run(&ctx, &mut out);
        let got: Vec<_> = out.iter().map(|d| (d.code.as_str(), d.target.as_str())).collect();
        assert_eq!(
            got,
            vec![
                (codes::MODEL_UNREADABLE, "file 'm.manifest.json'"),
                (codes::DANGLING_CHUNK, format!("file '{chunk}'").as_str()),
            ]
        );
        assert!(out.iter().all(|d| d.severity == Severity::Error));
    }
}
