//! Integration: the deep audit against sabotaged zoos.
//!
//! The contract under test (the PR's acceptance bar):
//!
//! 1. a clean seeded-and-indexed zoo audits to **zero** findings;
//! 2. every [`sabotage::Defect`] planted into a copy of that zoo is
//!    detected — the audit reports the defect's expected code;
//! 3. the JSON report is byte-identical at `--jobs 1/4/8`;
//! 4. two keys with the same weights are each judged on their own
//!    content, metadata included.
//!
//! The zoo is built exactly the way the CLI builds one (`sommelier
//! seed` + `sommelier index`): same family rotation, same
//! `build_series` parameters, same default `SommelierConfig`, indices
//! persisted to `sommelier.index.json`.

use sommelier::index::persist::INDEX_FILE;
use sommelier::lint::LintContext;
use sommelier::prelude::*;
use sommelier::zoo::sabotage::{self, Defect};
use sommelier::zoo::series::build_series;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;

/// Fresh scratch directory under the target dir (kept out of the repo
/// root and unique per label so parallel tests never collide).
fn scratch(label: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("audit-{label}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Seed and index a zoo at `dir`, mirroring `sommelier seed` +
/// `sommelier index` with `n_series` series.
fn seed_zoo(dir: &Path, n_series: usize, seed: u64) {
    let repo = Arc::new(OnDiskRepository::open(dir).unwrap());
    let families = [
        Family::Bitish,
        Family::Efficientnetish,
        Family::Resnetish,
        Family::Mobilenetish,
        Family::Vggish,
        Family::Inceptionish,
    ];
    let mut rng = Prng::seed_from_u64(seed);
    for i in 0..n_series {
        let family = families[i % families.len()];
        let series = build_series(
            &format!("{}-v{}", family.slug(), i / families.len() + 1),
            family,
            TaskKind::ImageRecognition,
            "imagenet",
            5,
            seed,
            0.12,
            &mut rng,
        );
        for m in &series.models {
            repo.publish(&m.name, m, true).unwrap();
        }
    }
    let mut engine = Sommelier::connect(repo as Arc<dyn ModelRepository>, SommelierConfig::default());
    engine.index_existing().unwrap();
    engine.save_indices(&dir.join(INDEX_FILE)).unwrap();
}

/// Copy the store at `src` (its files and its `chunks/`) into a fresh
/// scratch dir named `label`.
fn copy_zoo(src: &Path, label: &str) -> PathBuf {
    let dst = scratch(label);
    copy_files(src, &dst);
    let chunks = Path::new(sommelier::repo::CHUNK_DIR);
    std::fs::create_dir_all(dst.join(chunks)).unwrap();
    copy_files(&src.join(chunks), &dst.join(chunks));
    dst
}

fn copy_files(src: &Path, dst: &Path) {
    for entry in std::fs::read_dir(src).unwrap() {
        let path = entry.unwrap().path();
        if path.is_file() {
            std::fs::copy(&path, dst.join(path.file_name().unwrap())).unwrap();
        }
    }
}

fn audit_codes(dir: &Path, jobs: usize) -> Vec<String> {
    let ctx = LintContext::from_repo_dir(dir).unwrap();
    sommelier::lint::run(&ctx, true, jobs)
        .diagnostics
        .iter()
        .map(|d| d.code.clone())
        .collect()
}

#[test]
fn sabotage_detection_matrix() {
    let golden = scratch("golden");
    seed_zoo(&golden, 2, 42);

    // 1. The clean zoo is silent — the audit's false-positive floor.
    let clean = audit_codes(&golden, 2);
    assert!(clean.is_empty(), "clean zoo raised findings: {clean:?}");

    // 2. Every planted defect is found under its expected code.
    for defect in Defect::ALL {
        let copy = copy_zoo(&golden, defect.name());
        let what = sabotage::plant(&copy, defect)
            .unwrap_or_else(|e| panic!("planting {defect:?} failed: {e}"));
        let codes = audit_codes(&copy, 2);
        assert!(
            codes.iter().any(|c| c == defect.expected_code()),
            "{defect:?} ({what}) not detected: audit raised {codes:?}, \
             expected {}",
            defect.expected_code()
        );
    }
}

#[test]
fn audit_reports_are_byte_identical_across_job_counts() {
    let dir = scratch("determinism");
    seed_zoo(&dir, 1, 7);
    // A sabotaged zoo gives the report actual content to keep stable.
    sabotage::plant(&dir, Defect::NonFiniteWeights).unwrap();
    sabotage::plant(&dir, Defect::DeadSubgraph).unwrap();

    let json: Vec<String> = [1usize, 4, 8]
        .iter()
        .map(|&jobs| {
            let ctx = LintContext::from_repo_dir(&dir).unwrap();
            sommelier::lint::run(&ctx, true, jobs).to_json()
        })
        .collect();
    assert!(!json[0].is_empty() && json[0] != "[]", "report unexpectedly empty");
    assert_eq!(json[0], json[1], "jobs=1 vs jobs=4 reports differ");
    assert_eq!(json[1], json[2], "jobs=4 vs jobs=8 reports differ");
}

#[test]
fn same_weights_under_two_keys_are_judged_apart() {
    // `zz-copy` holds the first key's weights, so the two models share a
    // fingerprint; only `zz-copy` declares a wrong cost, and it sorts
    // after its twin.
    let dir = scratch("twins");
    seed_zoo(&dir, 1, 7);
    let repo = Arc::new(OnDiskRepository::open(&dir).unwrap());
    let first = repo.try_keys().unwrap().remove(0);
    let mut copy = repo.load(&first).unwrap();
    copy.name = "zz-copy".into();
    copy.metadata.insert("cost.flops".into(), "1".into());
    repo.publish("zz-copy", &copy, false).unwrap();
    let mut engine =
        Sommelier::connect(repo as Arc<dyn ModelRepository>, SommelierConfig::default());
    engine.index_existing().unwrap();
    engine.save_indices(&dir.join(INDEX_FILE)).unwrap();

    let ctx = LintContext::from_repo_dir(&dir).unwrap();
    for jobs in [1, 4] {
        let report = sommelier::lint::run(&ctx, true, jobs);
        let flagged: Vec<&str> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "SOM086")
            .map(|d| d.target.as_str())
            .collect();
        assert_eq!(flagged, ["model 'zz-copy'"], "jobs {jobs}: {}", report.render_text());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Clean zoos are silent for arbitrary seeds, and a planted defect
    /// chosen by the seed is always caught. Three cases keep the
    /// end-to-end seeding cost bounded; the fixed-seed matrix above
    /// covers every defect deterministically.
    #[test]
    fn seeded_zoos_audit_clean_and_sabotage_is_caught(seed in 0u64..1000) {
        let label = format!("prop-{seed}");
        let dir = scratch(&label);
        seed_zoo(&dir, 1, seed);
        let clean = audit_codes(&dir, 2);
        prop_assert!(clean.is_empty(), "seed {} raised {:?}", seed, clean);

        let defect = Defect::ALL[(seed % Defect::ALL.len() as u64) as usize];
        sabotage::plant(&dir, defect).map_err(TestCaseError::fail)?;
        let codes = audit_codes(&dir, 2);
        prop_assert!(
            codes.iter().any(|c| c == defect.expected_code()),
            "seed {}: {:?} not detected in {:?}",
            seed, defect, codes
        );
    }
}
