//! Integration: sanity of the TF-Hub-style catalog — every model in the
//! 163-model / 30-series hub must be valid, executable, serializable, and
//! behave like a model hub (series grow in cost, larger members are more
//! accurate, tasks are covered).

use sommelier::graph::cost::model_cost;
use sommelier::graph::serde_model;
use sommelier::prelude::*;
use sommelier::runtime::metrics::{qor_against_truth, GroundTruth};
use sommelier::zoo::series::{catalog_model_count, tfhub_catalog};
use std::collections::BTreeSet;

#[test]
fn every_catalog_model_is_valid_and_executable() {
    let catalog = tfhub_catalog(99);
    assert_eq!(catalog.len(), 30);
    assert_eq!(catalog_model_count(&catalog), 163);

    let mut names = BTreeSet::new();
    let mut tasks = BTreeSet::new();
    for series in &catalog {
        tasks.insert(series.task);
        for m in &series.models {
            assert!(names.insert(m.name.clone()), "duplicate name {}", m.name);
            // Execute on a tiny probe: must be finite and correctly
            // shaped.
            let mut rng = Prng::seed_from_u64(1);
            let x = Tensor::gaussian(2, m.input_width(), 1.0, &mut rng);
            let out = execute(m, &x).expect("catalog model executes");
            assert_eq!(out.cols(), m.output_width());
            assert!(out.as_slice().iter().all(|v| v.is_finite()));
        }
    }
    // All six paper task categories appear.
    assert_eq!(tasks.len(), 6);
}

#[test]
fn series_members_grow_in_cost() {
    let catalog = tfhub_catalog(99);
    for series in &catalog {
        let flops: Vec<u64> = series.models.iter().map(|m| model_cost(m).flops).collect();
        for w in flops.windows(2) {
            assert!(
                w[1] > w[0],
                "series {} is not monotone in cost: {flops:?}",
                series.name
            );
        }
    }
}

#[test]
fn larger_members_are_at_least_as_accurate_at_the_ends() {
    // Per-series: the largest member must beat the smallest on the
    // series' own task (intermediate members may wiggle with noise).
    let catalog = tfhub_catalog(99);
    let mut wins = 0usize;
    let mut total = 0usize;
    for series in &catalog {
        let teacher = Teacher::for_task(series.task, 99);
        let mut rng = Prng::seed_from_u64(7);
        let x = Tensor::gaussian(300, teacher.spec.input_width, 1.0, &mut rng);
        let truth = match series.task.output_style() {
            sommelier::graph::task::OutputStyle::Classification => {
                GroundTruth::Labels(teacher.labels(&x))
            }
            sommelier::graph::task::OutputStyle::Regression => {
                GroundTruth::Targets(teacher.outputs(&x))
            }
        };
        let qor = |m: &sommelier::graph::Model| {
            let out = execute(m, &x).expect("runs");
            qor_against_truth(series.task.output_style(), &out, &truth)
        };
        let small = qor(series.models.first().expect("non-empty"));
        let large = qor(series.models.last().expect("non-empty"));
        total += 1;
        if large >= small {
            wins += 1;
        }
    }
    assert!(
        wins * 10 >= total * 9,
        "only {wins}/{total} series have their largest member at least as accurate as their smallest"
    );
}

#[test]
fn catalog_models_round_trip_through_the_interchange_format() {
    let catalog = tfhub_catalog(99);
    // Spot-check one model per series (all 163 would be slow in CI).
    for series in &catalog {
        let m = &series.models[series.models.len() / 2];
        let restored = serde_model::from_json(&serde_model::to_json(m).unwrap()).expect("round trip");
        assert_eq!(m, &restored);
    }
}

#[test]
fn metadata_records_provenance_for_every_model() {
    let catalog = tfhub_catalog(99);
    for series in &catalog {
        for m in &series.models {
            assert_eq!(m.metadata["series"], series.name);
            assert_eq!(m.metadata["dataset"], series.dataset);
            assert!(m.metadata.contains_key("base"));
            assert!(m.metadata.contains_key("family"));
        }
    }
}
