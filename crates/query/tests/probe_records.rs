//! The analyzer's per-fingerprint probe records, counted: a register runs
//! each model over its probe once and loads a partner only to describe
//! or probe it the first time.
//!
//! Both tests read process-wide counters, so they take turns.

use sommelier_graph::{Model, ModelBuilder, TaskKind};
use sommelier_query::{MutationBatch, Sommelier, SommelierConfig};
use sommelier_repo::InMemoryRepository;
use sommelier_runtime::metrics::counters;
use sommelier_tensor::{Prng, Shape};
use sommelier_zoo::finetune::perturb_all;
use std::sync::{Arc, Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn probe_passes() -> u64 {
    counters::get("equiv.probe_passes")
}

fn partner_loads() -> u64 {
    counters::get("index.partner_loads")
}

fn config() -> SommelierConfig {
    let mut cfg = SommelierConfig {
        validation_rows: 64,
        ..SommelierConfig::default()
    };
    cfg.index.sample_size = 64; // every earlier model is a partner
    cfg.index.segments = false;
    cfg
}

/// A classifier whose input width sets its I/O: models of different
/// widths never pass the I/O check.
fn base(name: &str, input: usize, seed: u64) -> Model {
    let mut rng = Prng::seed_from_u64(seed);
    ModelBuilder::new(name, TaskKind::ImageRecognition, Shape::vector(input))
        .dense(24, &mut rng)
        .relu()
        .dense(8, &mut rng)
        .softmax()
        .build()
        .unwrap()
}

fn finetune(of: &Model, name: &str, seed: u64) -> Model {
    let mut m = perturb_all(of, 0.05, &mut Prng::seed_from_u64(seed));
    m.name = name.into();
    m
}

fn register(engine: &mut Sommelier, model: &Model) {
    let applied = engine.apply(MutationBatch::new().register(model.clone()));
    assert_eq!(applied.unwrap(), 1, "{}", model.name);
}

fn unregister(engine: &mut Sommelier, key: &str) {
    let applied = engine.apply(MutationBatch::new().unregister(key));
    assert_eq!(applied.unwrap(), 1, "{key}");
}

#[test]
fn a_register_probes_each_model_once_and_loads_few_partners() {
    let _turn = serial();
    let bases = [16, 20, 24].map(|w| base(&format!("base-{w}"), w, w as u64));
    // Upload order: the bases, then each base's first fine-tune, then
    // each one's second; a model compatible with nothing comes last.
    let mut zoo: Vec<Model> = bases.to_vec();
    for round in 0..2 {
        for b in &bases {
            zoo.push(finetune(
                b,
                &format!("{}-ft{round}", b.name),
                100 + zoo.len() as u64,
            ));
        }
    }
    zoo.push(base("loner", 28, 28));
    let mut engine = Sommelier::connect(Arc::new(InMemoryRepository::new()), config());
    let (probes, loads) = (probe_passes(), partner_loads());
    for m in &zoo[..bases.len()] {
        register(&mut engine, m);
    }
    assert_eq!(probe_passes(), probes, "the bases compare with nothing");
    for m in &zoo[bases.len()..] {
        register(&mut engine, m);
    }
    // Nine models have a compatible partner; each ran once.
    assert_eq!(probe_passes() - probes, 9);
    // Before records every register loaded every earlier model (45
    // loads); now a partner is loaded to be described or probed, once
    // each.
    let loaded = partner_loads() - loads;
    assert!(loaded <= zoo.len() as u64, "{loaded} partner loads");
    let candidates = engine.semantic_index().candidates_of("base-20-ft1");
    assert!(
        candidates.iter().any(|c| c.key == "base-20"),
        "{candidates:?}"
    );
}

#[test]
fn records_leave_with_their_fingerprints_last_key() {
    let _turn = serial();
    let b = base("base", 16, 1);
    let ft = finetune(&b, "ft", 2);
    let mut engine = Sommelier::connect(Arc::new(InMemoryRepository::new()), config());
    register(&mut engine, &b);
    register(&mut engine, &ft);

    // With no alias, an unregister drops the record: the same weights
    // back run over the probe again, and the partner's record serves.
    unregister(&mut engine, "ft");
    let (probes, loads) = (probe_passes(), partner_loads());
    let batch = MutationBatch::new().unregister("ft").register(ft.clone());
    assert_eq!(engine.apply(batch).unwrap(), 1);
    assert_eq!(probe_passes() - probes, 1, "the dropped record is rebuilt");
    assert_eq!(partner_loads() - loads, 0);

    // An alias keeps it: with the same weights under a second key,
    // dropping the first key leaves the record, so a newcomer is the
    // only model to run and nothing is loaded.
    let mut alias = ft.clone();
    alias.name = "ft-alias".into();
    register(&mut engine, &alias);
    unregister(&mut engine, "ft");
    let (probes, loads) = (probe_passes(), partner_loads());
    register(&mut engine, &finetune(&b, "ft-2", 3));
    assert_eq!(probe_passes() - probes, 1);
    assert_eq!(partner_loads() - loads, 0);

    // New weights under a live key are one new record, probed once.
    let (probes, loads) = (probe_passes(), partner_loads());
    let batch = MutationBatch::new()
        .unregister("ft-2")
        .register(finetune(&b, "ft-2", 4));
    assert_eq!(engine.apply(batch).unwrap(), 2);
    assert_eq!(probe_passes() - probes, 1);
    assert_eq!(partner_loads() - loads, 0);
}
