//! The analyzer's per-fingerprint probe records, counted: a register runs
//! each model over its probe once, describes it while it is in hand (as
//! a cold open does), loads a partner only to probe it the first time,
//! and computes the bound's norms only for the linear layers no probed
//! model shares.
//!
//! The tests read process-wide counters, so they take turns.

use sommelier_equiv::genbound::architecture_factor;
use sommelier_equiv::whole::GenBoundMode;
use sommelier_equiv::{assess_whole, EquivConfig};
use sommelier_graph::{Fingerprint, Model, ModelBuilder, TaskKind};
use sommelier_index::PairAnalyzer;
use sommelier_query::engine::EquivAnalyzer;
use sommelier_query::{MutationBatch, Sommelier, SommelierConfig};
use sommelier_repo::InMemoryRepository;
use sommelier_runtime::metrics::counters;
use sommelier_tensor::{Prng, Shape};
use sommelier_zoo::finetune::{perturb_all, perturb_sparse};
use std::borrow::Cow;
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

fn layer_norms() -> u64 {
    counters::get("equiv.layer_norms")
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

/// A classifier with four linear layers, so a fine-tune can freeze some.
fn deep(name: &str, input: usize, seed: u64) -> Model {
    let mut rng = Prng::seed_from_u64(seed);
    ModelBuilder::new(name, TaskKind::ImageRecognition, Shape::vector(input))
        .dense(24, &mut rng)
        .relu()
        .dense(24, &mut rng)
        .relu()
        .dense(16, &mut rng)
        .relu()
        .dense(8, &mut rng)
        .softmax()
        .build()
        .unwrap()
}

/// A fine-tune of the last two of `of`'s four linear layers; the first
/// two stay bit-identical to the base's.
fn sparse(of: &Model, name: &str, seed: u64) -> Model {
    let mut m = perturb_sparse(of, 0.5, 0.05, 0.5, &mut Prng::seed_from_u64(seed));
    m.name = name.into();
    m
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
    // loads). Each model is described at its own register, so a partner
    // is loaded only to be probed: each base once, by its first
    // fine-tune, whose own pass ran on the model in hand.
    assert_eq!(partner_loads() - loads, 3);
    let candidates = engine.semantic_index().candidates_of("base-20-ft1");
    assert!(
        candidates.iter().any(|c| c.key == "base-20"),
        "{candidates:?}"
    );
}

#[test]
fn the_second_model_into_an_empty_engine_loads_no_partner() {
    let _turn = serial();
    let mut engine = Sommelier::connect(Arc::new(InMemoryRepository::new()), config());
    register(&mut engine, &base("first", 16, 1));
    let loads = partner_loads();
    // Its one partner is the first model, described at its register; the
    // two differ in I/O, so neither runs.
    register(&mut engine, &base("second", 20, 2));
    assert_eq!(partner_loads() - loads, 0);
}

#[test]
fn a_cold_open_describes_the_models_it_loads() {
    let _turn = serial();
    let repo = Arc::new(InMemoryRepository::new());
    let mut engine = Sommelier::connect(repo.clone(), config());
    let b = base("base", 16, 1);
    for m in [b.clone(), finetune(&b, "ft", 2), base("other", 20, 3)] {
        register(&mut engine, &m);
    }
    let path = std::env::temp_dir().join(format!("probe-records-{}.json", std::process::id()));
    engine.save_indices(&path).unwrap();
    let mut reopened = Sommelier::connect_with_indices(repo, config(), &path).unwrap();
    std::fs::remove_file(&path).ok();
    // Every indexed model is a partner, and none matches the newcomer's
    // I/O: the descriptors the open recorded answer every check.
    let (probes, loads) = (probe_passes(), partner_loads());
    register(&mut reopened, &base("loner", 28, 4));
    assert_eq!(partner_loads() - loads, 0);
    assert_eq!(probe_passes() - probes, 0);
    assert_eq!(reopened.len(), 4);
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

/// A base, a fine-tune of every layer, and a sparse fine-tune, in that
/// order: 4 + 4 norms for the first pair, 2 for the sparse one.
fn family(engine: &mut Sommelier) -> [Model; 3] {
    let b = deep("base", 16, 1);
    let ft = finetune(&b, "ft", 2);
    let sp = sparse(&b, "sparse", 3);
    let norms = layer_norms();
    register(engine, &b);
    register(engine, &ft);
    assert_eq!(layer_norms() - norms, 8, "nothing shared yet");
    [b, ft, sp]
}

#[test]
fn a_sparse_finetune_computes_norms_only_for_the_layers_it_changed() {
    let _turn = serial();
    let mut engine = Sommelier::connect(Arc::new(InMemoryRepository::new()), config());
    let [_, _, sp] = family(&mut engine);
    assert_eq!(engine.held_layer_norms(), 8);
    let (probes, norms) = (probe_passes(), layer_norms());
    register(&mut engine, &sp);
    assert_eq!(probe_passes() - probes, 1);
    assert_eq!(layer_norms() - norms, 2, "its two frozen layers hit");
    assert_eq!(engine.held_layer_norms(), 10);
}

#[test]
fn a_reregistered_base_recomputes_only_the_layers_it_does_not_share() {
    let _turn = serial();
    let mut engine = Sommelier::connect(Arc::new(InMemoryRepository::new()), config());
    let [b, _, sp] = family(&mut engine);
    register(&mut engine, &sp);
    // The base's record goes, and with it the two layers only it read;
    // the sparse fine-tune still holds the two they share.
    unregister(&mut engine, "base");
    assert_eq!(engine.held_layer_norms(), 8);
    let (probes, norms) = (probe_passes(), layer_norms());
    // A removal leaves the stored model, so its key comes back through a
    // batch that removes it too.
    let batch = MutationBatch::new().unregister("base").register(b);
    assert_eq!(engine.apply(batch).unwrap(), 1);
    assert_eq!(probe_passes() - probes, 1);
    assert_eq!(layer_norms() - norms, 2);
    assert_eq!(engine.held_layer_norms(), 10);
}

#[test]
fn unregistering_every_model_empties_the_memo() {
    let _turn = serial();
    let mut engine = Sommelier::connect(Arc::new(InMemoryRepository::new()), config());
    let [_, _, sp] = family(&mut engine);
    register(&mut engine, &sp);
    let mut alias = sp.clone();
    alias.name = "sparse-alias".into();
    register(&mut engine, &alias);
    for key in ["ft", "sparse", "base"] {
        unregister(&mut engine, key);
        assert!(engine.held_layer_norms() > 0, "the alias holds its layers");
    }
    unregister(&mut engine, "sparse-alias");
    assert_eq!(engine.held_layer_norms(), 0);
    assert!(engine.is_empty());
}

#[test]
fn memoized_factors_match_the_direct_computation_bit_for_bit() {
    let _turn = serial();
    let cfg = config();
    let GenBoundMode::On(gb) = cfg.equiv.genbound else {
        panic!("the default config runs the bound");
    };
    let analyzer = EquivAnalyzer::new(
        cfg.equiv,
        cfg.segment_epsilon,
        cfg.validation_rows,
        cfg.seed,
    );
    // Two families in upload order, each base before its fine-tunes.
    let mut zoo = Vec::new();
    for (input, seed) in [(16, 1), (20, 5)] {
        let b = deep(&format!("base-{input}"), input, seed);
        let tunes = [
            finetune(&b, &format!("ft-{input}"), seed + 1),
            sparse(&b, &format!("sp1-{input}"), seed + 2),
            sparse(&b, &format!("sp2-{input}"), seed + 3),
        ];
        zoo.push(b);
        zoo.extend(tunes);
    }
    let fps: Vec<Fingerprint> = zoo.iter().map(Fingerprint::of_model).collect();
    let load = |fp: Fingerprint| {
        let at = fps.iter().position(|f| *f == fp)?;
        Some(Cow::Borrowed(&zoo[at]))
    };
    // What the analyzer composed before it kept a memo: the empirical
    // difference, plus the term from two factors computed directly.
    let direct = |r: &Model, c: &Model| {
        let probe = analyzer.probe(r.input_width());
        let empirical = EquivConfig {
            epsilon: cfg.equiv.epsilon,
            genbound: GenBoundMode::Off,
        };
        let report = assess_whole(r, c, &probe, &empirical).ok()?;
        let (fr, fc) = (
            architecture_factor(r, &probe, &gb),
            architecture_factor(c, &probe, &gb),
        );
        let n = (probe.rows().max(1) as f64).sqrt();
        let term = gb.constant * 0.5 * (fr + fc) / (gb.gamma * n) + gb.concentration / n;
        Some((report.empirical_diff + term).to_bits())
    };
    let (probes, norms) = (probe_passes(), layer_norms());
    let mut measured = Vec::new();
    for j in 0..zoo.len() {
        for i in 0..j {
            measured.push((i, j, analyzer.analyze_pair(fps[i], fps[j], &load, false)));
        }
    }
    // Each family: 4 + 4 norms for the base and its full fine-tune, 2 for
    // each sparse one.
    assert_eq!(probe_passes() - probes, 8);
    assert_eq!(layer_norms() - norms, 2 * (4 + 4 + 2 + 2));
    for (i, j, m) in measured {
        let (a, b) = (&zoo[i], &zoo[j]);
        let pair = format!("{} and {}", a.name, b.name);
        assert_eq!(m.fwd.map(f64::to_bits), direct(a, b), "{pair}");
        assert_eq!(m.rev.map(f64::to_bits), direct(b, a), "{pair}");
    }
}
