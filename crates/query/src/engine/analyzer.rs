//! [`EquivAnalyzer`] is the production [`PairAnalyzer`]. It keeps one
//! probe record per model fingerprint: the model's I/O descriptor, and
//! its outputs on a seeded probe batch with the generalization bound's
//! architecture factor, both from one traced pass. Whole-model analysis
//! compares two records (`sommelier-equiv`'s `check_io` and `compose`),
//! so the index hands it fingerprints. The engine describes each model
//! while it has it in hand, at registration and at cold open, so an I/O
//! check loads nothing and a partner is loaded only to be probed, the
//! first time. Segment analysis runs
//! `assess_replacement` on the models themselves. The analyzer is
//! thread-safe: analyses run concurrently during index construction, and
//! any randomness is seeded per pair so results never depend on call
//! order.
//!
//! Beside the records it keeps a memo of each distinct linear layer's
//! `(‖W‖_F, σ_max)`, the two norms the factor's cushions read, keyed by
//! [`LayerKey`] (operator, input width, weight shape and bits). A
//! fine-tune shares its frozen layers with its base, so its probe pass
//! computes norms only for the layers it changed. A hit returns the bits
//! the same weights produce, so factors, edges and snapshots do not move.
//! An entry lives while some record that read it lives: dropping a
//! record releases its layers, and a layer's last release removes it.

use super::SommelierConfig;
use sommelier_equiv::genbound::{layer_norms, LayerNorms};
use sommelier_equiv::whole::{compose, probe_model, GenBoundMode};
use sommelier_equiv::{check_io, EquivConfig, IoCompat, IoDescriptor, ProbeOutput};
use sommelier_graph::{Fingerprint, LayerId, LayerKey, Model};
use sommelier_index::{EdgeMeasurement, PairAnalyzer};
use sommelier_runtime::metrics::counters::CachedCounter;
use sommelier_tensor::{mix64, Prng, Tensor};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Models the analyzer ran over its probe: one traced pass each, at the
/// model's first I/O-compatible pair.
static PROBE_PASSES: CachedCounter = CachedCounter::new("equiv.probe_passes");

/// Each distinct linear layer's norms, with the number of record layers
/// that read them.
type NormMemo = Mutex<HashMap<LayerKey, (LayerNorms, usize)>>;

/// Every map here is changed one whole entry at a time, so a guard
/// recovered from a poisoned lock still holds whole entries.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The memo entries one probe pass read, one key per linear layer.
/// Dropping it, with its record, releases them.
struct Lease {
    memo: Arc<NormMemo>,
    keys: Vec<LayerKey>,
}

impl Drop for Lease {
    fn drop(&mut self) {
        let mut memo = lock(&self.memo);
        for key in &self.keys {
            if let Entry::Occupied(mut entry) = memo.entry(*key) {
                entry.get_mut().1 -= 1;
                if entry.get().1 == 0 {
                    entry.remove();
                }
            }
        }
    }
}

/// What the analyzer keeps of one model, keyed by fingerprint: everything
/// whole-model analysis reads of it, and never the model or its trace.
pub(super) struct ProbeRecord {
    /// What the I/O check reads, from the first description of the
    /// model.
    io: IoDescriptor,
    /// Outputs on the seeded probe of the model's input width, and the
    /// architecture factor, from one traced pass at the model's first
    /// I/O-compatible pair; and the norm-memo entries that pass read.
    probe: OnceLock<(ProbeOutput, Lease)>,
}

/// A model named by fingerprint, loaded on first need and at most once.
pub(super) struct Subject<'l, 'm> {
    pub(super) fp: Fingerprint,
    load: &'l dyn Fn(Fingerprint) -> Option<Cow<'m, Model>>,
    model: OnceCell<Option<Cow<'m, Model>>>,
}

impl<'l, 'm> Subject<'l, 'm> {
    fn named(fp: Fingerprint, load: &'l dyn Fn(Fingerprint) -> Option<Cow<'m, Model>>) -> Self {
        Subject {
            fp,
            load,
            model: OnceCell::new(),
        }
    }

    /// A model already at hand.
    pub(super) fn held(model: &'m Model) -> Self {
        Subject {
            fp: Fingerprint::of_model(model),
            load: &|_| None,
            model: OnceCell::from(Some(Cow::Borrowed(model))),
        }
    }

    fn model(&self) -> Option<&Model> {
        self.model.get_or_init(|| (self.load)(self.fp)).as_deref()
    }
}

/// The I/O check, and what per-model probes add to it: each model runs on
/// the probe of its own input width, so two models that waive the shape
/// check by declaring preprocessors but differ in width share no probe
/// (running one on the other's fails to execute).
fn comparable(a: &IoDescriptor, b: &IoDescriptor) -> Result<(), String> {
    if let IoCompat::Incompatible(why) = check_io(a, b) {
        return Err(why);
    }
    if a.input_width != b.input_width {
        return Err(format!(
            "input widths differ: {} vs {}",
            a.input_width, b.input_width
        ));
    }
    Ok(())
}

/// The production pairwise analyzer.
///
/// It keeps one probe record per fingerprint, so a model is described
/// once, runs over its probe once, and a pair is two records compared.
/// Like the index, it takes a fingerprint to name one model: aliases
/// share a record. The engine drops a record when its
/// fingerprint's last key leaves the index.
///
/// Thread-safe ([`Sync`]): probe batches and records are memoized behind
/// mutexes, and segment-replacement randomness is seeded per pair from
/// the model fingerprints — so the analyzer returns the same answer for a
/// pair no matter which worker asks, or in what order.
pub struct EquivAnalyzer {
    equiv: EquivConfig,
    segment_epsilon: f64,
    validation_rows: usize,
    probes: Mutex<HashMap<usize, Tensor>>,
    records: Mutex<HashMap<Fingerprint, Arc<ProbeRecord>>>,
    norms: Arc<NormMemo>,
    seed: u64,
}

impl EquivAnalyzer {
    /// The analyzer an engine with `config` runs.
    pub(super) fn of(config: &SommelierConfig) -> Self {
        Self::new(
            config.equiv,
            config.segment_epsilon,
            config.validation_rows,
            config.seed,
        )
    }

    pub fn new(
        equiv: EquivConfig,
        segment_epsilon: f64,
        validation_rows: usize,
        seed: u64,
    ) -> Self {
        EquivAnalyzer {
            equiv,
            segment_epsilon,
            validation_rows,
            probes: Mutex::new(HashMap::new()),
            records: Mutex::new(HashMap::new()),
            norms: Arc::default(),
            seed,
        }
    }

    /// The seeded probe batch for a given input width (cached).
    pub fn probe(&self, input_width: usize) -> Tensor {
        let rows = self.validation_rows;
        let seed = self.seed;
        lock(&self.probes)
            .entry(input_width)
            .or_insert_with(|| {
                let mut rng = Prng::seed_from_u64(seed ^ (input_width as u64).rotate_left(17));
                Tensor::gaussian(rows, input_width, 1.0, &mut rng)
            })
            .clone()
    }

    fn records(&self) -> MutexGuard<'_, HashMap<Fingerprint, Arc<ProbeRecord>>> {
        lock(&self.records)
    }

    /// Drop the records of `gone`, and with each the norms no other
    /// record read.
    pub(super) fn forget(&self, gone: impl IntoIterator<Item = Fingerprint>) {
        let mut records = self.records();
        for fp in gone {
            records.remove(&fp);
        }
    }

    /// Distinct linear layers whose norms the memo holds.
    pub(super) fn held_norms(&self) -> usize {
        lock(&self.norms).len()
    }

    /// Layer `id`'s norms from the memo, computed on a miss; `keys` takes
    /// the entry the caller now holds.
    fn norms(&self, model: &Model, id: LayerId, keys: &mut Vec<LayerKey>) -> LayerNorms {
        let key = LayerKey::of(model, id);
        let held = lock(&self.norms).get_mut(&key).map(|(norms, users)| {
            *users += 1;
            *norms
        });
        let norms = held.unwrap_or_else(|| {
            // Computed unlocked, so lanes probing other models do not wait.
            let computed = layer_norms(model, id);
            let mut memo = lock(&self.norms);
            let (norms, users) = memo.entry(key).or_insert((computed, 0));
            *users += 1;
            *norms
        });
        // Taken only once counted, so a release never undercounts.
        keys.push(key);
        norms
    }

    /// `fp`'s record, described from `model` unless it has one: the
    /// first description wins.
    pub(super) fn describe(&self, fp: Fingerprint, model: &Model) -> Arc<ProbeRecord> {
        Arc::clone(self.records().entry(fp).or_insert_with(|| {
            Arc::new(ProbeRecord {
                io: IoDescriptor::of(model),
                probe: OnceLock::new(),
            })
        }))
    }

    /// `subject`'s record, described from its model on first sight.
    fn record(&self, subject: &Subject<'_, '_>) -> Option<Arc<ProbeRecord>> {
        if let Some(record) = self.records().get(&subject.fp) {
            return Some(Arc::clone(record));
        }
        Some(self.describe(subject.fp, subject.model()?))
    }

    /// The record's probe output, from one pass over the model the first
    /// time it is asked for.
    fn probed<'r>(
        &self,
        record: &'r ProbeRecord,
        subject: &Subject<'_, '_>,
    ) -> Option<&'r ProbeOutput> {
        if let Some((probe, _)) = record.probe.get() {
            return Some(probe);
        }
        let model = subject.model()?;
        let (probe, _) = record.probe.get_or_init(|| {
            PROBE_PASSES.add(1);
            // Made first, so a panicking pass still releases its keys.
            let mut lease = Lease {
                memo: Arc::clone(&self.norms),
                keys: Vec::new(),
            };
            let probe = probe_model(
                model,
                &self.probe(model.input_width()),
                &self.equiv.genbound,
                |m, id| self.norms(m, id, &mut lease.keys),
            )
            .expect("a model runs on the probe of its own input width");
            (probe, lease)
        });
        Some(probe)
    }

    /// Both directed whole-model diffs of a pair, `[a → b, b → a]`, each
    /// as (empirical QoR difference, bound term); why the pair cannot be
    /// compared otherwise.
    pub(super) fn whole_pair(
        &self,
        a: &Subject<'_, '_>,
        b: &Subject<'_, '_>,
    ) -> Result<[(f64, f64); 2], String> {
        let unloadable = |s: &Subject<'_, '_>| format!("model {:016x} cannot be loaded", s.fp.0);
        let ra = self.record(a).ok_or_else(|| unloadable(a))?;
        let rb = self.record(b).ok_or_else(|| unloadable(b))?;
        comparable(&ra.io, &rb.io)?;
        let pa = self.probed(&ra, a).ok_or_else(|| unloadable(a))?;
        let pb = self.probed(&rb, b).ok_or_else(|| unloadable(b))?;
        Ok([self.directed(&ra.io, pa, pb), self.directed(&rb.io, pb, pa)])
    }

    /// `candidate`'s difference w.r.t. `reference` as (empirical QoR
    /// difference, bound term). The term is recomposed from the two
    /// architecture factors at `n` = probe rows, in the form every
    /// snapshot was built with.
    fn directed(&self, reference: &IoDescriptor, r: &ProbeOutput, c: &ProbeOutput) -> (f64, f64) {
        let empirical_cfg = EquivConfig {
            epsilon: self.equiv.epsilon,
            genbound: GenBoundMode::Off,
        };
        let report = compose(reference.task.output_style(), r, c, &empirical_cfg);
        let term = match self.equiv.genbound {
            GenBoundMode::Off => 0.0,
            GenBoundMode::On(gb) => {
                let factor =
                    |p: &ProbeOutput| p.factor.expect("records are probed with the bound on");
                let n = (r.outputs.rows().max(1) as f64).sqrt();
                gb.constant * 0.5 * (factor(r) + factor(c)) / (gb.gamma * n) + gb.concentration / n
            }
        };
        (report.empirical_diff, term)
    }

    fn segment(
        &self,
        host: &Model,
        host_fp: Fingerprint,
        donor: &Model,
        donor_fp: Fingerprint,
    ) -> Option<f64> {
        let probe = self.probe(host.input_width());
        // A small slice suffices for noise-injection estimation.
        let rows = probe.rows().min(16);
        let small = if probe.rows() > rows {
            let slice: Vec<Tensor> = (0..rows).map(|r| probe.row_tensor(r)).collect();
            Tensor::stack_rows(&slice)
        } else {
            probe
        };
        // Per-pair seeding: the noise draws are a pure function of
        // (analyzer seed, host, donor), never of analysis order.
        let mut rng = Prng::seed_from_u64(mix64(&[self.seed, host_fp.0, donor_fp.0, 0x5e6]));
        sommelier_equiv::assessment::assess_replacement(
            host,
            donor,
            &small,
            self.segment_epsilon,
            &mut rng,
        )
        .ok()
        .and_then(|assessment| assessment.equivalent.then_some(assessment.qor_diff))
    }
}

impl PairAnalyzer for EquivAnalyzer {
    fn whole_diff(&self, reference: &Model, candidate: &Model) -> Option<f64> {
        // The descriptors first: an incomparable pair costs no hashing.
        comparable(&IoDescriptor::of(reference), &IoDescriptor::of(candidate)).ok()?;
        let [(empirical, term), _] = self
            .whole_pair(&Subject::held(reference), &Subject::held(candidate))
            .ok()?;
        Some(empirical + term)
    }

    fn segment_diff(&self, host: &Model, donor: &Model) -> Option<f64> {
        self.segment(
            host,
            Fingerprint::of_model(host),
            donor,
            Fingerprint::of_model(donor),
        )
    }

    fn analyze_pair<'m>(
        &self,
        a: Fingerprint,
        b: Fingerprint,
        load: &dyn Fn(Fingerprint) -> Option<Cow<'m, Model>>,
        segments: bool,
    ) -> EdgeMeasurement {
        let (a, b) = (Subject::named(a, load), Subject::named(b, load));
        // Segment analysis reads both models: a pair either of which
        // cannot be loaded is all-`None`, as in the default.
        let (seg_fwd, seg_rev) = if segments {
            let (Some(ma), Some(mb)) = (a.model(), b.model()) else {
                return EdgeMeasurement::default();
            };
            (
                self.segment(ma, a.fp, mb, b.fp),
                self.segment(mb, b.fp, ma, a.fp),
            )
        } else {
            (None, None)
        };
        let whole = self.whole_pair(&a, &b).ok();
        let total = |i: usize| whole.map(|d: [(f64, f64); 2]| d[i].0 + d[i].1);
        EdgeMeasurement {
            fwd: total(0),
            rev: total(1),
            seg_fwd,
            seg_rev,
        }
    }
}
