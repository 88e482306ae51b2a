//! Live-engine model switching (paper Section 7.1, closed loop).
//!
//! The static [`Policy`](crate::Policy) variants choose among a
//! *precomputed* variant table. [`EngineSwitcher`] closes the loop the
//! paper describes: at every request the server formulates a Sommelier
//! query for models functionally equivalent to the served reference, and
//! picks — among the models the **live engine** returned — the most
//! accurate one whose service time fits the SLA budget left after the
//! observed backlog.
//!
//! The switcher holds a [`SommelierReader`], the engine's query handle:
//! every `choose` pins the currently published snapshot, so serving
//! never waits out a concurrent reindex and each decision is made
//! against exactly one index epoch. The query text is fixed per
//! switcher, so on a quiescent snapshot every per-request query after
//! the first is answered by the engine's plan/result cache — the
//! decision cost is one cache probe, not a plan + two index filters.
//!
//! The reference model is always eligible (it is trivially equivalent to
//! itself); candidates the engine no longer vouches for — e.g. models
//! unregistered since the variant table was built — are never served,
//! even if they fit the budget. If the query fails outright (say the
//! reference itself was unregistered), the switcher degrades to plain
//! budget-based switching over the full table: serving keeps draining.

use crate::policies::{switch_within_budget, ModelChoice};
use sommelier_query::SommelierReader;

/// A model-selection policy that consults the live engine per request.
#[derive(Clone)]
pub struct EngineSwitcher {
    reader: SommelierReader,
    reference: String,
    query_text: String,
    sla_s: f64,
}

impl EngineSwitcher {
    /// A switcher serving `reference`, willing to substitute any model
    /// the engine scores at least `within`-equivalent, under an SLA of
    /// `sla_s` seconds end-to-end.
    pub fn new(
        reader: SommelierReader,
        reference: impl Into<String>,
        sla_s: f64,
        within: f64,
    ) -> Self {
        let reference = reference.into();
        let query_text = format!(
            "SELECT models 16 CORR {reference} WITHIN {within} ORDER BY latency"
        );
        EngineSwitcher {
            reader,
            reference,
            query_text,
            sla_s,
        }
    }

    /// The query issued (and re-issued) against the engine.
    pub fn query_text(&self) -> &str {
        &self.query_text
    }

    /// The SLA budget in seconds.
    pub fn sla_s(&self) -> f64 {
        self.sla_s
    }

    /// The index epoch the switcher's engine currently serves.
    pub fn served_epoch(&self) -> u64 {
        self.reader.epoch()
    }

    /// Choose a variant for a request that will wait `backlog_s` before
    /// service starts. `variants` must be non-empty.
    pub fn choose(&self, backlog_s: f64, variants: &[ModelChoice]) -> usize {
        assert!(!variants.is_empty(), "no variants to choose from");
        // Ask the live engine which models are currently equivalent to
        // the reference; keep the variants it vouches for (plus the
        // reference itself).
        let mut eligible: Vec<usize> = variants
            .iter()
            .enumerate()
            .filter(|(_, v)| v.name == self.reference)
            .map(|(i, _)| i)
            .collect();
        if let Ok(results) = self.reader.query(&self.query_text) {
            for r in &results {
                if let Some(i) = variants.iter().position(|v| v.name == r.key) {
                    if !eligible.contains(&i) {
                        eligible.push(i);
                    }
                }
            }
        }
        if eligible.is_empty() {
            // Degraded mode: the engine vouches for nothing we can
            // deploy — keep serving on budget alone.
            eligible = (0..variants.len()).collect();
        }
        switch_within_budget(variants, &eligible, self.sla_s - backlog_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_query::{MutationBatch, Sommelier, SommelierConfig};
    use sommelier_repo::{InMemoryRepository, ModelRepository};
    use sommelier_zoo::families::Family;
    use sommelier_zoo::series::build_series;
    use sommelier_graph::TaskKind;
    use sommelier_tensor::Prng;
    use std::sync::Arc;

    /// A small registered series plus a variant table over it. The
    /// variant at the returned index is the reference (most accurate,
    /// slowest); an extra "imposter" variant the engine has never seen
    /// is appended last.
    fn fixture() -> (Sommelier, Vec<ModelChoice>, usize) {
        let repo = Arc::new(InMemoryRepository::new());
        let mut cfg = SommelierConfig {
            validation_rows: 64,
            ..SommelierConfig::default()
        };
        cfg.index.sample_size = 8;
        let mut engine = Sommelier::connect(Arc::clone(&repo) as Arc<dyn ModelRepository>, cfg);
        let mut rng = Prng::seed_from_u64(21);
        let series = build_series(
            "servenet",
            Family::Resnetish,
            TaskKind::ImageRecognition,
            "imagenet",
            4,
            77,
            0.08,
            &mut rng,
        );
        for m in &series.models {
            engine.register(m).expect("fresh");
        }
        let mut variants: Vec<ModelChoice> = series
            .models
            .iter()
            .enumerate()
            .map(|(i, m)| ModelChoice {
                name: m.name.clone(),
                service_time_s: 0.01 + 0.02 * i as f64,
                accuracy: 0.70 + 0.05 * i as f64,
            })
            .collect();
        let reference = variants.len() - 1;
        variants.push(ModelChoice {
            name: "imposter".into(),
            service_time_s: 0.001,
            accuracy: 0.99,
        });
        (engine, variants, reference)
    }

    #[test]
    fn idle_server_gets_the_reference_model() {
        let (engine, variants, reference) = fixture();
        let sw = EngineSwitcher::new(
            engine.reader().clone(),
            &variants[reference].name,
            1.0,
            0.3,
        );
        assert_eq!(sw.choose(0.0, &variants), reference);
    }

    #[test]
    fn backlog_downshifts_to_a_faster_equivalent() {
        let (engine, variants, reference) = fixture();
        let slowest = variants[reference].service_time_s;
        let sw = EngineSwitcher::new(
            engine.reader().clone(),
            &variants[reference].name,
            1.2 * slowest,
            0.3,
        );
        let heavy = sw.choose(1.15 * slowest, &variants);
        assert_ne!(heavy, reference, "backlog should force a downshift");
        assert!(
            variants[heavy].service_time_s < slowest,
            "downshift must be faster than the reference"
        );
    }

    #[test]
    fn unvouched_variants_are_never_served() {
        let (engine, variants, reference) = fixture();
        let imposter = variants.len() - 1;
        let sw = EngineSwitcher::new(
            engine.reader().clone(),
            &variants[reference].name,
            1.0,
            0.3,
        );
        // The imposter is the fastest and most accurate variant, but the
        // engine has never registered it — under any backlog it must not
        // be chosen.
        for backlog in [0.0, 0.5, 10.0] {
            assert_ne!(sw.choose(backlog, &variants), imposter);
        }
    }

    #[test]
    fn choices_track_the_live_epoch() {
        let (mut engine, variants, reference) = fixture();
        let sw = EngineSwitcher::new(
            engine.reader().clone(),
            &variants[reference].name,
            1.0,
            0.3,
        );
        let before = sw.served_epoch();
        // Unregister the second-best variant; the switcher must stop
        // serving it without any reconfiguration.
        let victim = reference - 1;
        let batch = MutationBatch::new().unregister(&variants[victim].name);
        assert_eq!(engine.apply(batch).unwrap(), 1);
        assert!(sw.served_epoch() > before, "epoch advances on unregister");
        for backlog in [0.0, 0.5, 10.0] {
            assert_ne!(sw.choose(backlog, &variants), victim);
        }
    }

    #[test]
    fn engine_failure_degrades_to_budget_switching() {
        let (engine, variants, _) = fixture();
        // Reference never registered → every query errors → full table
        // serves on budget alone.
        let sw = EngineSwitcher::new(engine.reader().clone(), "nonexistent", 1.0, 0.3);
        let idle = sw.choose(0.0, &variants);
        assert_eq!(idle, variants.len() - 1, "most accurate fits when idle");
        let overloaded = sw.choose(100.0, &variants);
        assert_eq!(
            variants[overloaded].service_time_s,
            variants
                .iter()
                .map(|v| v.service_time_s)
                .fold(f64::INFINITY, f64::min),
            "overload serves the fastest variant"
        );
    }
}
