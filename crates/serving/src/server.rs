//! The event-driven queueing simulation.
//!
//! FIFO arrivals are dispatched to the earliest-free server of a
//! (1- or 2-server) cluster. For each request, the active [`Policy`]
//! observes the current backlog — how long the request will wait before
//! service starts — and picks the model variant to serve it with. Request
//! latency is waiting time plus the chosen variant's service time, the
//! quantity whose 90th percentile Figure 9(c) reports.

use crate::policies::{ModelChoice, Policy};
use crate::stats::LatencyStats;
use serde::{Deserialize, Serialize};

/// Cluster configuration for one simulation run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of identical servers draining the shared queue. 1 for the
    /// baseline, 2 for the ideal scale-out of the paper's comparison.
    pub servers: usize,
    /// Model-selection policy.
    pub policy: Policy,
}

/// Outcome of a simulation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimResult {
    /// Per-request end-to-end latency (waiting + service), in seconds,
    /// in arrival order.
    pub latencies: Vec<f64>,
    /// Per-request index of the variant chosen.
    pub choices: Vec<usize>,
    /// Mean accuracy of the served variants (weighted per request).
    pub mean_accuracy: f64,
}

impl SimResult {
    /// Latency statistics over the run.
    pub fn stats(&self) -> LatencyStats {
        LatencyStats::from(&self.latencies)
    }
}

/// Run the queueing simulation for the given arrivals and variants.
///
/// `variants` must be non-empty; `arrivals` must be sorted ascending.
pub fn simulate(config: &ClusterConfig, arrivals: &[f64], variants: &[ModelChoice]) -> SimResult {
    simulate_with(config.servers, arrivals, variants, |backlog| {
        config.policy.choose(backlog, variants)
    })
}

/// Run the queueing simulation with an arbitrary chooser.
///
/// The closure receives each request's observed backlog (seconds of
/// queueing delay before service starts) and returns the index of the
/// variant to serve it with — the hook through which the live Sommelier
/// engine drives model selection ([`crate::EngineSwitcher`]). The static
/// [`Policy`](crate::Policy) variants route through here via [`simulate`].
pub fn simulate_with<F: FnMut(f64) -> usize>(
    servers: usize,
    arrivals: &[f64],
    variants: &[ModelChoice],
    mut choose: F,
) -> SimResult {
    assert!(servers >= 1, "cluster needs at least one server");
    assert!(!variants.is_empty(), "no model variants");
    debug_assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));

    let mut free_at = vec![0.0f64; servers];
    let mut latencies = Vec::with_capacity(arrivals.len());
    let mut choices = Vec::with_capacity(arrivals.len());
    let mut accuracy_sum = 0.0;
    for &t in arrivals {
        // Earliest-free server takes the request (FIFO).
        let (server, &free) = free_at
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("at least one server");
        let start = free.max(t);
        let backlog = start - t;
        let choice = choose(backlog).min(variants.len() - 1);
        let service = variants[choice].service_time_s;
        free_at[server] = start + service;
        latencies.push(backlog + service);
        choices.push(choice);
        accuracy_sum += variants[choice].accuracy;
    }
    SimResult {
        mean_accuracy: accuracy_sum / arrivals.len().max(1) as f64,
        latencies,
        choices,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use sommelier_tensor::Prng;

    fn variants() -> Vec<ModelChoice> {
        vec![
            ModelChoice {
                name: "tiny".into(),
                service_time_s: 0.01,
                accuracy: 0.70,
            },
            ModelChoice {
                name: "big".into(),
                service_time_s: 0.10,
                accuracy: 0.90,
            },
        ]
    }

    fn bursty_arrivals(seed: u64) -> Vec<f64> {
        let mut rng = Prng::seed_from_u64(seed);
        Workload::bursty(60.0, 2.0, 30.0).arrivals(&mut rng)
    }

    #[test]
    fn idle_system_latency_is_service_time() {
        let cfg = ClusterConfig {
            servers: 1,
            policy: Policy::Fixed { index: 1 },
        };
        let r = simulate(&cfg, &[0.0, 10.0, 20.0], &variants());
        for &l in &r.latencies {
            assert!((l - 0.10).abs() < 1e-12);
        }
        assert!((r.mean_accuracy - 0.90).abs() < 1e-12);
    }

    #[test]
    fn saturation_builds_queueing_delay() {
        // Arrival spacing below the service time ⇒ waits accumulate.
        let cfg = ClusterConfig {
            servers: 1,
            policy: Policy::Fixed { index: 1 },
        };
        let arrivals: Vec<f64> = (0..100).map(|i| i as f64 * 0.05).collect();
        let r = simulate(&cfg, &arrivals, &variants());
        assert!(r.latencies.last().unwrap() > &1.0);
    }

    #[test]
    fn two_servers_beat_one_under_load() {
        let arrivals = bursty_arrivals(1);
        let one = simulate(
            &ClusterConfig {
                servers: 1,
                policy: Policy::Fixed { index: 1 },
            },
            &arrivals,
            &variants(),
        );
        let two = simulate(
            &ClusterConfig {
                servers: 2,
                policy: Policy::Fixed { index: 1 },
            },
            &arrivals,
            &variants(),
        );
        assert!(two.stats().p90 < one.stats().p90);
    }

    #[test]
    fn switching_cuts_tail_latency_over_fixed() {
        let arrivals = bursty_arrivals(2);
        let fixed = simulate(
            &ClusterConfig {
                servers: 1,
                policy: Policy::Fixed { index: 1 },
            },
            &arrivals,
            &variants(),
        );
        let switching = simulate(
            &ClusterConfig {
                servers: 1,
                policy: Policy::Switching { sla_s: 0.3 },
            },
            &arrivals,
            &variants(),
        );
        assert!(
            switching.stats().p90 < fixed.stats().p90 / 2.0,
            "switching p90 {} vs fixed p90 {}",
            switching.stats().p90,
            fixed.stats().p90
        );
        // Accuracy cost stays modest: the big model still serves the
        // light-load phases.
        assert!(switching.mean_accuracy > 0.75);
        assert!(
            switching.choices.contains(&0) && switching.choices.contains(&1),
            "both variants should serve"
        );
    }

    #[test]
    fn simulate_with_matches_the_policy_path() {
        let arrivals = bursty_arrivals(4);
        let vs = variants();
        let policy = Policy::Switching { sla_s: 0.3 };
        let via_policy = simulate(
            &ClusterConfig {
                servers: 1,
                policy: policy.clone(),
            },
            &arrivals,
            &vs,
        );
        let via_closure = simulate_with(1, &arrivals, &vs, |b| policy.choose(b, &vs));
        assert_eq!(via_policy.choices, via_closure.choices);
        assert_eq!(via_policy.latencies, via_closure.latencies);
    }

    #[test]
    fn out_of_range_choices_are_clamped() {
        let r = simulate_with(1, &[0.0, 1.0], &variants(), |_| 99);
        assert_eq!(r.choices, vec![1, 1]);
    }

    #[test]
    fn empty_arrivals_yield_empty_result() {
        let r = simulate(
            &ClusterConfig {
                servers: 1,
                policy: Policy::Fixed { index: 0 },
            },
            &[],
            &variants(),
        );
        assert!(r.latencies.is_empty());
        assert_eq!(r.mean_accuracy, 0.0);
    }
}
