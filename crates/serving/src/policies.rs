//! Model-selection policies.
//!
//! The baseline developer "manually specifies a fixed model throughout the
//! inference run"; with Sommelier the server formulates a query combining
//! run-time conditions and the currently served model, and switches to an
//! equivalent model that better matches resource availability (paper
//! Section 7.1). The policy abstraction captures exactly that decision:
//! given the current queue pressure, pick one of the functionally
//! equivalent variants Sommelier returned.

use serde::{Deserialize, Serialize};

/// A deployable model variant as the serving layer sees it: the outcome of
/// a Sommelier query (name, speed, quality), detached from graph internals.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelChoice {
    /// Model key in the repository.
    pub name: String,
    /// Service time per request in seconds on the serving hardware.
    pub service_time_s: f64,
    /// Measured QoR (e.g. top-1 accuracy) of the variant.
    pub accuracy: f64,
}

/// A model-selection policy.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Policy {
    /// Always serve the variant at `index` (manual, fixed selection).
    Fixed { index: usize },
    /// Sommelier-driven automatic switching: serve the most accurate
    /// variant whose expected completion (backlog + service time) stays
    /// within `sla_s`; fall back to the fastest variant under overload.
    Switching { sla_s: f64 },
    /// Switching with a quality floor: like [`Policy::Switching`], but
    /// variants below `min_accuracy` are only used when *no* variant at
    /// or above the floor exists — the "desirable accuracy" side of the
    /// paper's run-time query (Figure 6 asks for a model equivalent 95%
    /// of the time *and* cheaper).
    SwitchingFloor { sla_s: f64, min_accuracy: f64 },
}

impl Policy {
    /// Choose a variant index given the current backlog (estimated queue
    /// delay in seconds). `variants` must be non-empty.
    pub fn choose(&self, backlog_s: f64, variants: &[ModelChoice]) -> usize {
        assert!(!variants.is_empty(), "no variants to choose from");
        match self {
            Policy::Fixed { index } => (*index).min(variants.len() - 1),
            Policy::Switching { sla_s } => {
                let all: Vec<usize> = (0..variants.len()).collect();
                switch_within_budget(variants, &all, sla_s - backlog_s)
            }
            Policy::SwitchingFloor {
                sla_s,
                min_accuracy,
            } => {
                let mut eligible: Vec<usize> = (0..variants.len())
                    .filter(|&i| variants[i].accuracy >= *min_accuracy)
                    .collect();
                if eligible.is_empty() {
                    // Nothing meets the floor: plain switching.
                    eligible = (0..variants.len()).collect();
                }
                switch_within_budget(variants, &eligible, sla_s - backlog_s)
            }
        }
    }
}

/// The switching rule every budget-aware policy shares: the most accurate
/// variant of `eligible` whose service time fits `budget_s`; when none
/// fits (overload), the fastest of `eligible`, to drain the queue. Ties go
/// to the earlier entry of `eligible`, which must be non-empty.
pub(crate) fn switch_within_budget(
    variants: &[ModelChoice],
    eligible: &[usize],
    budget_s: f64,
) -> usize {
    let mut best: Option<usize> = None;
    for &i in eligible {
        if variants[i].service_time_s <= budget_s
            && best.is_none_or(|b| variants[i].accuracy > variants[b].accuracy)
        {
            best = Some(i);
        }
    }
    best.unwrap_or_else(|| {
        eligible
            .iter()
            .copied()
            .min_by(|&a, &b| {
                variants[a]
                    .service_time_s
                    .partial_cmp(&variants[b].service_time_s)
                    .expect("finite")
            })
            .expect("eligible is non-empty")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn variants() -> Vec<ModelChoice> {
        vec![
            ModelChoice {
                name: "tiny".into(),
                service_time_s: 0.01,
                accuracy: 0.70,
            },
            ModelChoice {
                name: "mid".into(),
                service_time_s: 0.05,
                accuracy: 0.82,
            },
            ModelChoice {
                name: "big".into(),
                service_time_s: 0.20,
                accuracy: 0.90,
            },
        ]
    }

    #[test]
    fn fixed_policy_ignores_backlog() {
        let p = Policy::Fixed { index: 2 };
        assert_eq!(p.choose(0.0, &variants()), 2);
        assert_eq!(p.choose(100.0, &variants()), 2);
    }

    #[test]
    fn fixed_index_is_clamped() {
        let p = Policy::Fixed { index: 9 };
        assert_eq!(p.choose(0.0, &variants()), 2);
    }

    #[test]
    fn switching_serves_big_when_idle() {
        let p = Policy::Switching { sla_s: 0.5 };
        assert_eq!(p.choose(0.0, &variants()), 2);
    }

    #[test]
    fn switching_downshifts_under_backlog() {
        let p = Policy::Switching { sla_s: 0.5 };
        // backlog 0.42 leaves 0.08 → mid fits, big doesn't.
        assert_eq!(p.choose(0.42, &variants()), 1);
        // backlog 0.48 leaves 0.02 → only tiny fits.
        assert_eq!(p.choose(0.48, &variants()), 0);
    }

    #[test]
    fn switching_falls_back_to_fastest_under_overload() {
        let p = Policy::Switching { sla_s: 0.5 };
        assert_eq!(p.choose(10.0, &variants()), 0);
    }

    #[test]
    fn floor_policy_excludes_low_quality_variants() {
        let p = Policy::SwitchingFloor {
            sla_s: 0.5,
            min_accuracy: 0.80,
        };
        // Even under total overload, the 0.70-accuracy tiny variant is
        // skipped; the fastest floor-satisfying variant (mid) serves.
        assert_eq!(p.choose(10.0, &variants()), 1);
        // When idle, the big model serves as usual.
        assert_eq!(p.choose(0.0, &variants()), 2);
    }

    #[test]
    fn floor_policy_degrades_gracefully_when_floor_unreachable() {
        let p = Policy::SwitchingFloor {
            sla_s: 0.5,
            min_accuracy: 0.99,
        };
        // Nothing meets the floor → behaves like plain switching.
        assert_eq!(p.choose(0.0, &variants()), 2);
        assert_eq!(p.choose(10.0, &variants()), 0);
    }

    #[test]
    #[should_panic(expected = "no variants")]
    fn empty_variants_panics() {
        Policy::Fixed { index: 0 }.choose(0.0, &[]);
    }
}
