//! Resource profiles and execution settings.
//!
//! The resource index (paper Section 5.3) stores one vector per model whose
//! fields are resource usage numbers — hardware-independent (memory,
//! FLOPs) plus optional hardware-dependent ones (latency). For relative
//! constraints the vectors are normalized to a reference model. Execution
//! settings (device, batch size) perturb the realized memory footprint;
//! Figure 12(a) of the paper shows ~25% variation across settings, which
//! [`ResourceProfile::under`] reproduces.

use crate::latency::{DeviceProfile, LatencyModel};
use serde::{Deserialize, Serialize};
use sommelier_graph::cost::{model_cost, ModelCost};
use sommelier_graph::Model;

/// An execution setting affecting realized resource usage.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExecSetting {
    /// Device the model would run on.
    pub device: DeviceProfile,
    /// Inference batch size.
    pub batch_size: usize,
    /// Framework workspace multiplier (e.g. cuDNN scratch buffers);
    /// 1.0 means no extra workspace.
    pub workspace_factor: f64,
}

impl ExecSetting {
    /// The default profiling setting: CPU, batch 1, no extra workspace.
    pub fn default_cpu() -> Self {
        ExecSetting {
            device: DeviceProfile::cpu(),
            batch_size: 1,
            workspace_factor: 1.0,
        }
    }

    /// A grid of representative settings (device × batch), used by the
    /// Figure 12(a) experiment to show memory variation.
    pub fn grid() -> Vec<ExecSetting> {
        let mut out = Vec::new();
        for device in [DeviceProfile::cpu(), DeviceProfile::gpu(), DeviceProfile::edge()] {
            for &batch in &[1usize, 4, 8] {
                out.push(ExecSetting {
                    device: device.clone(),
                    batch_size: batch,
                    workspace_factor: if device.name.starts_with("gpu") { 1.15 } else { 1.0 },
                });
            }
        }
        out
    }
}

/// A model's resource profile: the multi-dimensional key of the resource
/// index.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResourceProfile {
    /// Memory footprint in MB (parameters + activations, scaled by the
    /// execution setting).
    pub memory_mb: f64,
    /// Computational complexity in GFLOPs per inference.
    pub gflops: f64,
    /// Estimated single-item latency in milliseconds on the profiled
    /// device.
    pub latency_ms: f64,
}

impl ResourceProfile {
    /// Hardware-independent profile under the default setting.
    pub fn of(model: &Model) -> ResourceProfile {
        ResourceProfile::under(model, &ExecSetting::default_cpu())
    }

    /// Profile under a specific execution setting. Activations scale with
    /// the batch size and workspace factor; parameters do not.
    pub fn under(model: &Model, setting: &ExecSetting) -> ResourceProfile {
        let cost: ModelCost = model_cost(model);
        let act = cost.activation_bytes as f64 * setting.batch_size as f64
            * setting.workspace_factor;
        let memory_mb = (cost.param_bytes as f64 + act) / 1e6;
        let lm = LatencyModel::new(setting.device.clone());
        ResourceProfile {
            memory_mb,
            gflops: cost.gflops(),
            latency_ms: lm.batch_latency_us(model, setting.batch_size) / 1e3,
        }
    }

    /// The profile as a vector: `(memory, gflops, latency)`.
    pub fn as_vector(&self) -> Vec<f64> {
        vec![self.memory_mb, self.gflops, self.latency_ms]
    }

    /// Whether every dimension is a finite number (a stored profile that
    /// is not would poison every bound comparison made against it).
    pub fn is_finite(&self) -> bool {
        self.memory_mb.is_finite() && self.gflops.is_finite() && self.latency_ms.is_finite()
    }

    /// Whether every dimension is within the given (possibly partial)
    /// bounds. `None` bounds are unconstrained.
    pub fn within(
        &self,
        max_memory_mb: Option<f64>,
        max_gflops: Option<f64>,
        max_latency_ms: Option<f64>,
    ) -> bool {
        max_memory_mb.is_none_or(|m| self.memory_mb <= m)
            && max_gflops.is_none_or(|g| self.gflops <= g)
            && max_latency_ms.is_none_or(|l| self.latency_ms <= l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_graph::{ModelBuilder, TaskKind};
    use sommelier_tensor::{Prng, Shape};

    fn model(units: usize) -> Model {
        let mut r = Prng::seed_from_u64(9);
        ModelBuilder::new("m", TaskKind::Other, Shape::vector(32))
            .dense(units, &mut r)
            .relu()
            .dense(16, &mut r)
            .build()
            .unwrap()
    }

    #[test]
    fn bigger_model_bigger_profile() {
        let small = ResourceProfile::of(&model(8));
        let big = ResourceProfile::of(&model(256));
        assert!(big.memory_mb > small.memory_mb);
        assert!(big.gflops > small.gflops);
        assert!(big.latency_ms > small.latency_ms);
    }

    #[test]
    fn batch_size_raises_memory_not_params() {
        let m = model(64);
        let b1 = ResourceProfile::under(
            &m,
            &ExecSetting {
                device: DeviceProfile::cpu(),
                batch_size: 1,
                workspace_factor: 1.0,
            },
        );
        let b32 = ResourceProfile::under(
            &m,
            &ExecSetting {
                device: DeviceProfile::cpu(),
                batch_size: 32,
                workspace_factor: 1.0,
            },
        );
        assert!(b32.memory_mb > b1.memory_mb);
        assert_eq!(b32.gflops, b1.gflops); // per-inference complexity fixed
    }

    #[test]
    fn settings_grid_produces_memory_variation() {
        let m = model(64);
        let mems: Vec<f64> = ExecSetting::grid()
            .iter()
            .map(|s| ResourceProfile::under(&m, s).memory_mb)
            .collect();
        let min = mems.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = mems.iter().cloned().fold(0.0, f64::max);
        assert!(max > min, "execution settings must vary memory");
    }

    #[test]
    fn within_checks_each_dimension() {
        let p = ResourceProfile {
            memory_mb: 10.0,
            gflops: 2.0,
            latency_ms: 5.0,
        };
        assert!(p.within(Some(11.0), Some(3.0), Some(6.0)));
        assert!(!p.within(Some(9.0), None, None));
        assert!(!p.within(None, Some(1.0), None));
        assert!(p.within(None, None, None));
    }

    #[test]
    fn vector_layout_is_stable() {
        let p = ResourceProfile {
            memory_mb: 1.0,
            gflops: 2.0,
            latency_ms: 3.0,
        };
        assert_eq!(p.as_vector(), vec![1.0, 2.0, 3.0]);
    }
}
