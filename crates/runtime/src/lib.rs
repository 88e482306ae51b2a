//! Graph interpreter, latency model, and resource profiling.
//!
//! This crate is the reproduction's stand-in for the deep-learning engine
//! runtime the paper interfaces with (TensorFlow/CUDA). It provides:
//!
//! * [`executor`] — a forward interpreter over the `sommelier-graph` IR,
//!   with optional per-layer activation traces (the segment-equivalence
//!   assessment injects noise at intermediate layers, paper Section 4.2);
//! * [`latency`] — the Paleo-style per-operator latency table and
//!   longest-path estimator the paper describes for platform-aware metrics
//!   (Section 5.3);
//! * [`profile`] — hardware-independent resource vectors (memory, FLOPs)
//!   plus execution-setting-dependent variation (device, batch size),
//!   feeding the resource index;
//! * [`metrics`] — quality-of-result measurement: top-1 accuracy,
//!   inter-model agreement (paper Figure 3), and the default mean-l2 QoR
//!   difference for regression outputs (Section 4.1).

pub mod executor;
pub mod latency;
pub mod metrics;
pub mod profile;

pub use executor::{execute, execute_traced, ExecError};
pub use latency::{DeviceProfile, LatencyModel};
pub use profile::{ExecSetting, ResourceProfile};
