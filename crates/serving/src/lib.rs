//! Discrete-event inference-serving simulator (paper Section 7.1).
//!
//! Reproduces the end-to-end serving experiment of Figure 9(c): an
//! inference server under bursty load, compared across four policies —
//! a fixed model (baseline), ideal scale-out with a standby twin server,
//! automated model switching via Sommelier, and the combination. The
//! simulator is a classic event-driven queueing model: requests arrive by
//! a workload process, wait in FIFO order, and occupy a server for the
//! latency of whichever model the policy selects.
//!
//! Modules:
//! * [`workload`] — arrival processes (Poisson and bursty phases);
//! * [`server`] — the event loop and queueing simulation;
//! * [`policies`] — model-selection policies, including the
//!   Sommelier-driven switcher that consults resource-indexed equivalent
//!   models as queue pressure rises;
//! * [`engine_policy`] — the closed-loop variant: a switcher holding a
//!   live [`sommelier_query::SommelierReader`] that re-queries the
//!   engine per request, so selection tracks the published index epoch;
//! * [`stats`] — latency distributions and percentile extraction;
//! * [`daemon`] — the real thing, not a simulation: the
//!   `sommelier serve` TCP daemon (line-delimited JSON protocol,
//!   bounded admission, tenant quotas) serving concurrent readers off
//!   the engine's published snapshot (a mutex around one `Arc`, held
//!   only to clone or swap it).

pub mod daemon;
pub mod engine_policy;
pub mod policies;
pub mod server;
pub mod stats;
pub mod workload;

pub use daemon::{Daemon, DaemonConfig, DaemonHandle};
pub use engine_policy::EngineSwitcher;
pub use policies::{ModelChoice, Policy};
pub use server::{simulate, simulate_with, ClusterConfig, SimResult};
pub use stats::LatencyStats;
pub use workload::{Workload, WorkloadPhase};
