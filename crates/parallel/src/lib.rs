//! `sommelier-parallel` — a dependency-free, std-only work-stealing
//! thread pool with scoped parallelism primitives.
//!
//! The hot paths of the reproduction (sampled pairwise equivalence
//! analysis during index construction, LSH bucket probing, candidate
//! scoring, batched tensor kernels) are embarrassingly parallel at the
//! task level, but the build environment carries no external crates, so
//! this crate implements the small subset of rayon-style machinery the
//! system needs:
//!
//! * [`ThreadPool`] — a fixed pool of workers, each with its own local
//!   deque; idle workers steal from peers and from a shared injector
//!   queue. A pool created with `jobs == 1` never spawns threads: every
//!   spawned closure runs inline on the caller, which makes `--jobs 1`
//!   reproduce sequential behavior exactly (bit-for-bit, same execution
//!   order).
//! * [`ThreadPool::scope`] — structured concurrency over borrowed data,
//!   mirroring `std::thread::scope`: tasks may borrow from the enclosing
//!   stack frame, every task completes before `scope` returns, and the
//!   first worker panic is propagated to the caller. Nested scopes are
//!   supported (a blocked scope *helps* by executing queued tasks, so
//!   pools never deadlock on their own work).
//! * [`ThreadPool::par_map`] / [`ThreadPool::par_chunks`] /
//!   [`ThreadPool::par_chunks_mut`] — deterministic-order data
//!   parallelism: results come back in input order regardless of which
//!   worker computed them.
//! * [`RcuCell`] — an RCU-style publication cell: readers pin an
//!   immutable `Arc`-shared value without locking, a writer swaps in the
//!   next value and waits out a grace period before reclaiming the old
//!   one (the engine's snapshot publication primitive).
//!
//! A process-wide [`global`] pool (default: sequential; sized with
//! [`set_global_jobs`] or the `SOMMELIER_JOBS` environment variable)
//! serves the tensor kernels, which have no configuration surface of
//! their own.

mod pool;
mod rcu;

pub use pool::{Scope, ThreadPool};
pub use rcu::RcuCell;

use std::sync::{Arc, OnceLock, RwLock};

static GLOBAL: OnceLock<RwLock<Arc<ThreadPool>>> = OnceLock::new();

fn global_cell() -> &'static RwLock<Arc<ThreadPool>> {
    GLOBAL.get_or_init(|| {
        let jobs = std::env::var("SOMMELIER_JOBS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&j| j >= 1)
            .unwrap_or(1);
        RwLock::new(Arc::new(ThreadPool::new(jobs)))
    })
}

/// The process-wide pool used by code without its own pool handle
/// (tensor kernels). Defaults to a sequential pool (`jobs == 1`) unless
/// `SOMMELIER_JOBS` is set or [`set_global_jobs`] was called, so library
/// users never get surprise threads.
pub fn global() -> Arc<ThreadPool> {
    global_cell()
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// Resize the process-wide pool. `jobs == 0` selects the machine's
/// available parallelism. Returns the effective job count.
pub fn set_global_jobs(jobs: usize) -> usize {
    let jobs = effective_jobs(jobs);
    let mut slot = global_cell().write().unwrap_or_else(|e| e.into_inner());
    if slot.jobs() != jobs {
        *slot = Arc::new(ThreadPool::new(jobs));
    }
    jobs
}

/// Resolve a `--jobs` style knob: `0` means "auto" (available
/// parallelism), anything else is taken literally.
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_jobs_zero_is_auto() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }

    #[test]
    fn global_pool_is_sequential_by_default_and_resizable() {
        // Note: other tests in this binary share the global pool; only
        // assert what set_global_jobs itself guarantees.
        assert_eq!(set_global_jobs(1), 1);
        assert_eq!(global().jobs(), 1);
        assert_eq!(set_global_jobs(2), 2);
        assert_eq!(global().jobs(), 2);
        set_global_jobs(1);
    }
}
