//! `sommelier-parallel` — a dependency-free, std-only thread pool for
//! deterministic-order data parallelism.
//!
//! The embarrassingly parallel paths of the reproduction (sampled
//! pairwise analysis during index builds, batched queries, the deep
//! audit) fan out through [`ThreadPool::par_map`] and
//! [`ThreadPool::par_chunks`]: results come back in input order whichever
//! lane computed them. The pool is one FIFO of jobs behind one mutex; a
//! pool with `jobs == 1` never spawns a thread and runs the plain loop,
//! so `--jobs 1` is the sequential reference, bit for bit.

mod pool;

pub use pool::ThreadPool;

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
}
