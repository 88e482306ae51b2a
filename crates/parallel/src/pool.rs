//! The thread pool: one FIFO of jobs behind one mutex.
//!
//! * Idle workers sleep on one `Condvar` paired with the queue's own
//!   mutex, so a push can never slip between a worker's check and its
//!   wait (no lost wake-up, no poll timeout).
//! * `jobs == 1`, or a call that makes a single chunk, runs
//!   `items.iter().map(f).collect()` on the caller: the sequential path
//!   is literally the hand-written loop.
//! * Otherwise a call queues its chunks and the caller *helps*: it runs
//!   queued jobs (its own or anyone's) until its chunks are done, so a
//!   `par_map` nested in a `par_map` makes progress even when every
//!   worker is blocked in an inner call. With the queue empty it yields
//!   rather than sleeps: a sleeping caller paid a futex wake-up per call
//!   (16 items × 3.5 µs at 2 lanes: 38–47 µs against 32–34 µs).
//! * Each chunk runs under `catch_unwind`; once every chunk has finished,
//!   the first panic in chunk order is re-thrown on the caller.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};

type Job = Box<dyn FnOnce() + Send>;

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    /// Idle workers wait here; signalled after every push and on shutdown.
    cv: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
}

fn worker_loop(shared: &Shared) {
    let mut queue = shared.lock();
    loop {
        if let Some(job) = queue.jobs.pop_front() {
            drop(queue);
            job();
            queue = shared.lock();
        } else if queue.shutdown {
            return;
        } else {
            queue = shared.cv.wait(queue).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A fixed-size thread pool.
///
/// `ThreadPool::new(1)` spawns no threads; `par_map` and `par_chunks`
/// then run inline on the caller in input order, reproducing sequential
/// execution exactly.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    jobs: usize,
}

impl ThreadPool {
    /// Create a pool with `jobs` total lanes of parallelism (the caller
    /// counts as one lane: `jobs == 4` spawns 3 worker threads and the
    /// caller helps). `jobs == 0` is clamped to 1.
    pub fn new(jobs: usize) -> Self {
        let jobs = jobs.max(1);
        let shared = Arc::new(Shared::default());
        let workers = (1..jobs)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("sommelier-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            jobs,
        }
    }

    /// The configured degree of parallelism (1 == sequential).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Map `f` over `items`, returning results in input order
    /// regardless of which lane computed them.
    pub fn par_map<T: Sync, R: Send>(&self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        // About four chunks per lane: load balancing without per-item
        // task overhead.
        let chunk = items.len().div_ceil(self.jobs * 4).max(1);
        if self.jobs == 1 || chunk >= items.len() {
            return items.iter().map(f).collect();
        }
        let n_chunks = items.len().div_ceil(chunk);
        let results: Mutex<Vec<Option<thread::Result<Vec<R>>>>> =
            Mutex::new((0..n_chunks).map(|_| None).collect());
        let remaining = AtomicUsize::new(n_chunks);
        {
            let (f, results, remaining) = (&f, &results, &remaining);
            let mut queue = self.shared.lock();
            for (i, part) in items.chunks(chunk).enumerate() {
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let out = catch_unwind(AssertUnwindSafe(|| part.iter().map(f).collect()));
                    results.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(out);
                    // The job's last use of the caller's frame; `Release`
                    // pairs with the caller's `Acquire` load of zero.
                    remaining.fetch_sub(1, Ordering::Release);
                });
                // SAFETY: the job borrows `items`, `f`, `results` and
                // `remaining` from this frame. This call does not return,
                // by value or by unwind, until `remaining` is zero, and
                // each job decrements it once, as its last use of the
                // frame (a panic in `f` is caught before that).
                let job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
                queue.jobs.push_back(job);
            }
        }
        self.shared.cv.notify_all();
        // Help until every chunk of this call is done: run queued jobs,
        // ours or anyone's, else yield to the lanes running ours.
        while remaining.load(Ordering::Acquire) != 0 {
            let job = self.shared.lock().jobs.pop_front();
            match job {
                Some(job) => job(),
                None => thread::yield_now(),
            }
        }
        let parts = results.into_inner().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::with_capacity(items.len());
        for part in parts {
            match part.expect("every chunk reported") {
                Ok(values) => out.extend(values),
                Err(payload) => resume_unwind(payload),
            }
        }
        out
    }

    /// Apply `f` to disjoint chunks of `data` of at most `chunk` items,
    /// collecting one result per chunk in chunk order. `f` receives the
    /// chunk index and the chunk slice.
    pub fn par_chunks<T: Sync, R: Send>(
        &self,
        data: &[T],
        chunk: usize,
        f: impl Fn(usize, &[T]) -> R + Sync,
    ) -> Vec<R> {
        let chunks: Vec<(usize, &[T])> = data.chunks(chunk.max(1)).enumerate().collect();
        self.par_map(&chunks, |&(i, c)| f(i, c))
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.cv.notify_all();
        for handle in self.workers.drain(..) {
            let _unused = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn sequential_pool_runs_inline_in_order() {
        let pool = ThreadPool::new(1);
        let log = Mutex::new(Vec::new());
        let caller = thread::current().id();
        pool.par_map(&(0..8).collect::<Vec<u64>>(), |&i| {
            assert_eq!(thread::current().id(), caller);
            log.lock().unwrap().push(i);
        });
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn single_chunk_call_runs_on_the_calling_thread() {
        let pool = ThreadPool::new(4);
        let caller = thread::current().id();
        assert_eq!(
            pool.par_map(&[1u64], |_| thread::current().id()),
            vec![caller]
        );
        let data: Vec<u64> = (0..10).collect();
        let lanes = pool.par_chunks(&data, 100, |_, _| thread::current().id());
        assert_eq!(lanes, vec![caller]);
    }

    #[test]
    fn par_map_preserves_input_order() {
        for jobs in [1, 2, 4, 8] {
            let pool = ThreadPool::new(jobs);
            let items: Vec<u64> = (0..257).collect();
            let out = pool.par_map(&items, |&x| x * 3 + 1);
            let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
            assert_eq!(out, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn par_map_zero_items() {
        for jobs in [1, 4] {
            let pool = ThreadPool::new(jobs);
            let out: Vec<u64> = pool.par_map(&[] as &[u64], |&x| x);
            assert!(out.is_empty(), "jobs={jobs}");
        }
    }

    #[test]
    fn par_chunks_collects_in_chunk_order() {
        let pool = ThreadPool::new(4);
        let data: Vec<u64> = (0..100).collect();
        let sums = pool.par_chunks(&data, 7, |idx, chunk| (idx, chunk.iter().sum::<u64>()));
        let expect: Vec<(usize, u64)> = data
            .chunks(7)
            .enumerate()
            .map(|(i, c)| (i, c.iter().sum()))
            .collect();
        assert_eq!(sums, expect);
    }

    #[test]
    fn scope_borrows_stack_data() {
        // Jobs borrow the caller's frame: the counter and the items.
        let pool = ThreadPool::new(4);
        let counter = AtomicU64::new(0);
        let items: Vec<u64> = (0..64).collect();
        pool.par_map(&items, |_| counter.fetch_add(1, Ordering::Relaxed));
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn panic_in_worker_propagates_to_scope_caller() {
        for jobs in [1, 4] {
            let pool = ThreadPool::new(jobs);
            let finished = AtomicU64::new(0);
            let items: Vec<u64> = (0..16).collect();
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.par_map(&items, |&i| {
                    if i == 7 || (jobs > 1 && i == 12) {
                        panic!("boom from task {i}");
                    }
                    finished.fetch_add(1, Ordering::Relaxed);
                })
            }));
            let err = result.expect_err("par_map should re-throw the task panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            // The first panic in input order wins.
            assert!(msg.contains("boom from task 7"), "jobs={jobs}: {msg}");
            if jobs > 1 {
                // Every other chunk still ran (no work left in flight).
                assert_eq!(finished.load(Ordering::Relaxed), 14, "jobs={jobs}");
            }
            // Pool is still usable afterwards.
            let ok = pool.par_map(&[1u64, 2, 3], |&x| x + 1);
            assert_eq!(ok, vec![2, 3, 4]);
        }
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // More outer items than lanes; every outer item runs an inner
        // `par_map`. Helping must keep the pool live.
        let pool = ThreadPool::new(2);
        let total = AtomicU64::new(0);
        let outer: Vec<u64> = (0..8).collect();
        let inner: Vec<u64> = (0..8).collect();
        let sums = pool.par_map(&outer, |&o| {
            pool.par_map(&inner, |&i| {
                total.fetch_add(1, Ordering::Relaxed);
                o * 8 + i
            })
            .iter()
            .sum::<u64>()
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
        let expect: Vec<u64> = outer
            .iter()
            .map(|&o| (0..8).map(|i| o * 8 + i).sum())
            .collect();
        assert_eq!(sums, expect);
    }

    #[test]
    fn par_map_results_identical_across_job_counts() {
        let items: Vec<u64> = (0..513).map(|i| i * 2654435761).collect();
        let reference = ThreadPool::new(1).par_map(&items, |&x| x.rotate_left(13) ^ 0xabcd);
        for jobs in [2, 4, 8] {
            let pool = ThreadPool::new(jobs);
            let got = pool.par_map(&items, |&x| x.rotate_left(13) ^ 0xabcd);
            assert_eq!(got, reference, "jobs={jobs}");
        }
    }
}
