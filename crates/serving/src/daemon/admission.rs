//! Bounded admission control for the query daemon.
//!
//! The daemon is thread-per-connection, but query *execution* is gated
//! by a fixed number of permits (`workers`) plus a bounded wait queue
//! (`queue_depth`). A request that finds all permits busy waits in the
//! queue; a request that finds the queue full too is **shed
//! immediately** with a typed `overloaded` error carrying a
//! `retry_after_ms` hint — the daemon never buffers unbounded work and
//! never blocks a client indefinitely.
//!
//! The retry hint comes from an EWMA of recent service times: a shed
//! client is told to come back roughly when the current backlog will
//! have drained through the permit pool.

use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// EWMA smoothing factor for the service-time estimate.
const EWMA_ALPHA: f64 = 0.2;
/// Retry hint when nothing has completed yet (no EWMA signal).
const DEFAULT_RETRY_MS: u64 = 10;
/// Floor for a computed retry hint. A shed reply with `retry_after_ms:
/// 0` reads as "retry immediately" and turns a cold-start burst into a
/// busy-loop against the gate; every hint we hand out is at least this.
const MIN_RETRY_MS: u64 = 1;

#[derive(Debug)]
struct GateState {
    /// Requests currently holding an execution permit.
    executing: usize,
    /// Requests parked in the bounded wait queue.
    waiting: usize,
    /// Smoothed service time of completed requests, milliseconds.
    ewma_ms: f64,
    /// Total requests admitted (including after a queue wait).
    accepted: u64,
    /// Total requests shed with `overloaded`.
    shed: u64,
    /// High-water mark of `executing + waiting`.
    max_inflight: usize,
    /// Set when the daemon drains; waiters bail out.
    closed: bool,
}

/// Counters a metrics scrape reads off the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionStats {
    pub accepted: u64,
    pub shed: u64,
    /// High-water mark of concurrently admitted-or-queued requests.
    /// Bounded by `workers + queue_depth` — the tests assert this to
    /// prove the queue never grew past its depth.
    pub max_inflight: usize,
}

/// Outcome of [`AdmissionGate::admit`].
pub enum Decision<'a> {
    /// Run now; drop the permit (or call [`Permit::complete`]) when done.
    Admitted(Permit<'a>),
    /// Queue full — tell the client to retry after the hint.
    Shed { retry_after_ms: u64 },
    /// The daemon is shutting down.
    Closed,
}

/// Bounded permit gate. All state sits behind one mutex; the hot path
/// takes it twice per request (admit + release), which is fine — the
/// expensive part, query execution, runs outside the lock.
pub struct AdmissionGate {
    workers: usize,
    queue_depth: usize,
    state: Mutex<GateState>,
    released: Condvar,
}

impl AdmissionGate {
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        AdmissionGate {
            workers: workers.max(1),
            queue_depth,
            state: Mutex::new(GateState {
                executing: 0,
                waiting: 0,
                ewma_ms: 0.0,
                accepted: 0,
                shed: 0,
                max_inflight: 0,
                closed: false,
            }),
            released: Condvar::new(),
        }
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// Try to take an execution permit, waiting in the bounded queue if
    /// the pool is busy. Returns [`Decision::Shed`] without blocking
    /// when the queue is already full.
    pub fn admit(&self) -> Decision<'_> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.closed {
            return Decision::Closed;
        }
        if s.executing < self.workers {
            s.executing += 1;
            s.accepted += 1;
            s.max_inflight = s.max_inflight.max(s.executing + s.waiting);
            return Decision::Admitted(self.permit());
        }
        if s.waiting >= self.queue_depth {
            s.shed += 1;
            // Expected wait: the whole backlog ahead of a hypothetical
            // new arrival, drained through `workers` permits.
            let backlog = (s.waiting + 1) as f64 / self.workers as f64;
            let est = s.ewma_ms * backlog;
            // Cold start: before any request has completed the EWMA is
            // still 0.0 and `est` carries no signal — fall back to the
            // default hint rather than telling the client "0ms". Any
            // computed hint is likewise clamped to a nonzero floor.
            let retry_after_ms = if est.is_finite() && est > 0.0 {
                (est.ceil() as u64).max(MIN_RETRY_MS)
            } else {
                DEFAULT_RETRY_MS
            };
            return Decision::Shed { retry_after_ms };
        }
        s.waiting += 1;
        s.max_inflight = s.max_inflight.max(s.executing + s.waiting);
        while s.executing >= self.workers && !s.closed {
            s = self
                .released
                .wait(s)
                .unwrap_or_else(|e| e.into_inner());
        }
        s.waiting -= 1;
        if s.closed {
            return Decision::Closed;
        }
        s.executing += 1;
        s.accepted += 1;
        Decision::Admitted(self.permit())
    }

    fn permit(&self) -> Permit<'_> {
        Permit {
            gate: self,
            start: Instant::now(),
            done: false,
        }
    }

    /// Release waiters and refuse all future admissions.
    pub fn close(&self) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.closed = true;
        drop(s);
        self.released.notify_all();
    }

    pub fn stats(&self) -> AdmissionStats {
        let s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        AdmissionStats {
            accepted: s.accepted,
            shed: s.shed,
            max_inflight: s.max_inflight,
        }
    }

    fn release(&self, service_ms: f64) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.executing -= 1;
        if service_ms.is_finite() && service_ms >= 0.0 {
            s.ewma_ms = if s.ewma_ms == 0.0 {
                service_ms
            } else {
                s.ewma_ms * (1.0 - EWMA_ALPHA) + service_ms * EWMA_ALPHA
            };
        }
        drop(s);
        self.released.notify_one();
    }
}

/// An execution permit. Releasing (drop or [`Permit::complete`]) frees
/// the slot and feeds the observed service time into the EWMA.
pub struct Permit<'a> {
    gate: &'a AdmissionGate,
    start: Instant,
    done: bool,
}

impl Permit<'_> {
    /// Explicit release; equivalent to dropping.
    pub fn complete(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if !self.done {
            self.done = true;
            self.gate
                .release(self.start.elapsed().as_secs_f64() * 1e3);
        }
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};

    #[test]
    fn admits_up_to_workers_without_queueing() {
        let gate = AdmissionGate::new(2, 4);
        let a = gate.admit();
        let b = gate.admit();
        assert!(matches!(a, Decision::Admitted(_)));
        assert!(matches!(b, Decision::Admitted(_)));
        let stats = gate.stats();
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn sheds_with_retry_hint_when_queue_full() {
        let gate = Arc::new(AdmissionGate::new(1, 0));
        let permit = match gate.admit() {
            Decision::Admitted(p) => p,
            _ => panic!("first admit must succeed"),
        };
        // queue_depth 0: a second request sheds immediately.
        match gate.admit() {
            Decision::Shed { retry_after_ms } => assert!(retry_after_ms > 0),
            _ => panic!("expected shed"),
        }
        permit.complete();
        assert!(matches!(gate.admit(), Decision::Admitted(_)));
        let stats = gate.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.accepted, 2);
        assert!(stats.max_inflight <= 1);
    }

    #[test]
    fn cold_start_shed_hint_is_never_zero() {
        // No request has ever completed, so the EWMA is still 0.0 and
        // the backlog estimate carries no signal. The shed hint must
        // still be a nonzero backoff, not "retry immediately".
        let gate = AdmissionGate::new(1, 0);
        let permit = match gate.admit() {
            Decision::Admitted(p) => p,
            _ => panic!("first admit must succeed"),
        };
        for _ in 0..3 {
            match gate.admit() {
                Decision::Shed { retry_after_ms } => {
                    assert!(retry_after_ms >= MIN_RETRY_MS);
                    assert_eq!(retry_after_ms, DEFAULT_RETRY_MS);
                }
                _ => panic!("expected cold-start shed"),
            }
        }
        drop(permit);
    }

    #[test]
    fn queued_request_runs_after_release() {
        let gate = Arc::new(AdmissionGate::new(1, 1));
        let first = match gate.admit() {
            Decision::Admitted(p) => p,
            _ => panic!(),
        };
        let entered = Arc::new(Barrier::new(2));
        let ran = Arc::new(AtomicUsize::new(0));
        let waiter = {
            let gate = Arc::clone(&gate);
            let entered = Arc::clone(&entered);
            let ran = Arc::clone(&ran);
            std::thread::spawn(move || {
                entered.wait();
                match gate.admit() {
                    Decision::Admitted(p) => {
                        ran.fetch_add(1, Ordering::SeqCst);
                        p.complete();
                    }
                    _ => panic!("queued request must eventually run"),
                }
            })
        };
        entered.wait();
        // Give the waiter time to park in the queue, then release.
        std::thread::sleep(std::time::Duration::from_millis(20));
        first.complete();
        waiter.join().unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        let stats = gate.stats();
        assert_eq!(stats.accepted, 2);
        assert!(stats.max_inflight <= 1 + 1, "inflight bounded by workers+depth");
    }

    #[test]
    fn inflight_never_exceeds_capacity_under_burst() {
        let gate = Arc::new(AdmissionGate::new(2, 3));
        let start = Arc::new(Barrier::new(16));
        let threads: Vec<_> = (0..16)
            .map(|_| {
                let gate = Arc::clone(&gate);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..50 {
                        match gate.admit() {
                            Decision::Admitted(p) => {
                                std::thread::sleep(std::time::Duration::from_micros(200));
                                p.complete();
                            }
                            Decision::Shed { retry_after_ms } => {
                                assert!(retry_after_ms > 0);
                                std::thread::yield_now();
                            }
                            Decision::Closed => panic!("gate not closed"),
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = gate.stats();
        assert!(
            stats.max_inflight <= 2 + 3,
            "max_inflight {} exceeded workers+queue_depth",
            stats.max_inflight
        );
        assert!(stats.accepted > 0);
    }

    #[test]
    fn close_releases_waiters_and_refuses_admission() {
        let gate = Arc::new(AdmissionGate::new(1, 4));
        let held = match gate.admit() {
            Decision::Admitted(p) => p,
            _ => panic!(),
        };
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || matches!(gate.admit(), Decision::Closed))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        gate.close();
        assert!(waiter.join().unwrap(), "waiter must see Closed");
        drop(held);
        assert!(matches!(gate.admit(), Decision::Closed));
    }
}
