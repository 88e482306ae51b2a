//! Bounded retry-with-backoff for transient storage errors.

use crate::storage::Storage;
use std::io;
use std::path::Path;
use std::time::Duration;

/// How many times to try, and how long to wait between tries.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` = no retry.
    pub attempts: u32,
    /// Backoff before retry `k` is `base_ms << (k - 1)`, capped at
    /// [`RetryPolicy::max_delay_ms`]. `0` = no sleeping (tests).
    pub base_ms: u64,
    /// Backoff ceiling.
    pub max_delay_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_ms: 5,
            max_delay_ms: 100,
        }
    }
}

impl RetryPolicy {
    /// A test-friendly policy: retry without sleeping.
    pub fn immediate(attempts: u32) -> Self {
        RetryPolicy {
            attempts,
            base_ms: 0,
            max_delay_ms: 0,
        }
    }
}

/// Whether an I/O error is worth retrying. Crash-style errors
/// (`Other`) and logical errors (`NotFound`, `AlreadyExists`,
/// `InvalidData`) are permanent; scheduler-ish hiccups are not.
pub fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Run `op` under the policy, retrying transient failures with
/// exponential backoff. Every retry bumps the process-wide
/// `recovery.retries` counter.
pub fn with_backoff<T>(
    policy: &RetryPolicy,
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let attempts = policy.attempts.max(1);
    let mut last = None;
    for k in 0..attempts {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(&e) && k + 1 < attempts => {
                sommelier_runtime::metrics::counters::add("recovery.retries", 1);
                if policy.base_ms > 0 {
                    let delay = policy
                        .base_ms
                        .checked_shl(k)
                        .unwrap_or(u64::MAX)
                        .min(policy.max_delay_ms.max(policy.base_ms));
                    std::thread::sleep(Duration::from_millis(delay));
                }
                last = Some(e);
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("retry exhausted with no attempt")))
}

/// A backend that applies [`with_backoff`] to every primitive of an
/// inner [`Storage`]. Retrying primitives (rather than composites) is
/// safe by construction: each primitive is idempotent-or-atomic
/// (rewriting a temp file, re-fsyncing, re-listing), and the commit
/// points (`rename`/`link`) either happened or did not.
pub struct RetryingStorage<S> {
    inner: S,
    policy: RetryPolicy,
}

impl<S: Storage> RetryingStorage<S> {
    pub fn new(inner: S, policy: RetryPolicy) -> Self {
        RetryingStorage { inner, policy }
    }
}

impl<S: Storage> Storage for RetryingStorage<S> {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        with_backoff(&self.policy, || self.inner.read(path))
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        with_backoff(&self.policy, || self.inner.write_file(path, bytes))
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        with_backoff(&self.policy, || self.inner.fsync(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        with_backoff(&self.policy, || self.inner.rename(from, to))
    }

    fn link(&self, existing: &Path, new: &Path) -> io::Result<()> {
        with_backoff(&self.policy, || self.inner.link(existing, new))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        with_backoff(&self.policy, || self.inner.remove(path))
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        with_backoff(&self.policy, || self.inner.list(dir))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{FaultPlan, FaultyStorage, OpKind};
    use crate::storage::StdStorage;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sommelier-retry-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn budgeted_transient_faults_are_absorbed() {
        let dir = scratch("absorb");
        let path = dir.join("f.json");
        let faulty = FaultyStorage::new(
            StdStorage,
            FaultPlan {
                seed: 3,
                crash_at: None,
                transient: vec![(OpKind::Write, 2), (OpKind::Rename, 1)],
            },
        );
        let s = RetryingStorage::new(faulty, RetryPolicy::immediate(4));
        // The composite survives: each primitive retries past its
        // budget.
        s.write_atomic(&path, b"payload").unwrap();
        assert_eq!(StdStorage.read(&path).unwrap(), b"payload");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_beyond_attempts_still_fails() {
        let dir = scratch("exhaust");
        let faulty = FaultyStorage::new(
            StdStorage,
            FaultPlan {
                seed: 3,
                crash_at: None,
                transient: vec![(OpKind::Write, 10)],
            },
        );
        let s = RetryingStorage::new(faulty, RetryPolicy::immediate(3));
        let err = s.write_file(&dir.join("f.json"), b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn permanent_errors_do_not_retry() {
        // Attempts are counted here, not read off the process-wide
        // `recovery.retries` counter the sibling tests bump from other
        // threads.
        let mut attempts = 0;
        let err = with_backoff(&RetryPolicy::immediate(5), || {
            attempts += 1;
            StdStorage.read(Path::new("/nonexistent/somm-retry.json"))
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert_eq!(attempts, 1, "NotFound must not burn retries");
    }
}
