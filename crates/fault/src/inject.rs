//! Deterministic fault injection over any [`Storage`] backend.
//!
//! One failure model, fully determined by a [`FaultPlan`]: a *crash*.
//! `crash_at = Some(n)` arms the n-th primitive operation (0-based,
//! counted across the storage's lifetime). The armed op takes a *torn*
//! effect — a seeded prefix of a write lands, a rename/link is dropped,
//! a read returns EIO — then errors, and every subsequent op fails too:
//! the process is dead. Reopening the directory with a fresh backend
//! models the post-crash restart.
//!
//! The op counter spans primitives only; the composite operations
//! ([`Storage::write_atomic`], [`Storage::create_exclusive`]) inherit
//! injection at every constituent step.

use crate::storage::Storage;
use std::io;
use std::path::Path;
use std::sync::Mutex;

/// Primitive operation kinds, for crash reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Read,
    Write,
    Fsync,
    Rename,
    Link,
    Remove,
    List,
}

impl OpKind {
    fn name(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Fsync => "fsync",
            OpKind::Rename => "rename",
            OpKind::Link => "link",
            OpKind::Remove => "remove",
            OpKind::List => "list",
        }
    }
}

/// What the armed crash point did to the in-flight operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A write landed only a seeded prefix of its bytes.
    TornWrite,
    /// A rename/link/remove was dropped entirely.
    DroppedOp,
    /// A read/list/fsync failed with EIO and no effect.
    Eio,
}

/// A deterministic fault schedule.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed driving every injected choice (torn-prefix lengths).
    pub seed: u64,
    /// Crash at this primitive-op index (0-based); `None` = never.
    pub crash_at: Option<u64>,
}

impl FaultPlan {
    /// A plan that only counts ops (no faults) — used to size a
    /// crash-loop sweep.
    pub fn count_only() -> Self {
        FaultPlan::default()
    }

    /// A plan that crashes at primitive op `n`.
    pub fn crash_at(seed: u64, n: u64) -> Self {
        FaultPlan {
            seed,
            crash_at: Some(n),
        }
    }
}

/// Tear shapes for binary snapshot images (the `.somb` fault surface).
///
/// [`FaultyStorage`] tears *writes* mid-protocol; these tear a file
/// *at rest* — the cases a crash-free byte flip (bad disk, truncating
/// copy, hand-edit) produces. Format-agnostic: the functions operate on
/// raw bytes and never parse the image, so they compose with any layout
/// the snapshot format evolves into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinaryTearKind {
    /// Cut the image short inside its trailing data region, as a
    /// truncating copy does.
    TruncatedTail,
    /// Flip one byte of the body, leaving length intact — a CRC-only
    /// corruption.
    CorruptedCrc,
    /// Delete a single interior byte, shifting every later section off
    /// its declared (aligned) offset.
    MisalignedSection,
}

impl BinaryTearKind {
    pub const ALL: [BinaryTearKind; 3] = [
        BinaryTearKind::TruncatedTail,
        BinaryTearKind::CorruptedCrc,
        BinaryTearKind::MisalignedSection,
    ];

    pub fn name(self) -> &'static str {
        match self {
            BinaryTearKind::TruncatedTail => "truncated-tail",
            BinaryTearKind::CorruptedCrc => "corrupted-crc",
            BinaryTearKind::MisalignedSection => "misaligned-section",
        }
    }
}

/// Apply a deterministic tear to a binary image. The choice of cut /
/// flip position is seeded; the same `(bytes, seed, kind)` always
/// produces the same tear. Images shorter than a few bytes are returned
/// truncated to empty (nothing meaningful to tear).
pub fn tear_binary(bytes: &[u8], seed: u64, kind: BinaryTearKind) -> Vec<u8> {
    if bytes.len() < 4 {
        return Vec::new();
    }
    let r = mix(seed, bytes.len() as u64);
    match kind {
        BinaryTearKind::TruncatedTail => {
            // Cut somewhere in the last third: past the header, inside
            // the data sections.
            let lo = bytes.len() * 2 / 3;
            let cut = lo + (r as usize) % (bytes.len() - lo);
            bytes[..cut].to_vec()
        }
        BinaryTearKind::CorruptedCrc => {
            // Flip one body byte past the 4-byte magic so the image
            // still sniffs as binary but fails its checksums.
            let mut out = bytes.to_vec();
            let pos = 4 + (r as usize) % (bytes.len() - 4);
            out[pos] ^= 0x80 | ((r >> 32) as u8 & 0x7F);
            out
        }
        BinaryTearKind::MisalignedSection => {
            // Drop one interior byte: lengths and offsets now disagree
            // and aligned sections land unaligned.
            let mut out = bytes.to_vec();
            let pos = 4 + (r as usize) % (bytes.len() - 5);
            out.remove(pos);
            out
        }
    }
}

struct InjectState {
    op: u64,
    dead: bool,
    injected: Vec<(u64, OpKind, FaultKind)>,
}

/// A [`Storage`] backend that injects the faults of a [`FaultPlan`]
/// into an inner backend.
pub struct FaultyStorage<S> {
    inner: S,
    seed: u64,
    crash_at: Option<u64>,
    state: Mutex<InjectState>,
}

/// splitmix64 — deterministic per-op randomness from (seed, op index).
fn mix(seed: u64, op: u64) -> u64 {
    let mut z = seed ^ op.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl<S: Storage> FaultyStorage<S> {
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultyStorage {
            inner,
            seed: plan.seed,
            crash_at: plan.crash_at,
            state: Mutex::new(InjectState {
                op: 0,
                dead: false,
                injected: Vec::new(),
            }),
        }
    }

    /// Primitive operations issued so far.
    pub fn ops(&self) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).op
    }

    /// Whether the simulated process has crashed.
    pub fn is_dead(&self) -> bool {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).dead
    }

    /// Every injected fault so far, as `(op index, op kind, effect)`.
    pub fn injected(&self) -> Vec<(u64, OpKind, FaultKind)> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .injected
            .clone()
    }

    /// Gate an operation: returns `Ok(op_index)` to proceed, or the
    /// injected error. `Err` paths record what happened.
    fn gate(&self, kind: OpKind) -> Result<u64, io::Error> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.dead {
            return Err(io::Error::other(format!(
                "injected: process dead (crashed earlier), {} refused",
                kind.name()
            )));
        }
        let op = st.op;
        st.op += 1;
        if self.crash_at == Some(op) {
            st.dead = true;
            let effect = match kind {
                OpKind::Write => FaultKind::TornWrite,
                OpKind::Rename | OpKind::Link | OpKind::Remove => FaultKind::DroppedOp,
                OpKind::Read | OpKind::List | OpKind::Fsync => FaultKind::Eio,
            };
            st.injected.push((op, kind, effect));
            // Signal the crash via a sentinel error *after* the torn
            // effect is applied by the caller (writes only).
            return Err(crash_error(op, kind));
        }
        Ok(op)
    }
}

fn crash_error(op: u64, kind: OpKind) -> io::Error {
    io::Error::other(format!("injected: crash at op {op} ({})", kind.name()))
}

impl<S: Storage> Storage for FaultyStorage<S> {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.gate(OpKind::Read)?;
        self.inner.read(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.gate(OpKind::Write) {
            Ok(_) => self.inner.write_file(path, bytes),
            Err(e) => {
                // A crashing write tears: a seeded prefix reaches the
                // file (possibly zero bytes), the rest never does.
                if e.to_string().contains("crash at op") {
                    let op = self.ops().saturating_sub(1);
                    let cut = if bytes.is_empty() {
                        0
                    } else {
                        (mix(self.seed, op) as usize) % bytes.len()
                    };
                    let _ = self.inner.write_file(path, &bytes[..cut]);
                }
                Err(e)
            }
        }
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.gate(OpKind::Fsync)?;
        self.inner.fsync(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.gate(OpKind::Rename)?;
        self.inner.rename(from, to)
    }

    fn link(&self, existing: &Path, new: &Path) -> io::Result<()> {
        self.gate(OpKind::Link)?;
        self.inner.link(existing, new)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.gate(OpKind::Remove)?;
        self.inner.remove(path)
    }

    fn exists(&self, path: &Path) -> bool {
        // Advisory probe: not a crash point (it has no effect to tear),
        // but a dead process can no longer observe anything.
        if self.state.lock().unwrap_or_else(|e| e.into_inner()).dead {
            return false;
        }
        self.inner.exists(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.gate(OpKind::List)?;
        self.inner.list(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::StdStorage;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sommelier-inject-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crash_during_atomic_write_never_tears_the_destination() {
        let dir = scratch("tear");
        let path = dir.join("f.json");
        StdStorage.write_atomic(&path, b"OLD-STATE").unwrap();
        // write_atomic = write, fsync, rename (+ cleanup attempts):
        // crash each of the first three primitive steps.
        for at in 0..3 {
            let s = FaultyStorage::new(StdStorage, FaultPlan::crash_at(7, at));
            let err = s.write_atomic(&path, b"NEW-STATE-LONGER").unwrap_err();
            assert!(err.to_string().contains("injected"), "{err}");
            assert!(s.is_dead());
            // The destination still holds the old bytes, whole.
            assert_eq!(StdStorage.read(&path).unwrap(), b"OLD-STATE");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_past_the_rename_commits_the_new_state() {
        let dir = scratch("commit");
        let path = dir.join("f.json");
        StdStorage.write_atomic(&path, b"OLD").unwrap();
        // Op 3 is the (best-effort) temp cleanup after a successful
        // rename — by then the new state is committed.
        let s = FaultyStorage::new(StdStorage, FaultPlan::crash_at(7, 3));
        // The composite itself succeeded before op 3 runs inside it?
        // No: rename is op 2 and there is no op 3 in write_atomic's
        // happy path — so the write succeeds and the *next* op dies.
        s.write_atomic(&path, b"NEW").unwrap();
        assert_eq!(StdStorage.read(&path).unwrap(), b"NEW");
        assert!(s.read(&path).is_err(), "op 3 crashes the next read");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_prefix_is_deterministic_per_seed() {
        let dir = scratch("det");
        let run = |seed: u64| -> Vec<u8> {
            let path = dir.join(format!("t-{seed}.json"));
            let s = FaultyStorage::new(StdStorage, FaultPlan::crash_at(seed, 0));
            let _ = s.write_file(&path, b"0123456789abcdef");
            StdStorage.read(&path).unwrap_or_default()
        };
        assert_eq!(run(1), run(1), "same seed, same tear");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_tears_are_deterministic_and_distinct() {
        let image: Vec<u8> = (0u16..600).map(|i| (i % 251) as u8).collect();
        for kind in BinaryTearKind::ALL {
            let a = tear_binary(&image, 9, kind);
            let b = tear_binary(&image, 9, kind);
            assert_eq!(a, b, "{}: same seed, same tear", kind.name());
            assert_ne!(a, image, "{}: the tear changed something", kind.name());
        }
        let t = tear_binary(&image, 9, BinaryTearKind::TruncatedTail);
        assert!(t.len() >= image.len() * 2 / 3 && t.len() < image.len());
        assert_eq!(t, image[..t.len()], "truncation is a clean prefix");
        let c = tear_binary(&image, 9, BinaryTearKind::CorruptedCrc);
        assert_eq!(c.len(), image.len());
        assert_eq!(
            c.iter().zip(&image).filter(|(x, y)| x != y).count(),
            1,
            "exactly one flipped byte"
        );
        let m = tear_binary(&image, 9, BinaryTearKind::MisalignedSection);
        assert_eq!(m.len(), image.len() - 1, "one byte deleted");
        assert_eq!(m[..4], image[..4], "magic untouched: still sniffs binary");
    }

    #[test]
    fn op_counting_spans_composites() {
        let dir = scratch("count");
        let s = FaultyStorage::new(StdStorage, FaultPlan::count_only());
        s.write_atomic(&dir.join("a.json"), b"a").unwrap();
        // write + fsync + rename.
        assert_eq!(s.ops(), 3);
        s.create_exclusive(&dir.join("b.json"), b"b").unwrap();
        // + write + fsync + link + remove(temp).
        assert_eq!(s.ops(), 7);
        std::fs::remove_dir_all(&dir).ok();
    }
}
