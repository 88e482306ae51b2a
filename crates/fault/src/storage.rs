//! The storage abstraction and the real filesystem backend.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic discriminator for temp-file names within this process.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The temp-file sibling used by the atomic composites: lives in the
/// same directory as `path` (so the final rename never crosses a
/// filesystem) and carries a `.tmp-` marker that `fsck` and the lint
/// layer recognize as an orphan when a crash strands it.
pub fn temp_sibling(path: &Path) -> PathBuf {
    let file = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("unnamed");
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    path.with_file_name(format!(
        "{file}.tmp-{}-{seq}",
        std::process::id()
    ))
}

/// The primitive I/O surface the stores are written against.
///
/// The atomic composites ([`Storage::write_atomic`],
/// [`Storage::create_exclusive`]) are *provided* methods expressed in
/// terms of the primitives. That shape is load-bearing: a
/// fault-injecting backend only has to intercept primitives to obtain a
/// crash point between every step of every composite — exactly the
/// torn-write windows a real crash exposes.
pub trait Storage: Send + Sync {
    /// Read the entire file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Plain full-file create+write (NOT durable, NOT atomic). Only
    /// ever used on temp siblings; final paths change exclusively via
    /// [`Storage::rename`] / [`Storage::link`].
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Flush file contents to stable storage.
    fn fsync(&self, path: &Path) -> io::Result<()>;

    /// Atomically replace `to` with `from` (may overwrite).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Atomically materialize `new` as a hard link to `existing`;
    /// fails with [`io::ErrorKind::AlreadyExists`] if `new` exists.
    /// This is the no-overwrite counterpart of [`Storage::rename`].
    fn link(&self, existing: &Path, new: &Path) -> io::Result<()>;

    /// Delete a file.
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// Whether a file exists (advisory only — never use as a
    /// check-then-act guard; that is what [`Storage::link`] is for).
    fn exists(&self, path: &Path) -> bool;

    /// File names (not paths) of a directory's entries.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;

    /// Durably replace `path` with `bytes`: write a temp sibling,
    /// fsync it, rename it over the destination. A crash at any
    /// primitive leaves either the old file or the new file at `path`
    /// — never a torn mixture — plus at worst a stranded `.tmp-`
    /// sibling.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = temp_sibling(path);
        if let Err(e) = self.write_file(&tmp, bytes) {
            let _ = self.remove(&tmp);
            return Err(e);
        }
        if let Err(e) = self.fsync(&tmp) {
            let _ = self.remove(&tmp);
            return Err(e);
        }
        if let Err(e) = self.rename(&tmp, path) {
            let _ = self.remove(&tmp);
            return Err(e);
        }
        Ok(())
    }

    /// Durably create `path` with `bytes` only if it does not already
    /// exist: write a temp sibling, fsync it, hard-link it into place.
    /// The link is the single atomic commit point, so two concurrent
    /// publishers of the same path cannot both succeed — exactly one
    /// link wins, the loser observes [`io::ErrorKind::AlreadyExists`].
    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = temp_sibling(path);
        if let Err(e) = self.write_file(&tmp, bytes) {
            let _ = self.remove(&tmp);
            return Err(e);
        }
        if let Err(e) = self.fsync(&tmp) {
            let _ = self.remove(&tmp);
            return Err(e);
        }
        let linked = self.link(&tmp, path);
        let _ = self.remove(&tmp);
        linked
    }
}

/// The real filesystem backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdStorage;

impl StdStorage {
    /// Best-effort fsync of `path`'s parent directory, making a
    /// just-committed rename/link durable against power loss.
    fn sync_parent(path: &Path) {
        if let Some(parent) = path.parent() {
            if let Ok(dir) = fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
}

impl Storage for StdStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)?;
        Self::sync_parent(to);
        Ok(())
    }

    fn link(&self, existing: &Path, new: &Path) -> io::Result<()> {
        fs::hard_link(existing, new)?;
        Self::sync_parent(new);
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name().into_string().map_err(|n| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("non-UTF-8 file name {n:?}"),
                )
            })?;
            out.push(name);
        }
        Ok(out)
    }
}

/// Move an unreadable artifact aside as `<name>.corrupt-<epoch>`
/// (appending `-<n>` on collision) so recovery can rebuild while the
/// evidence survives for inspection. Bumps `recovery.quarantined`.
pub fn quarantine(storage: &dyn Storage, path: &Path) -> io::Result<PathBuf> {
    let epoch = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let file = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("unnamed");
    let mut dest = path.with_file_name(format!("{file}.corrupt-{epoch}"));
    let mut n = 0u32;
    while storage.exists(&dest) {
        n += 1;
        dest = path.with_file_name(format!("{file}.corrupt-{epoch}-{n}"));
    }
    storage.rename(path, &dest)?;
    sommelier_runtime::metrics::counters::add("recovery.quarantined", 1);
    Ok(dest)
}

/// Whether a store file name marks a quarantined artifact.
pub fn is_quarantine_name(name: &str) -> bool {
    name.contains(".corrupt-")
}

/// Whether a store file name marks a temp sibling of an atomic write
/// (an orphan, if it survived the writing process).
pub fn is_temp_name(name: &str) -> bool {
    name.contains(".tmp-")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sommelier-fault-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let dir = scratch("atomic");
        let path = dir.join("f.json");
        let s = StdStorage;
        s.write_atomic(&path, b"one").unwrap();
        assert_eq!(s.read(&path).unwrap(), b"one");
        s.write_atomic(&path, b"two").unwrap();
        assert_eq!(s.read(&path).unwrap(), b"two");
        assert!(s.list(&dir).unwrap().iter().all(|n| !is_temp_name(n)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_exclusive_rejects_existing() {
        let dir = scratch("excl");
        let path = dir.join("f.json");
        let s = StdStorage;
        s.create_exclusive(&path, b"first").unwrap();
        let err = s.create_exclusive(&path, b"second").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        assert_eq!(s.read(&path).unwrap(), b"first");
        assert!(s.list(&dir).unwrap().iter().all(|n| !is_temp_name(n)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_moves_aside_and_never_collides() {
        let dir = scratch("quar");
        let s = StdStorage;
        let path = dir.join("snap.json");
        s.write_file(&path, b"garbage").unwrap();
        let q1 = quarantine(&s, &path).unwrap();
        assert!(!s.exists(&path));
        assert!(is_quarantine_name(q1.file_name().unwrap().to_str().unwrap()));
        // Same epoch second → the collision suffix kicks in.
        s.write_file(&path, b"garbage2").unwrap();
        let q2 = quarantine(&s, &path).unwrap();
        assert_ne!(q1, q2);
        assert_eq!(s.read(&q2).unwrap(), b"garbage2");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn list_surfaces_missing_directory() {
        let s = StdStorage;
        assert!(s.list(Path::new("/nonexistent/sommelier-dir")).is_err());
    }
}
