//! An in-memory, counting [`Storage`]: what the store layer asks of the
//! device, as counts, with the device's own time left out.
//!
//! Flush and write *time* on a shared disk is mostly the neighbours':
//! here a curator's set-up read 23 ms with its data on tmpfs and
//! 63–98 ms on the guest's disk, same code, and with the flushes left
//! out the disk's own writes drifted from 5 ms to 57 ms over two runs.
//! Flush *count* and bytes written are the program's own and repeat
//! exactly. The data directory has to stay inside the checkout, which
//! is on that disk, so the device is a map from path to bytes — what a
//! tmpfs would have been — and every primitive the program asks for is
//! counted.
//!
//! One thing reaches the real filesystem: each name a rename or link
//! commits is also created there, empty. `OnDiskRepository::model_bytes`
//! (which `dedup_store` calls for its statistics) sizes the files its
//! storage lists with `std::fs::metadata`, past the storage, and fails
//! on a name that is not there.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sommelier_fault::Storage;

/// A point-in-time copy of the counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoCounts {
    pub reads: u64,
    pub bytes_read: u64,
    pub writes: u64,
    pub bytes_written: u64,
    pub fsyncs: u64,
}

impl IoCounts {
    pub fn plus(self, other: IoCounts) -> IoCounts {
        IoCounts {
            reads: self.reads + other.reads,
            bytes_read: self.bytes_read + other.bytes_read,
            writes: self.writes + other.writes,
            bytes_written: self.bytes_written + other.bytes_written,
            fsyncs: self.fsyncs + other.fsyncs,
        }
    }

    /// Device traffic since `earlier`.
    pub fn since(self, earlier: IoCounts) -> IoCounts {
        IoCounts {
            reads: self.reads - earlier.reads,
            bytes_read: self.bytes_read - earlier.bytes_read,
            writes: self.writes - earlier.writes,
            bytes_written: self.bytes_written - earlier.bytes_written,
            fsyncs: self.fsyncs - earlier.fsyncs,
        }
    }
}

/// Files by path, and counts of the primitives that would have reached
/// a device. Only primitives are implemented, so the provided
/// composites (`write_atomic`, `create_exclusive`) are counted as the
/// primitive steps they really perform; as with `StdStorage`, a rename
/// or link is followed by one flush of the parent directory.
#[derive(Default)]
pub struct MemoryStorage {
    files: Mutex<BTreeMap<PathBuf, Arc<Vec<u8>>>>,
    reads: AtomicU64,
    bytes_read: AtomicU64,
    writes: AtomicU64,
    bytes_written: AtomicU64,
    fsyncs: AtomicU64,
}

/// Leave `path` on the real filesystem as an empty file (see the
/// module's note); best effort, as nothing here reads it back.
fn shadow(path: &Path) {
    let _ = std::fs::File::create(path);
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
}

impl MemoryStorage {
    pub fn counts(&self) -> IoCounts {
        IoCounts {
            reads: self.reads.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
        }
    }

    fn files(&self) -> std::sync::MutexGuard<'_, BTreeMap<PathBuf, Arc<Vec<u8>>>> {
        self.files
            .lock()
            .expect("no storage operation panics with the map locked")
    }

    /// Total bytes of the files under `dir`, at any depth. A file linked
    /// under two names counts under each, as `du` on two directories
    /// would count it.
    pub fn bytes_under(&self, dir: &Path) -> u64 {
        self.files()
            .iter()
            .filter(|(path, _)| path.starts_with(dir))
            .map(|(_, bytes)| bytes.len() as u64)
            .sum()
    }
}

impl Storage for MemoryStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let bytes = self
            .files()
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))?;
        // Successful reads only: a probe for a file that is not there
        // moves no data.
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(bytes.to_vec())
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.files()
            .insert(path.to_path_buf(), Arc::new(bytes.to_vec()));
        Ok(())
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        if !self.exists(path) {
            return Err(not_found(path));
        }
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = self.files();
        let bytes = files.remove(from).ok_or_else(|| not_found(from))?;
        files.insert(to.to_path_buf(), bytes);
        shadow(to);
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn link(&self, existing: &Path, new: &Path) -> io::Result<()> {
        let mut files = self.files();
        if files.contains_key(new) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                new.display().to_string(),
            ));
        }
        let bytes = files
            .get(existing)
            .cloned()
            .ok_or_else(|| not_found(existing))?;
        files.insert(new.to_path_buf(), bytes);
        shadow(new);
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.files()
            .remove(path)
            .map(drop)
            .ok_or_else(|| not_found(path))
    }

    fn exists(&self, path: &Path) -> bool {
        self.files().contains_key(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        Ok(self
            .files()
            .keys()
            .filter(|path| path.parent() == Some(dir))
            .filter_map(|path| path.file_name()?.to_str().map(str::to_string))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_a_scripted_sequence_and_data_passes_through() {
        let dir = std::env::temp_dir().join(format!(
            "sommelier-benchmark-storage-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        let s = MemoryStorage::default();
        let (a, b) = (dir.join("a"), dir.join("sub/b"));

        // write_atomic = write temp + fsync + rename (+ directory sync).
        s.write_atomic(&a, b"0123456789").unwrap();
        assert_eq!(
            s.counts(),
            IoCounts {
                writes: 1,
                bytes_written: 10,
                fsyncs: 2,
                ..IoCounts::default()
            }
        );
        // create_exclusive = write temp + fsync + link (+ directory
        // sync) + remove temp.
        let before = s.counts();
        s.create_exclusive(&b, b"abc").unwrap();
        assert_eq!(
            s.counts().since(before),
            IoCounts {
                writes: 1,
                bytes_written: 3,
                fsyncs: 2,
                ..IoCounts::default()
            }
        );
        // The loser of an exclusive create still wrote and flushed its
        // temp file (the failed link syncs nothing), and the winner's
        // bytes stay.
        assert_eq!(
            s.create_exclusive(&b, b"zzzz").unwrap_err().kind(),
            io::ErrorKind::AlreadyExists
        );
        assert_eq!(s.counts().writes, 3);
        assert_eq!(s.counts().fsyncs, 5);

        let before = s.counts();
        assert_eq!(s.read(&a).unwrap(), b"0123456789");
        assert_eq!(s.read(&b).unwrap(), b"abc");
        assert_eq!(
            s.read(&dir.join("missing")).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        assert_eq!(
            s.counts().since(before),
            IoCounts {
                reads: 2,
                bytes_read: 13,
                ..IoCounts::default()
            }
        );

        // No temp sibling is left behind, a listing is one level deep,
        // and sizes add up over every depth.
        assert!(s.exists(&a) && !s.exists(&dir));
        assert_eq!(s.list(&dir).unwrap(), ["a"]);
        assert_eq!(s.list(&dir.join("sub")).unwrap(), ["b"]);
        assert_eq!(s.list(&dir.join("nowhere")).unwrap(), Vec::<String>::new());
        assert_eq!(s.bytes_under(&dir), 13);
        assert_eq!(s.bytes_under(&dir.join("sub")), 3);
        s.remove(&a).unwrap();
        assert!(!s.exists(&a));
        assert_eq!(s.remove(&a).unwrap_err().kind(), io::ErrorKind::NotFound);
        assert_eq!(s.bytes_under(&dir), 3);
        // Committed names exist on the real filesystem, empty.
        assert_eq!(std::fs::metadata(&b).unwrap().len(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
