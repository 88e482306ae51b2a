//! A counting `#[global_allocator]`: bytes and calls allocated, per
//! thread and for the whole process.
//!
//! Each thread owns one slot of a fixed static table and is the only
//! writer of that slot, so counting is two plain relaxed stores per
//! allocation — no locked instruction on the paths being measured. A
//! thread reads its own slot for a per-thread delta (the traced stages
//! run on the client thread); the process total is the sum of all slots
//! (an op's allocations span the client thread and the daemon's
//! connection thread).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Threads that can be counted. Slots are never reused: a run starts
/// a few dozen threads (daemon connections, pool lanes) in its life.
const SLOTS: usize = 512;
const UNASSIGNED: usize = usize::MAX;

#[repr(align(64))]
struct Slot {
    bytes: AtomicU64,
    count: AtomicU64,
}

static TABLE: [Slot; SLOTS] = [const {
    Slot {
        bytes: AtomicU64::new(0),
        count: AtomicU64::new(0),
    }
}; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates.
    static MY_SLOT: Cell<usize> = const { Cell::new(UNASSIGNED) };
}

/// Bytes and calls allocated (frees are not subtracted: the metric is
/// allocator traffic, not live memory).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Allocated {
    pub bytes: u64,
    pub count: u64,
}

impl Allocated {
    pub fn plus(self, other: Allocated) -> Allocated {
        Allocated {
            bytes: self.bytes + other.bytes,
            count: self.count + other.count,
        }
    }

    /// Traffic since `earlier`.
    pub fn since(self, earlier: Allocated) -> Allocated {
        Allocated {
            bytes: self.bytes - earlier.bytes,
            count: self.count - earlier.count,
        }
    }
}

fn my_slot() -> Option<&'static Slot> {
    // `try_with`: a thread that allocates while its thread-locals are
    // being torn down is simply not counted.
    let index = MY_SLOT
        .try_with(|cell| {
            if cell.get() == UNASSIGNED {
                cell.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed));
            }
            cell.get()
        })
        .ok()?;
    TABLE.get(index)
}

fn record(size: usize) {
    if let Some(slot) = my_slot() {
        // Single writer per slot: load + store, not a read-modify-write.
        slot.bytes.store(
            slot.bytes.load(Ordering::Relaxed) + size as u64,
            Ordering::Relaxed,
        );
        slot.count
            .store(slot.count.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }
}

/// Traffic of the calling thread so far.
pub fn thread_total() -> Allocated {
    my_slot().map_or_else(Allocated::default, |slot| Allocated {
        bytes: slot.bytes.load(Ordering::Relaxed),
        count: slot.count.load(Ordering::Relaxed),
    })
}

/// Traffic of every counted thread so far. Exact once the other
/// threads are quiescent — which they are whenever the single client
/// is between requests.
pub fn process_total() -> Allocated {
    let used = NEXT_SLOT.load(Ordering::Relaxed).min(SLOTS);
    TABLE[..used]
        .iter()
        .fold(Allocated::default(), |acc, slot| Allocated {
            bytes: acc.bytes + slot.bytes.load(Ordering::Relaxed),
            count: acc.count + slot.count.load(Ordering::Relaxed),
        })
}

/// Threads that started after the table was full and so went
/// uncounted; a report with a non-zero value here undercounts.
pub fn uncounted_threads() -> usize {
    NEXT_SLOT.load(Ordering::Relaxed).saturating_sub(SLOTS)
}

/// The system allocator, counted.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the counting on the side
// touches only static atomics and a const-initialised thread-local, and
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_sees_its_own_allocations_only() {
        let before = thread_total();
        let v: Vec<u8> = Vec::with_capacity(4096);
        std::hint::black_box(&v);
        let mine = thread_total().since(before);
        assert!(mine.bytes >= 4096, "{mine:?}");
        assert!(mine.count >= 1);

        // Another thread's traffic lands in its slot, not this one.
        let before = thread_total();
        let theirs = std::thread::spawn(|| {
            let before = thread_total();
            let v: Vec<u8> = Vec::with_capacity(1 << 20);
            std::hint::black_box(&v);
            thread_total().since(before)
        });
        let theirs = theirs.join().unwrap();
        assert!(theirs.bytes >= 1 << 20);
        // Spawning and joining allocate a little on this thread; the
        // megabyte does not show up here.
        assert!(thread_total().since(before).bytes < 1 << 20);
    }

    #[test]
    fn process_total_covers_every_thread() {
        let before = process_total();
        std::thread::spawn(|| {
            std::hint::black_box(Vec::<u8>::with_capacity(1 << 20));
        })
        .join()
        .unwrap();
        assert!(process_total().since(before).bytes >= 1 << 20);
        assert_eq!(uncounted_threads(), 0);
    }
}
