//! `sommelier-fault` — crash-safe storage for the Sommelier stores.
//!
//! The paper notes both indices "can be populated to disk when they grow
//! large" (Section 5.5), and the serving integration (Section 7.1)
//! assumes the engine always comes back up with a valid snapshot. That
//! only holds if every byte that reaches a store file got there
//! *atomically*: a bare `fs::write` interrupted by a crash leaves torn
//! JSON that takes the whole query path down on the next start.
//!
//! This crate is the durability layer the rest of the workspace writes
//! through:
//!
//! * [`Storage`] — the primitive I/O vocabulary (read / write / fsync /
//!   rename / link / remove / list) plus two *composite* operations
//!   every store uses: [`Storage::write_atomic`] (write-to-temp → fsync
//!   → atomic rename) and [`Storage::create_exclusive`] (write-to-temp
//!   → fsync → atomic hard-link, the `O_EXCL`-style publish that closes
//!   check-then-write races). The composites are provided methods built
//!   from the primitives, so *every* backend — including the
//!   fault-injecting one — gets crash points between each primitive
//!   step for free.
//! * [`StdStorage`] — the real filesystem backend.
//! * [`FaultyStorage`] — a deterministic, seeded fault injector that
//!   wraps any backend: it can crash the process model at an exact
//!   primitive-op index (partial write, dropped rename, EIO on read —
//!   everything after the crash fails, like a dead process).
//! * [`quarantine`] — move an unreadable artifact aside as
//!   `<name>.corrupt-<epoch>` so recovery can rebuild without
//!   destroying the evidence.
//!
//! Observability: quarantine bumps the process-wide
//! `recovery.quarantined` counter in `sommelier_runtime::metrics`.

pub mod inject;
pub mod storage;

pub use inject::{tear_binary, BinaryTearKind, FaultKind, FaultPlan, FaultyStorage, OpKind};
pub use storage::{quarantine, temp_sibling, StdStorage, Storage};
