//! What the benchmark asks of the operating system: CPU pinning, the
//! process CPU clock, peak resident memory, directory sizes, and the
//! machine record every report carries.

use std::fs;
use std::io;
use std::path::Path;

use serde::Value;

// std already links libc; these three symbols are all the benchmark
// needs from it, so they are declared here rather than pulling a crate.
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// Words in the affinity mask handed to the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;

/// Pin the whole process (every thread it starts afterwards inherits
/// the mask) to the first CPU it is currently allowed on, and return
/// that CPU.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = (0..MASK_WORDS * 64)
        .find(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .ok_or_else(|| io::Error::other("empty affinity mask"))?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed. Called
    // before any other thread exists, so pid 0 (the calling thread) is
    // the whole process and later threads inherit the mask.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

/// User + system CPU time of the whole process (all threads), seconds.
/// `CLOCK_PROCESS_CPUTIME_ID` is the same accounting `/proc/self/stat`
/// shows in 10 ms ticks, at nanosecond resolution.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec`-shaped value.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

fn status_kb(field: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_dir() {
            total += dir_bytes(&entry.path())?;
        } else {
            total += meta.len();
        }
    }
    Ok(total)
}

fn first_line_after(path: &str, prefix: &str) -> Option<String> {
    let text = fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(prefix))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn on_tmpfs(dir: &Path) -> bool {
    let Ok(dir) = dir.canonicalize() else {
        return false;
    };
    let Ok(mounts) = fs::read_to_string("/proc/mounts") else {
        return false;
    };
    // The longest mount point that prefixes `dir` is the one it is on.
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then_some((point.len(), kind == "tmpfs"))
        })
        .max()
        .is_some_and(|(_, tmpfs)| tmpfs)
}

/// CPUs this process may run on. Read it before pinning.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The machine a report was measured on.
pub fn machine_record(nproc: usize, pinned_cpu: usize, data_dir: &Path) -> Value {
    Value::Map(vec![
        ("nproc".into(), Value::UInt(nproc as u64)),
        (
            "cpu_model".into(),
            Value::Str(first_line_after("/proc/cpuinfo", "model name").unwrap_or_default()),
        ),
        (
            "kernel".into(),
            Value::Str(
                fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map(|s| s.trim().to_string())
                    .unwrap_or_default(),
            ),
        ),
        ("pinned_cpu".into(), Value::UInt(pinned_cpu as u64)),
        ("data_dir_tmpfs".into(), Value::Bool(on_tmpfs(data_dir))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > before);
    }

    #[test]
    fn dir_bytes_sums_nested_files() {
        let dir =
            std::env::temp_dir().join(format!("sommelier-benchmark-sys-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("sub")).unwrap();
        fs::write(dir.join("a"), [0u8; 10]).unwrap();
        fs::write(dir.join("sub/b"), [0u8; 32]).unwrap();
        assert_eq!(dir_bytes(&dir).unwrap(), 42);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn peak_rss_is_reported() {
        assert!(peak_rss_mb() > 0.0);
    }
}
