//! Shared harness utilities for the experiment binaries.
//!
//! Every table and figure of the paper's evaluation (Section 7) has a
//! binary in this crate (`src/bin/`) that regenerates it: same rows, same
//! series, printed as aligned text and written as JSON under
//! `target/experiments/`. This library holds the pieces the binaries
//! share: output locations, table rendering, and simple timing. An
//! experiment whose claim is a tier-1 test lives here as a function with
//! a scale parameter, and its binary calls it at full scale.

pub mod table1;

use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

/// Directory where experiment binaries drop machine-readable results.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("can create target/experiments");
    dir
}

/// Write a JSON result file for an experiment.
pub fn write_json<T: Serialize>(experiment: &str, value: &T) {
    let path = experiments_dir().join(format!("{experiment}.json"));
    let json = serde_json::to_string_pretty(value).expect("results serialize");
    std::fs::write(&path, json).expect("can write experiment results");
    println!("\n[written] {}", path.display());
}

/// Render an aligned text table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Time a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Format a float with the given precision.
pub fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_dir_exists_after_call() {
        assert!(experiments_dir().exists());
    }

    #[test]
    fn timed_returns_result_and_elapsed() {
        let (x, secs) = timed(|| 40 + 2);
        assert_eq!(x, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn fmt_rounds() {
        assert_eq!(fmt(1.23456, 2), "1.23");
    }
}
