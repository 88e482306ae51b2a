//! `sommelier-benchmark`: the repository's one benchmark.
//!
//! ```text
//! sommelier-benchmark --workload <serve_hot|serve_uncached|serve_churn|curate>
//!                     --seed <u64> [--seconds <n>] [--trace [0|1]] [--smoke]
//!                     [--out-dir DIR]
//! sommelier-benchmark compare A.json B.json --bounds ../BENCHMARK.json
//! ```
//!
//! A run prints every metric by name and unit, checks every output
//! against the benchmark's own oracle, writes `report-<workload>.json`
//! (and `trace-<workload>.json` when traced) under the out-dir, and
//! ends with the driver's one-line JSON contract. See README.md.

mod alloc;
mod compare;
mod curate;
mod fixture;
mod layers;
mod metrics;
mod oracle;
mod report;
mod serve;
mod stats;
mod storage;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::Workload;
use report::Report;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// What one run was asked to do.
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// How long the measured phase runs — set-ups, cold opens and
    /// rounds together — in seconds.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

const USAGE: &str = "usage: sommelier-benchmark --workload <serve_hot|serve_uncached|serve_churn|curate> --seed <u64> [--seconds <n>] [--trace [0|1]] [--smoke] [--out-dir DIR]\n       sommelier-benchmark compare A.json B.json --bounds BENCHMARK.json";

/// Where data directories, reports and traces go unless `--out-dir`
/// says otherwise: beside the executable, so inside the build tree of
/// whichever checkout built it.
fn default_out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("the executable has no parent directory")?;
    Ok(dir.join("sommelier-benchmark-data"))
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds) = (None, None, None);
    let (mut trace, mut smoke, mut out_dir) = (false, false, None);
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => {
                let text = value("an unsigned integer")?;
                seed = Some(
                    text.parse::<u64>()
                        .map_err(|e| format!("--seed {text}: {e}"))?,
                );
            }
            "--seconds" => {
                let text = value("a number of seconds")?;
                let s: f64 = text.parse().map_err(|e| format!("--seconds {text}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {text}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                // The driver passes `--trace 0|1`; by hand the flag alone means on.
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => smoke = true,
            "--out-dir" => out_dir = Some(PathBuf::from(value("a directory")?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(if smoke { 0.5 } else { 26.0 }),
        trace,
        smoke,
        out_dir: match out_dir {
            Some(dir) => dir,
            None => default_out_dir()?,
        },
    })
}

fn run(args: &RunArgs) -> Result<Report, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    // Every workload is sequential by construction (one client, one
    // request in flight, one engine lane), so one CPU loses nothing and
    // thread placement stops being a variable.
    let nproc = sys::nproc();
    let pinned = sys::pin_to_one_cpu().map_err(|e| format!("cannot pin to one CPU: {e}"))?;
    let machine = sys::machine_record(nproc, pinned, &args.out_dir);
    let mut report = Report::new(args.workload, args.seed, args.trace, args.smoke, machine);
    match args.workload {
        Workload::Curate => curate::run(args, &mut report)?,
        serve => serve::run(serve, args, &mut report)?,
    }
    let missing = report.missing();
    if !missing.is_empty() {
        return Err(format!("the run did not emit {missing:?}"));
    }
    if alloc::uncounted_threads() > 0 {
        return Err(format!(
            "{} threads went uncounted by the allocator",
            alloc::uncounted_threads()
        ));
    }
    let path = args
        .out_dir
        .join(format!("report-{}.json", args.workload.name()));
    let text = serde_json::to_string_pretty(&report.to_value()).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::main(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("sommelier-benchmark compare: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let outcome = parse_run(&args).and_then(|args| run(&args));
    match outcome {
        Ok(report) => {
            report.print();
            println!("{}", report.contract_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sommelier-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_and_hand_spellings_of_trace_both_parse() {
        let base = ["--workload", "serve_hot", "--seed", "3", "--out-dir", "x"];
        let parse = |extra: &[&str]| parse_run(&args(&[&base[..], extra].concat())).unwrap();
        assert!(!parse(&[]).trace);
        assert!(!parse(&["--trace", "0"]).trace);
        assert!(parse(&["--trace", "1"]).trace);
        assert!(parse(&["--trace"]).trace);
        let a = parse(&["--trace", "--smoke", "--seconds", "7"]);
        assert!(a.trace && a.smoke);
        assert_eq!(
            (a.seconds, a.seed, a.workload),
            (7.0, 3, Workload::ServeHot)
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse_run(&args(&["--seed", "3"])).is_err());
        assert!(parse_run(&args(&["--workload", "serve_hot"])).is_err());
        assert!(parse_run(&args(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse_run(&args(&["--workload", "curate", "--seed", "-1"])).is_err());
        assert!(parse_run(&args(&[
            "--workload",
            "curate",
            "--seed",
            "1",
            "--seconds",
            "0"
        ]))
        .is_err());
        assert!(parse_run(&args(&["--workload", "curate", "--seed", "1", "--bogus"])).is_err());
    }
}
