//! `sommelier` — command-line interface to the Sommelier query engine.
//!
//! A repository is a directory of per-key manifests over shared tensor
//! chunks (the bare-bone publish/load store of paper Section 2.1); the
//! indices live next to them in `sommelier.index.json`. Typical session:
//!
//! ```sh
//! sommelier init hub/
//! sommelier seed hub/ --series 4 --seed 7      # populate from the zoo
//! sommelier index hub/                         # build + persist indices
//! sommelier list hub/
//! sommelier query hub/ "SELECT model CORR bitish-r152x4 ON memory <= 40% WITHIN 0.3"
//! sommelier show hub/ efficientnetish-b5
//! sommelier diff hub/ bitish-r152x4 efficientnetish-b5
//! ```

/// `print!` for the commands: see [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::emit(format_args!($($arg)*))?
    };
}

/// `println!` for the commands: see [`emit`].
macro_rules! outln {
    () => {
        out!("\n")
    };
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

mod commands;

/// Write to stdout. A reader that went away (`sommelier list hub | head
/// -1`) is not an error: the rest of the output is dropped, and the
/// command runs to its end and exits with its own status. Any other
/// write error fails the command.
fn emit(args: std::fmt::Arguments<'_>) -> Result<(), String> {
    use std::io::Write as _;
    match std::io::stdout().write_fmt(args) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(format!("cannot write to stdout: {e}"))
        }
        _ => Ok(()),
    }
}

use std::process::ExitCode;

const USAGE: &str = "\
sommelier — DNN model repository query engine (SIGMOD'22 reproduction)

USAGE:
    sommelier <COMMAND> [ARGS]

COMMANDS:
    init   <dir>                        create an empty repository
    seed   <dir> [--series N] [--seed S]
                                        populate with synthetic zoo series
    add    <dir> <model.json> [--key K] publish a model file
    export <dir> <key> <model.json>     write a stored model to a file
    list   <dir>                        list stored model keys
    show   <dir> <key>                  metadata + resource profile
    index  <dir> [--sample N] [--no-segments] [--jobs N]
                                        build and persist the indices
    apply  <dir> [--add FILE]... [--remove KEY]... [--jobs N]
                                        batched mutation of an existing
                                        index: all adds and removes
                                        coalesce into one analysis
                                        fan-out and one snapshot
                                        publication (one epoch bump);
                                        --remove K --add FILE replaces
                                        key K in place
    compact <dir>                       rewrite the index snapshot as
                                        sommelier.index.somb — the binary
                                        format (CRC-checked header, string
                                        table, fixed-size rows):
                                        much faster cold opens; the JSON
                                        original is removed. JSON
                                        repositories keep working unchanged
    query  <dir> <query-text> [--jobs N] [--repeat K]
           [--format text|json]
                                        run a SELECT … CORR … query;
                                        --repeat batches K runs over
                                        --jobs lanes, reporting
                                        per-query latency and epoch
    diff   <dir> <reference> <candidate>
                                        full equivalence explanation
    dot    <dir> <key>                  Graphviz export of the model graph
    lint   <dir> [--format text|json] [--deny SPEC]... [--query Q]
                                        execution-free curation checks;
                                        SPEC is a severity (error|warn|
                                        info), a code (SOM081), or a
                                        range (SOM09x); repeatable
    audit  <dir> [--jobs N] [--format text|json] [--deny SPEC]...
           [--baseline FILE] [--query Q]
                                        deep audit: dataflow analysis
                                        per model (SOM08x) plus the
                                        cross-artifact consistency join
                                        (SOM09x), parallel over --jobs
                                        (default: one lane per core);
                                        --baseline subtracts accepted
                                        findings from a prior JSON run
    fsck   <dir> [--repair] [--prune]   check store integrity: torn or
                                        mis-named files, orphaned temps,
                                        quarantined artifacts, dangling
                                        or orphaned tensor chunks;
                                        --repair cleans temps, quarantines
                                        corrupt files, deletes orphaned
                                        chunks, and rebuilds the index;
                                        --prune deletes quarantined files
                                        (works on its own: without
                                        --repair it only prunes an
                                        earlier run's quarantines)
    dedup  <dir>                        migrate a legacy store's flat
                                        *.model.json files to what
                                        publish writes: manifests over
                                        content-addressed chunks, fine-
                                        tunes (metadata key 'base') as
                                        sparse deltas against their base
    serve  <dir> [--addr A] [--workers N] [--queue-depth D]
           [--tenants FILE] [--jobs N]
                                        long-running TCP query daemon
                                        (line-delimited JSON protocol):
                                        one engine, per-connection
                                        snapshot readers, bounded
                                        admission with typed load-shed,
                                        optional per-tenant token-bucket
                                        quotas; prints `listening on
                                        ADDR` once ready
    client <addr> <op> [args] [--auth KEY]
                                        one-shot protocol client; op is
                                        ping | query <text> |
                                        batch <text>... | fsck |
                                        metrics | reload | shutdown;
                                        prints the JSON reply
    help                                print this message

Queries use the paper's Figure 7 syntax, e.g.:
    SELECT models 3 CORR resnetish-50 ON memory <= 80% WITHIN 0.5 ORDER BY similarity
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match command {
        "init" => commands::init(rest),
        "seed" => commands::seed(rest),
        "add" => commands::add(rest),
        "export" => commands::export(rest),
        "list" => commands::list(rest),
        "show" => commands::show(rest),
        "index" => commands::index(rest),
        "apply" => commands::apply(rest),
        "compact" => commands::compact(rest),
        "query" => commands::query(rest),
        "diff" => commands::diff(rest),
        "dot" => commands::dot(rest),
        "lint" => commands::lint(rest),
        "audit" => commands::audit(rest),
        "fsck" => commands::fsck(rest),
        "dedup" => commands::dedup(rest),
        "serve" => commands::serve(rest),
        "client" => commands::client(rest),
        "help" | "--help" | "-h" => emit(format_args!("{USAGE}")),
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
