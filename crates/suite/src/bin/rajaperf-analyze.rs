//! `rajaperf-analyze`: Thicket-style analysis over a directory of
//! `.cali.json` profiles — the command-line face of the paper's §II-D
//! analysis workflow.
//!
//! ```text
//! rajaperf-analyze <dir|file.tkt> [--groupby KEY] [--metric COLUMN]
//!                  [--tree] [--csv] [--save-tkt FILE]
//! ```
//!
//! The input is either a directory of `.cali.json` profiles or a chunked
//! columnar `.tkt` snapshot written by a previous `--save-tkt` run —
//! reopening a snapshot skips JSON parsing entirely.
//!
//! Corrupt or truncated profiles (e.g. torn by a mid-write kill) are skipped
//! with a warning rather than aborting the composition; the exit codes match
//! `rajaperf` ([`SuiteExit`]): 0 success, 1 internal error, 2 usage error,
//! and a closed stdout ends the report, never the run.

use suite::{out, outln, SuiteExit};
use thicket::Thicket;

const USAGE: &str = "usage: rajaperf-analyze <profile-dir|file.tkt> [--groupby KEY] \
                     [--metric COLUMN] [--tree] [--csv] [--save-tkt FILE]";

/// A usage error: the problem, the usage line, exit 2.
fn usage_error(problem: &str) -> ! {
    eprintln!("error: {problem}\n{USAGE}");
    SuiteExit::Usage.exit()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help") {
        eprintln!("{USAGE}");
        return;
    }
    let Some(dir) = args.first().map(std::path::Path::new) else {
        usage_error("no profile directory or .tkt file given");
    };
    let mut groupby: Option<String> = None;
    let mut metric = "avg#time.duration".to_string();
    let mut show_tree = false;
    let mut show_csv = false;
    let mut save_tkt: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        let mut value = || match it.next() {
            Some(v) => v.clone(),
            None => usage_error(&format!("{a} needs a value")),
        };
        match a.as_str() {
            "--groupby" => groupby = Some(value()),
            "--metric" => metric = value(),
            "--tree" => show_tree = true,
            "--csv" => show_csv = true,
            "--save-tkt" => save_tkt = Some(value()),
            other => usage_error(&format!("unknown option {other}")),
        }
    }

    let mut tk = if dir.is_file() && dir.extension().is_some_and(|e| e == "tkt") {
        // Reopen a columnar snapshot: no JSON parsing, no re-composition.
        match Thicket::read_tkt(dir) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot open {}: {e}", dir.display());
                SuiteExit::Internal.exit();
            }
        }
    } else {
        // Ingestion itself tolerates (and reports) unreadable or malformed
        // files; only an unreadable directory stops here.
        let paths = match thicket::profile_paths(dir) {
            Ok(paths) => paths,
            Err(e) => {
                eprintln!("cannot read {}: {e}", dir.display());
                SuiteExit::Internal.exit();
            }
        };
        let (tk, stats) = Thicket::from_files(&paths);
        // Each reason already begins with its file's path.
        for (_, reason) in &stats.skipped {
            eprintln!("warning: skipping {reason}");
        }
        if stats.warnings() > 0 {
            eprintln!(
                "warning: {} of {} profile(s) skipped as unreadable or malformed",
                stats.warnings(),
                paths.len()
            );
        }
        if stats.ingested == 0 {
            eprintln!("no usable .cali.json profiles found in {}", dir.display());
            SuiteExit::Internal.exit();
        }
        tk
    };
    if let Err(problem) = tk.require_column(&metric) {
        usage_error(&problem);
    }
    outln!(
        "composed {} profiles, {} call-tree nodes, {} metric columns",
        tk.profiles.len(),
        tk.nodes.len(),
        tk.column_names().len()
    );

    if let Some(key) = groupby {
        outln!("\ngroups by '{key}':");
        for (value, ids) in tk.group_profiles(&key) {
            outln!("  {key}={value}: {} profiles", ids.len());
        }
    }

    outln!("\n{:<40} {:>14} {:>14} {:>14}", "node", "mean", "min", "max");
    for row in tk.statsframe(&metric) {
        outln!(
            "{:<40} {:>14.6e} {:>14.6e} {:>14.6e}",
            row.node, row.mean, row.min, row.max
        );
    }

    if show_tree {
        outln!("\ncall tree ({metric}, mean over profiles):");
        out!("{}", tk.tree(&metric));
    }
    if show_csv {
        out!("{}", tk.to_csv());
    }
    if let Some(out) = save_tkt {
        if let Err(e) = tk.write_tkt(std::path::Path::new(&out)) {
            eprintln!("cannot write {out}: {e}");
            SuiteExit::Internal.exit();
        }
        outln!("\nsaved columnar snapshot to {out}");
    }
}
