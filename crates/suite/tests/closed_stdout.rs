//! A reader that closes the binaries' standard output before they write
//! (`| head -1`, `| true`) ends their report, not their run: each exits with
//! the run's own code, never a panic's 101.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Run `bin` with `args` from `cwd`, its stdout a pipe whose read end is
/// already closed: the exit code and what it printed to stderr.
fn with_stdout_closed(bin: &str, args: &[&str], cwd: &Path) -> (Option<i32>, String) {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let child = Command::new(bin)
        .args(args)
        .current_dir(cwd)
        .stdout(writer)
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let out = child.wait_with_output().unwrap();
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rajaperf_closed_stdout_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_closed_stdout_ends_the_report_and_the_exit_code_is_the_runs() {
    let dir = temp_dir();
    let (rajaperf, analyze) = (
        env!("CARGO_BIN_EXE_rajaperf"),
        env!("CARGO_BIN_EXE_rajaperf-analyze"),
    );
    let run = ["--kernels", "Basic_DAXPY", "--size", "1000", "--reps", "1"];
    let sweep = [&run[..], &["--sweep", "--sweep-dir", "sweep"]].concat();
    let cases: [(&str, &[&str], i32); 5] = [
        (rajaperf, &["--list"], 0),
        (rajaperf, &run, 0),
        (rajaperf, &sweep, 0),
        (analyze, &["sweep/profiles", "--groupby", "variant", "--tree"], 0),
        // A run with findings keeps its own code.
        (rajaperf, &[&run[..2], &["--sanitize", "--gpu-block-size", "48"]].concat(), 4),
    ];
    for (bin, args, expected) in cases {
        let (code, stderr) = with_stdout_closed(bin, args, &dir);
        assert_eq!(code, Some(expected), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    assert_eq!(std::fs::read_dir(dir.join("sweep/profiles")).unwrap().count(), 6);
    std::fs::remove_dir_all(&dir).ok();
}
