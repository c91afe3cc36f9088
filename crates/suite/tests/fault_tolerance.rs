//! Fault-tolerance integration tests: per-kernel isolation, deterministic
//! retry under injected transient failures, exit codes, and crash-safe
//! `--sweep` resume after a `kill -9`.
//!
//! In-process tests arm simfault through `run_suite`, each on its own test
//! thread; end-to-end tests drive the built `rajaperf` binary in child
//! processes.

use std::path::Path;
use std::process::Command;
use std::time::Duration;

use suite::{run_suite, KernelOutcome, RunParams, Selection};

fn base_params(kernels: &[&str]) -> RunParams {
    RunParams {
        selection: Selection::Kernels(kernels.iter().map(|s| s.to_string()).collect()),
        explicit_size: Some(1000),
        explicit_reps: Some(2),
        ..RunParams::default()
    }
}

// ---------------------------------------------------------------------------
// In-process: isolation and retry determinism
// ---------------------------------------------------------------------------

#[test]
fn panicking_fixture_is_isolated_and_rest_of_selection_completes() {
    let params = base_params(&["Basic_DAXPY", "Fixture_PANIC"]);
    let report = run_suite(&params);

    // The panic was contained: the healthy kernel still produced a timing
    // entry, the crashed one produced an outcome but no entry.
    assert_eq!(report.entries.len(), 1);
    assert_eq!(report.entries[0].kernel, "Basic_DAXPY");
    assert_eq!(report.outcomes.len(), 2);
    assert!(report.outcome("Basic_DAXPY").unwrap().is_pass());
    match report.outcome("Fixture_PANIC").unwrap() {
        KernelOutcome::Failed { message, retries } => {
            assert!(
                message.contains("Fixture_PANIC crashed deliberately"),
                "unexpected failure message: {message}"
            );
            // A genuine (non-simfault) panic must never be retried.
            assert_eq!(*retries, 0);
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    assert!(!report.all_passed());
    assert_eq!(report.failed_count(), 1);
}

#[test]
fn flaky_fixture_retries_until_success_deterministically() {
    let mut params = base_params(&["Fixture_FLAKY"]);
    params.faults = Some("fixture.flaky=err:0.6,seed=5".to_string());
    params.max_retries = 16;
    params.retry_backoff = Duration::from_millis(1);

    let run = || {
        let report = run_suite(&params);
        match report.outcome("Fixture_FLAKY").unwrap() {
            KernelOutcome::Passed { retries } => (*retries, report.entries.len()),
            other => panic!("expected eventual pass, got {other:?}"),
        }
    };
    let (retries_a, entries_a) = run();
    let (retries_b, entries_b) = run();

    // install_spec resets the draw counters, so the same seeded spec replays
    // the identical failure/success sequence on every run.
    assert_eq!(retries_a, retries_b, "retry count must be deterministic");
    assert_eq!((entries_a, entries_b), (1, 1));
    assert!(retries_a > 0, "rate 0.6 at seed 5 should fail at least once");
}

#[test]
fn retry_budget_exhaustion_reports_transient_failure() {
    let mut params = base_params(&["Fixture_FLAKY"]);
    // Rate 1.0: every attempt fails; the budget must run out.
    params.faults = Some("fixture.flaky=err:1.0,seed=1".to_string());
    params.max_retries = 2;
    params.retry_backoff = Duration::from_millis(1);
    let report = run_suite(&params);
    match report.outcome("Fixture_FLAKY").unwrap() {
        KernelOutcome::Failed { message, retries } => {
            assert_eq!(*retries, 2);
            assert!(message.starts_with("simfault:"), "{message}");
        }
        other => panic!("expected Failed after budget exhaustion, got {other:?}"),
    }
    assert!(report.entries.is_empty());
}

#[test]
fn kernel_scoped_fault_reaches_the_watchdog_thread() {
    // Under --timeout each attempt runs on a spawned watchdog thread, which
    // must draw from the runner's fault world under the runner's per-kernel
    // scope label: TRIAD's launches fail, DAXPY's do not.
    let mut params = base_params(&["Stream_TRIAD", "Basic_DAXPY"]);
    params.variant = kernels::VariantId::BaseSimGpu;
    params.timeout = Some(Duration::from_secs(30));
    params.faults = Some("gpusim.launch@Stream_TRIAD=panic:1.0,seed=1".to_string());
    let report = run_suite(&params);
    match report.outcome("Stream_TRIAD").unwrap() {
        KernelOutcome::Failed { message, .. } => {
            assert!(message.starts_with("simfault:"), "{message}")
        }
        other => panic!("expected the injected launch panic, got {other:?}"),
    }
    assert!(report.outcome("Basic_DAXPY").unwrap().is_pass());
    let injected = &report.profile.globals["fault.injected_total"];
    assert_eq!(injected.as_i64(), Some(1));
}

// ---------------------------------------------------------------------------
// End-to-end: the rajaperf binary
// ---------------------------------------------------------------------------

fn rajaperf() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rajaperf"))
}

fn outcome_section(stdout: &str) -> &str {
    let start = stdout
        .find("Kernel outcomes")
        .expect("stdout should contain an outcome section");
    &stdout[start..]
}

#[test]
fn e2e_injected_panic_fails_one_kernel_and_exits_partial_failure() {
    let out = rajaperf()
        .args([
            "--kernels",
            "Stream_TRIAD,Basic_DAXPY",
            "--variant",
            "Base_SimGpu",
            "--size",
            "1000",
            "--reps",
            "2",
            "--faults",
            "gpusim.launch@Stream_TRIAD=panic:1.0,seed=1",
        ])
        .output()
        .expect("spawn rajaperf");
    assert_eq!(out.status.code(), Some(5), "kernel failures must exit 5");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let section = outcome_section(&stdout);
    assert!(section.contains("Stream_TRIAD"));
    assert!(section.contains("FAILED"));
    assert!(section.contains("1 failed"), "section: {section}");
    // The healthy kernel still ran to completion.
    assert!(section.contains("1 passed"), "section: {section}");
}

#[test]
fn e2e_same_seed_reproduces_identical_outcome_set() {
    let run = || {
        let out = rajaperf()
            .args([
                "--groups",
                "Stream",
                "--variant",
                "Base_SimGpu",
                "--size",
                "1000",
                "--reps",
                "2",
                "--faults",
                "gpusim.launch=panic:0.1,seed=7",
            ])
            .output()
            .expect("spawn rajaperf");
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let (a, b) = (run(), run());
    assert_eq!(
        outcome_section(&a),
        outcome_section(&b),
        "same seed must reproduce the identical outcome set"
    );
}

#[test]
fn e2e_simfault_env_is_picked_up_and_validated() {
    let out = rajaperf()
        .args([
            "--kernels",
            "Basic_DAXPY",
            "--variant",
            "Base_SimGpu",
            "--size",
            "1000",
            "--reps",
            "2",
        ])
        .env("SIMFAULT", "gpusim.launch=panic:1.0,seed=1")
        .output()
        .expect("spawn rajaperf");
    assert_eq!(out.status.code(), Some(5));

    let bad = rajaperf()
        .args(["--kernels", "Basic_DAXPY"])
        .env("SIMFAULT", "no.such.point=panic")
        .output()
        .expect("spawn rajaperf");
    assert_eq!(bad.status.code(), Some(2), "unknown failpoint is a usage error");
}

#[test]
fn e2e_usage_error_exits_2() {
    // The second line: a Caliper spec naming no service used to run the
    // whole suite, warn once and exit 0 without a profile.
    for args in [
        &["--no-such-flag"][..],
        &["--kernels", "Basic_DAXPY", "--caliper", "sp0t(output=x.json)"],
    ] {
        let out = rajaperf().args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("rajaperf [options]"), "usage text: {stderr}");
        assert!(out.stdout.is_empty(), "no kernel may have run for {args:?}");
    }
    // `rajaperf-analyze` used to ignore a valued flag given no value and
    // exit 0 having analysed something else than was asked.
    for flag in ["--metric", "--groupby", "--save-tkt", "--no-such-flag"] {
        let mut analyze = Command::new(env!("CARGO_BIN_EXE_rajaperf-analyze"));
        let out = analyze.args([".", flag]).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: rajaperf-analyze"), "{stderr}");
        assert!(out.stdout.is_empty(), "{flag} analysed something");
    }
    // A misspelt metric used to print an empty table and exit 0; `--help`
    // anywhere but first used to be an unknown option.
    let dir = temp_dir("metric");
    let spec = format!("spot(output={})", dir.join("run.cali.json").display());
    let run = rajaperf()
        .args(["--kernels", "Basic_DAXPY", "--size", "1000", "--reps", "1"])
        .args(["--caliper", &spec])
        .output()
        .expect("spawn");
    assert_eq!(run.status.code(), Some(0), "corpus run");
    for (flags, code, expect) in [
        (&["--metric", "nope"][..], 2, "available: "),
        (&["--metric", "avg#time.duration", "--help"], 0, "usage: rajaperf-analyze"),
    ] {
        let mut analyze = Command::new(env!("CARGO_BIN_EXE_rajaperf-analyze"));
        let out = analyze.arg(&dir).args(flags).output().expect("spawn");
        assert_eq!(out.status.code(), Some(code), "{flags:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expect), "{flags:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flags:?} printed a table");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bit flipped into a checksum's exponent makes it non-finite, which the
/// profile spells `null` (`--faults 'gpusim.ecc=flip:1.0,seed=5'` did, in
/// `Checksum` and its three aggregates). That one cell used to make the
/// whole profile `malformed`: the run's other 75 kernels were discarded and,
/// in a `--sweep --faults gpusim.ecc=…` campaign, its cell silently left the
/// composition. Whichever seeds flip one: every run's profile composes.
#[test]
fn e2e_an_ecc_flipped_checksum_does_not_lose_the_runs_profile() {
    let dir = temp_dir("ecc");
    let mut with_null = 0;
    for seed in 1..=8 {
        let profile = dir.join(format!("seed{seed}.cali.json"));
        let run = rajaperf()
            .args(["--variant", "RAJA_SimGpu", "--size", "500", "--reps", "1"])
            .args(["--faults", &format!("gpusim.ecc=flip:1.0,seed={seed}")])
            .args(["--caliper", &format!("spot(output={})", profile.display())])
            .output()
            .expect("spawn rajaperf");
        assert!(run.status.code().is_some(), "seed {seed} died");
        let text = std::fs::read_to_string(&profile).expect("the run's profile");
        with_null += usize::from(text.contains(": null"));
    }
    let mut analyze = Command::new(env!("CARGO_BIN_EXE_rajaperf-analyze"));
    let out = analyze.arg(&dir).output().expect("spawn rajaperf-analyze");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(0), "{with_null} with a null: {stderr}");
    assert!(stdout.starts_with("composed 8 profiles,"), "{with_null} with a null: {stdout}");
    assert!(!stderr.contains("skipping"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// End-to-end: crash-safe sweep resume
// ---------------------------------------------------------------------------

fn sweep_args() -> Vec<&'static str> {
    vec![
        "--sweep",
        "--sweep-dir",
        "sweep",
        "--kernels",
        "Basic_DAXPY",
        "--size",
        "1000",
        "--reps",
        "2",
        // Slow every kernel execution down deterministically so the kill
        // reliably lands mid-sweep; stalls never fail anything.
        "--faults",
        "suite.kernel=stall(80),seed=1",
    ]
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rajaperf-fault-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn e2e_killed_sweep_resumes_to_identical_manifest() {
    let interrupted = temp_dir("kill");
    let fresh = temp_dir("fresh");

    // Start a sweep and kill -9 it mid-run.
    let mut child = rajaperf()
        .args(sweep_args())
        .current_dir(&interrupted)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn sweep");
    std::thread::sleep(Duration::from_millis(200));
    child.kill().expect("kill -9 the sweep");
    let _ = child.wait();

    // Resume: must complete, reusing whatever intact cells survived.
    let resumed = rajaperf()
        .args(sweep_args())
        .current_dir(&interrupted)
        .output()
        .expect("resume sweep");
    assert!(resumed.status.success(), "resumed sweep must succeed");

    // Reference: the same sweep, uninterrupted, from a sibling directory.
    // Relative --sweep-dir keeps every path in the manifest relative, so the
    // two manifests are byte-comparable.
    let reference = rajaperf()
        .args(sweep_args())
        .current_dir(&fresh)
        .output()
        .expect("uninterrupted sweep");
    assert!(reference.status.success());

    let a = std::fs::read(interrupted.join("sweep/manifest.json")).unwrap();
    let b = std::fs::read(fresh.join("sweep/manifest.json")).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&a),
        String::from_utf8_lossy(&b),
        "resumed manifest must be byte-identical to an uninterrupted run"
    );

    // No torn temp files may survive anywhere in the sweep tree.
    assert!(!tree_has_tmp(&interrupted.join("sweep")));

    let _ = std::fs::remove_dir_all(&interrupted);
    let _ = std::fs::remove_dir_all(&fresh);
}

fn tree_has_tmp(dir: &Path) -> bool {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return false;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if tree_has_tmp(&p) {
                return true;
            }
        } else if p.file_name().is_some_and(|n| n.to_string_lossy().contains(".tmp.")) {
            return true;
        }
    }
    false
}

#[test]
fn e2e_corrupt_sweep_cell_is_quarantined_and_rerun() {
    let dir = temp_dir("quarantine");
    let args: Vec<&str> = vec![
        "--sweep",
        "--sweep-dir",
        "sweep",
        "--kernels",
        "Basic_DAXPY",
        "--size",
        "1000",
        "--reps",
        "2",
    ];

    let first = rajaperf().args(&args).current_dir(&dir).output().unwrap();
    assert!(first.status.success());
    let manifest_before = std::fs::read_to_string(dir.join("sweep/manifest.json")).unwrap();

    // Tear one cell record and one *other* cell's profile, as a mid-write
    // kill of a non-atomic writer would have.
    let cells = dir.join("sweep/cells");
    let torn_cell = cells.join("Base_Seq.block_256.json");
    let full = std::fs::read_to_string(&torn_cell).unwrap();
    std::fs::write(&torn_cell, &full[..full.len() / 3]).unwrap();
    let torn_profile = dir.join("sweep/profiles/Base_Par.block_256.cali.json");
    let full_profile = std::fs::read_to_string(&torn_profile).unwrap();
    std::fs::write(&torn_profile, &full_profile[..full_profile.len() / 2]).unwrap();

    let second = rajaperf().args(&args).current_dir(&dir).output().unwrap();
    assert!(second.status.success());
    let stdout = String::from_utf8_lossy(&second.stdout);
    assert!(
        stdout.contains("quarantined"),
        "summary must report quarantined files: {stdout}"
    );

    // Corrupt files were moved aside (cell record + profile + the record
    // that vouched for the torn profile), the cells re-ran, and the
    // manifest is whole again.
    let quarantine = dir.join("sweep/quarantine");
    let quarantined: Vec<_> = std::fs::read_dir(&quarantine)
        .expect("quarantine directory must exist")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(quarantined.iter().any(|n| n == "Base_Seq.block_256.json"));
    assert!(quarantined.iter().any(|n| n == "Base_Par.block_256.cali.json"));
    let manifest_after = std::fs::read_to_string(dir.join("sweep/manifest.json")).unwrap();
    assert_eq!(manifest_before, manifest_after);
    // The re-run cells rewrote intact files.
    let reparsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&torn_cell).unwrap()).unwrap();
    assert!(reparsed.get("key").is_some());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn e2e_deep_nested_cell_profile_is_quarantined_and_its_cell_rerun() {
    // `[[[[…` where a cached cell's profile (and another cell's record)
    // should be: the warm scan's parse used to recurse once per bracket and
    // abort the whole sweep on the stack guard page. It is a corrupt file
    // like any other — quarantined, its cell re-run, the manifest whole.
    let dir = temp_dir("deep");
    let args = "--sweep --sweep-dir sweep --kernels Basic_DAXPY --size 1000 --reps 2";
    let sweep = || {
        let args = args.split(' ');
        rajaperf().args(args).current_dir(&dir).output().unwrap()
    };

    assert!(sweep().status.success());
    let manifest_before = std::fs::read_to_string(dir.join("sweep/manifest.json")).unwrap();
    let deep = "[".repeat(300_000);
    let victims = ["profiles/Base_Par.block_256.cali.json", "cells/Base_Seq.block_256.json"];
    for victim in victims {
        std::fs::write(dir.join("sweep").join(victim), &deep).unwrap();
    }

    let second = sweep();
    assert!(second.status.success(), "{:?}", second.status);
    let stdout = String::from_utf8_lossy(&second.stdout);
    assert!(
        stdout.contains("(4 cached, 3 corrupt file(s) quarantined)"),
        "{stdout}"
    );
    let quarantined = |name: &str| dir.join("sweep/quarantine").join(name).exists();
    assert!(quarantined("Base_Par.block_256.cali.json"));
    assert!(quarantined("Base_Par.block_256.json"));
    assert!(quarantined("Base_Seq.block_256.json"));
    let manifest_after = std::fs::read_to_string(dir.join("sweep/manifest.json")).unwrap();
    assert_eq!(manifest_before, manifest_after);
    assert!(String::from_utf8_lossy(&sweep().stdout).contains("(6 cached)"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn e2e_duplicate_sweep_block_sizes_are_one_cell_each() {
    // Regression: `64,64` planned 12 cells over 6 file names, so two cells
    // (two ranks, under --ranks 2) wrote each profile and each cell record.
    let sweep = |tag: &str, sizes: &str| {
        let dir = temp_dir(tag);
        let out = rajaperf()
            .args(["--sweep", "--sweep-dir", "D", "--sweep-block-sizes", sizes])
            .args(["--kernels", "Basic_DAXPY", "--size", "1000", "--reps", "1"])
            .current_dir(&dir)
            .output()
            .expect("spawn sweep");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(stdout.contains("Sweep: 6 cells (0 cached"), "{sizes}: {stdout}");
        let profiles = std::fs::read_dir(dir.join("D/profiles")).unwrap().count();
        assert_eq!(profiles, 6, "{sizes}: one profile per cell");
        let manifest = std::fs::read(dir.join("D/manifest.json")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        manifest
    };
    assert!(sweep("dup", "64,64") == sweep("single", "64"), "manifests differ");
}

#[test]
fn e2e_sweep_cells_do_not_answer_for_another_execution_policy() {
    // Regression: the cell key left out --retries / --timeout / --sanitize,
    // so cells that FAILED with no retry budget were served "(cached)" to a
    // sweep run with one — a matrix holding answers to a different question.
    let dir = temp_dir("policy");
    let sweep = |extra: &[&str]| {
        let out = rajaperf()
            .args(["--sweep", "--sweep-dir", "D"])
            .args(["--kernels", "Basic_DAXPY,Stream_TRIAD"])
            .args(["--size", "1000", "--reps", "1"])
            .args(["--faults", "suite.kernel=err:0.5,seed=3"])
            .args(extra)
            .current_dir(&dir)
            .output()
            .expect("spawn sweep");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    let first = sweep(&[]);
    assert!(first.contains("Sweep: 6 cells (0 cached"), "{first}");
    assert!(first.contains("Basic_DAXPY FAILED"), "{first}");

    // Same directory, a retry budget that absorbs every injected error:
    // nothing may be reused, and nothing fails.
    let retried = sweep(&["--retries", "5"]);
    assert!(retried.contains("Sweep: 6 cells (0 cached"), "{retried}");
    assert!(!retried.contains("FAILED"), "{retried}");

    // Unchanged flags: now every cell is this question's own answer.
    let again = sweep(&["--retries", "5"]);
    assert!(again.contains("Sweep: 6 cells (6 cached"), "{again}");
    assert!(!again.contains("FAILED"), "{again}");

    let _ = std::fs::remove_dir_all(&dir);
}
