//! Ranked campaign tests (`--sweep --ranks N`, either `--rank-isolation`).
//!
//! One engine, two carriers: the shared cases loop over [`MODES`] —
//! manifest byte-identity against the committed golden, seeded-fault
//! determinism independent of rank assignment, restart-budget exhaustion
//! (graceful degradation + casualty report), in-process stats and
//! attribution. What only a process boundary can show stays process-only:
//! kill -9 of one child (supervised restart, same run), kill -9 of the
//! parent (orphan-free, byte-identical resume under the *other* mode), and
//! the child-usage-exit → parent-exit-2 decoding.
//!
//! Sweep-running tests drive the built `rajaperf` binary with a *relative*
//! `--sweep-dir`, so manifests from different directories are
//! byte-comparable; children inherit the parent's working directory, so
//! supervisor and workers agree on every relative path.

use simsched::time::Instant;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

const PROCESS: &[&str] = &["--rank-isolation", "process"];

/// `(name, extra CLI args)` per isolation mode.
const MODES: [(&str, &[&str]); 2] = [("threads", &[]), ("process", PROCESS)];

/// `rajaperf --sweep --kernels Basic_DAXPY --size 1000 --reps 1
/// --sweep-block-sizes 128,256 --sweep-dir sweep`, as run by the parent of
/// the commit that unified the rank executors.
const GOLDEN: &str = include_str!("golden/manifest.json");

fn rajaperf() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rajaperf"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rajaperf-ranked-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The golden's 12-cell grid (every variant × two block-size tunings, one
/// kernel) plus `extra` argument groups.
fn grid_args(extra: &[&[&str]]) -> Vec<String> {
    let base = [
        "--sweep",
        "--kernels",
        "Basic_DAXPY",
        "--size",
        "1000",
        "--reps",
        "1",
        "--sweep-block-sizes",
        "128,256",
        "--sweep-dir",
        "sweep",
    ];
    let extra = extra.iter().flat_map(|group| group.iter());
    base.iter().chain(extra).map(|s| s.to_string()).collect()
}

/// Deterministic stalls widen kill and restart windows without failing
/// anything, so the manifest stays clean.
const STALL: &[&str] = &["--faults", "suite.kernel=stall(120),seed=1"];

fn run_sweep_in(dir: &Path, args: &[String]) -> std::process::Output {
    rajaperf()
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run rajaperf sweep")
}

fn manifest_bytes(dir: &Path) -> String {
    String::from_utf8_lossy(&std::fs::read(dir.join("sweep/manifest.json")).unwrap()).into_owned()
}

/// The manifest of a fresh, undisturbed `--ranks 1` run with `extra` args.
fn single_rank_reference(tag: &str, extra: &[&str]) -> String {
    let dir = temp_dir(tag);
    let out = run_sweep_in(&dir, &grid_args(&[extra, &["--ranks", "1"]]));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let manifest = manifest_bytes(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    manifest
}

fn tree_has_tmp(dir: &Path) -> bool {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .any(|e| {
            let p = e.path();
            if p.is_dir() {
                tree_has_tmp(&p)
            } else {
                p.file_name()
                    .is_some_and(|n| n.to_string_lossy().contains(".tmp."))
            }
        })
}

/// Live `--rank-worker` processes, optionally restricted to children of
/// `parent` (pass `None` after the parent is dead — orphans reparent).
fn worker_pids(parent: Option<u32>) -> Vec<u32> {
    let mut out = Vec::new();
    for e in std::fs::read_dir("/proc").into_iter().flatten().flatten() {
        let Some(pid) = e.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(cmdline) = std::fs::read(format!("/proc/{pid}/cmdline")) else {
            continue;
        };
        if !String::from_utf8_lossy(&cmdline).contains("--rank-worker") {
            continue;
        }
        if let Some(ppid_want) = parent {
            // /proc/<pid>/stat: pid (comm) state ppid ... — comm is
            // parenthesized and may hold spaces, so split after the ')'.
            let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
                continue;
            };
            let after = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
            let ppid: Option<u32> = after.split_whitespace().nth(1).and_then(|s| s.parse().ok());
            if ppid != Some(ppid_want) {
                continue;
            }
        }
        out.push(pid);
    }
    out
}

fn kill9(pid: u32) {
    let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
}

/// Poll until `f` returns `Some`, up to `limit`.
fn wait_for<T>(limit: Duration, mut f: impl FnMut() -> Option<T>) -> Option<T> {
    let start = Instant::now();
    loop {
        if let Some(v) = f() {
            return Some(v);
        }
        if start.elapsed() > limit {
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn e2e_every_mode_and_rank_count_reproduces_the_golden_manifest() {
    let runs: [&[&str]; 5] = [
        &["--ranks", "1"],
        &["--ranks", "2"],
        &["--ranks", "2", "--rank-isolation", "process"],
        &["--ranks", "4"],
        &["--ranks", "4", "--rank-isolation", "process"],
    ];
    for (i, ranks) in runs.iter().enumerate() {
        let dir = temp_dir(&format!("golden{i}"));
        let out = run_sweep_in(&dir, &grid_args(&[ranks]));
        assert!(
            out.status.success(),
            "{ranks:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            manifest_bytes(&dir),
            GOLDEN,
            "{ranks:?} must gather into the committed (pre-unification, --ranks 1) manifest"
        );
        // Sharding must not change how many cells the grid has: 6 variants
        // × 2 block sizes, every one with its own profile on disk.
        let profiles = std::fs::read_dir(dir.join("sweep/profiles"))
            .unwrap()
            .count();
        assert_eq!(profiles, 12, "{ranks:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn e2e_seeded_faults_replay_identically_at_any_rank_count() {
    // A seeded spec that *fails* kernels: the failures land in the manifest
    // (failed_kernels are cell facts), so byte-identity across rank counts
    // proves fault replay does not depend on rank assignment — rank-parallel
    // in both modes, each cell arming its own fault world.
    // Three kernels per cell, so each cell draws a sequence (some kernels
    // fail, some pass) rather than one all-or-nothing draw.
    let faults: &[&str] = &[
        "--kernels",
        "Stream_TRIAD,Stream_ADD",
        "--faults",
        "suite.kernel=panic:0.5,seed=5",
    ];
    let single = temp_dir("f1");
    let a = run_sweep_in(&single, &grid_args(&[faults, &["--ranks", "1"]]));
    let reference = manifest_bytes(&single);
    assert!(
        a.status.code() == Some(5) && reference.contains("\"status\": \"FAILED\""),
        "spec should have failed at least one kernel to make the comparison meaningful"
    );
    for (mode, isolation) in MODES {
        let ranked = temp_dir(&format!("f4-{mode}"));
        let b = run_sweep_in(&ranked, &grid_args(&[faults, isolation, &["--ranks", "4"]]));
        // Injected kernel failures exit with the partial-failure code; both
        // runs must agree on it too.
        assert_eq!(
            a.status.code(),
            b.status.code(),
            "{mode}: {}",
            String::from_utf8_lossy(&b.stderr)
        );
        assert_eq!(
            reference,
            manifest_bytes(&ranked),
            "{mode}: seeded faults must replay identically regardless of executing rank"
        );
        let _ = std::fs::remove_dir_all(&ranked);
    }
    let _ = std::fs::remove_dir_all(&single);
}

#[test]
fn e2e_restart_budget_exhaustion_redistributes_and_reports_casualty() {
    let reference = single_rank_reference("budget-ref", STALL);
    for (mode, isolation) in MODES {
        let dir = temp_dir(&format!("budget-{mode}"));
        // Rank 2 panics at boot, every incarnation: initial boot + 1 restart
        // exhausts --rank-restarts 1, so it retires and the survivors take
        // every cell from the one queue (a cell a dead rank held goes back
        // to its front; the stalls keep them busy past the restart cycle).
        // The campaign must still complete cleanly.
        let args = grid_args(&[STALL, isolation, &["--ranks", "3", "--rank-restarts", "1"]]);
        let out = rajaperf()
            .args(args)
            .env("RAJAPERF_TEST_WORKER_ABORT_RANK", "2")
            .current_dir(&dir)
            .output()
            .expect("run degraded campaign");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{mode}: budget exhaustion must degrade, not fail: {stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        for needle in [
            "Casualties (cells redistributed to surviving ranks):",
            "rank 2: retired after 1 restart(s); last failure: panicked",
            "respawn 1/1",
        ] {
            assert!(
                stdout.contains(needle),
                "{mode}: missing '{needle}':\n{stdout}"
            );
        }
        assert_eq!(
            manifest_bytes(&dir),
            reference,
            "{mode}: a degraded campaign's manifest must still match the single-rank run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn e2e_killed_ranked_sweep_resumes_to_identical_manifest() {
    let interrupted = temp_dir("kill");
    let faulty = grid_args(&[STALL, &["--ranks", "4"]]);
    let mut child = rajaperf()
        .args(&faulty)
        .current_dir(&interrupted)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ranked sweep");
    std::thread::sleep(Duration::from_millis(300));
    child.kill().expect("kill -9 the ranked sweep");
    let _ = child.wait();

    // Resume at the same rank count: intact cells are reused, the
    // casualties re-run.
    let resumed = run_sweep_in(&interrupted, &faulty);
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        manifest_bytes(&interrupted),
        single_rank_reference("kill-ref", STALL),
        "kill-9 + ranked resume must reproduce the single-rank manifest byte for byte"
    );
    assert!(!tree_has_tmp(&interrupted.join("sweep")));
    let _ = std::fs::remove_dir_all(&interrupted);
}

#[test]
fn e2e_kill9_of_a_child_rank_is_survived_within_the_same_campaign() {
    let dir = temp_dir("childkill");
    let parent = rajaperf()
        .args(grid_args(&[STALL, PROCESS, &["--ranks", "4"]]))
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn process campaign");
    // The relative --sweep-dir keeps the temp dir out of the children's
    // cmdlines, so the parent pid is the campaign discriminator.
    let ppid = parent.id();
    let victim = wait_for(Duration::from_secs(30), || {
        worker_pids(Some(ppid)).first().copied()
    })
    .expect("a child rank worker should appear");
    kill9(victim);

    let out = parent.wait_with_output().expect("campaign completes");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "a signal-killed child must be retried, not abort the campaign: {stdout}"
    );
    assert!(
        stdout.contains("respawn"),
        "the supervisor should report the respawn:\n{stdout}"
    );
    assert!(
        stdout.contains("SIGKILL"),
        "the decoded exit status should name the signal:\n{stdout}"
    );
    assert_eq!(
        manifest_bytes(&dir),
        single_rank_reference("childkill-ref", STALL),
        "kill -9 of a child mid-campaign must not perturb the manifest"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn e2e_kill9_of_the_parent_leaves_no_orphans_and_resumes_byte_identically() {
    let dir = temp_dir("parentkill");
    let mut parent = rajaperf()
        .args(grid_args(&[STALL, PROCESS, &["--ranks", "4"]]))
        .current_dir(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn process campaign");
    let ppid = parent.id();
    wait_for(Duration::from_secs(30), || {
        (worker_pids(Some(ppid)).len() >= 2).then_some(())
    })
    .expect("child rank workers should appear");
    kill9(ppid);
    let _ = parent.wait();

    // Orphan contract: with their supervisor gone, workers see stdin EOF
    // (or EPIPE from the heartbeat) and exit on their own — no leaked
    // children. The stall keeps one mid-cell, so allow it to finish.
    let none_left = wait_for(Duration::from_secs(30), || {
        worker_pids(None).is_empty().then_some(())
    });
    assert!(
        none_left.is_some(),
        "workers must exit after their supervisor is killed: {:?}",
        worker_pids(None)
    );

    // Resume under the *other* isolation mode: intact cells reused, the
    // rest re-run, manifest byte-identical — isolation is not in the key.
    let resumed = run_sweep_in(&dir, &grid_args(&[STALL, &["--ranks", "2"]]));
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        manifest_bytes(&dir),
        single_rank_reference("parentkill-ref", STALL),
        "parent kill + thread-mode resume must reproduce the single-rank manifest"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn e2e_child_usage_exit_decodes_to_parent_usage_exit() {
    let dir = temp_dir("usage");
    // A stand-in worker that rejects any command line: the supervisor must
    // decode its exit 2 as a parameter disagreement and abort with the
    // suite's usage exit — restarting could never fix it.
    let fake = fake_worker(&dir, "echo 'error: unknown flag' >&2\nexit 2");

    let out = rajaperf()
        .args(grid_args(&[PROCESS, &["--ranks", "2"]]))
        .env("RAJAPERF_WORKER_BIN", &fake)
        .current_dir(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "child usage exit must become parent usage exit, not internal (1):\n{stderr}"
    );
    assert!(
        stderr.contains("rejected its command line"),
        "stderr: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stand-in worker for `RAJAPERF_WORKER_BIN`: a shell script.
fn fake_worker(dir: &Path, script: &str) -> PathBuf {
    use std::os::unix::fs::PermissionsExt;
    let fake = dir.join("fake-rajaperf");
    std::fs::write(&fake, format!("#!/bin/sh\n{script}\n")).unwrap();
    std::fs::set_permissions(&fake, std::fs::Permissions::from_mode(0o755)).unwrap();
    fake
}

#[test]
fn e2e_supervisor_ignores_unknown_frames_but_aborts_on_a_malformed_result() {
    let dir = temp_dir("hostile-rank");
    // Forward compatibility: a frame kind this build does not know is
    // skipped. A known kind with a garbage payload is a broken rank.
    let fake = fake_worker(
        &dir,
        r#"echo '{"telemetry":{"rss_mb":12}}'; echo '{"ready":0}'; read assignment
echo '{"result":{"cell":"seven"}}'; read shutdown"#,
    );
    let out = rajaperf()
        .args(grid_args(&[PROCESS]))
        .env("RAJAPERF_WORKER_BIN", &fake)
        .current_dir(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("sweep rank 0 sent a malformed cell result"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn e2e_worker_ignores_frames_it_cannot_read_and_reports_bad_cells() {
    use std::io::Write;
    let dir = temp_dir("hostile-supervisor");
    let mut worker = rajaperf()
        .args(grid_args(&[&["--rank-worker", "0/1"]]))
        .current_dir(&dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn a rank worker");
    // An unknown kind and an unparseable assignment are skipped, an
    // assignment outside the grid is reported (never guessed at), and
    // shutdown wins over the assignment behind it.
    let frames = "{\"pause\":true}\n{\"cell\":\"three\"}\n{\"cell\":99}\n{\"shutdown\":true}\n{\"cell\":0}\n";
    worker
        .stdin
        .take()
        .unwrap()
        .write_all(frames.as_bytes())
        .unwrap();
    let out = worker.wait_with_output().unwrap();
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "{\"ready\":0}\n{\"failed\":{\"cell\":99,\"error\":\"cell index 99 is outside the 12-cell grid\"}}\n"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn e2e_rank_flag_validation_exits_2() {
    let cases: [(&[&str], &str); 3] = [
        // Ranks shard a sweep's grid; there is nothing to shard without one.
        (
            &["--ranks", "4", "--kernels", "Basic_DAXPY", "--size", "1000"],
            "--sweep",
        ),
        (
            &[
                "--rank-isolation",
                "process",
                "--kernels",
                "Basic_DAXPY",
                "--size",
                "1000",
            ],
            "--sweep",
        ),
        (
            &["--sweep", "--rank-isolation", "containers"],
            "unknown rank isolation mode",
        ),
    ];
    for (args, needle) in cases {
        let out = rajaperf().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "usage exit for {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

#[test]
fn thread_ranks_run_fault_armed_cells_in_parallel() {
    use suite::{run_sweep, RunParams, Selection};
    let dir = temp_dir("armed-parallel");
    let stall = Duration::from_millis(400);
    let params = RunParams {
        selection: Selection::Kernels(vec!["Basic_DAXPY".to_string()]),
        explicit_size: Some(1000),
        explicit_reps: Some(1),
        sweep: true,
        sweep_dir: Some(dir.join("sweep")),
        ranks: 4,
        faults: Some(format!("suite.kernel=stall({})", stall.as_millis())),
        ..RunParams::default()
    };
    let start = Instant::now();
    let summary = run_sweep(&params).expect("fault-armed thread campaign succeeds");
    let wall = start.elapsed();
    // One kernel, so one stall, per cell: run one cell at a time (what a
    // process-wide fault state forced) the campaign takes the whole sum.
    let cells = &summary.cells;
    assert!(cells.iter().all(|c| c.kernels_run == 1 && !c.cached));
    let serial = stall * cells.len() as u32;
    assert!(
        wall < serial.mul_f64(0.6),
        "{} stalled cells on 4 thread ranks took {wall:?}; serial stall sum is {serial:?}",
        cells.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ranked_sweep_reports_stats_restarts_and_rank_attribution() {
    use suite::params::RankIsolation;
    use suite::{run_sweep, RunParams, Selection};
    for (mode, rank_isolation) in [
        ("threads", RankIsolation::Threads),
        ("process", RankIsolation::Process),
    ] {
        let dir = temp_dir(&format!("inproc-{mode}"));
        let params = RunParams {
            selection: Selection::Kernels(vec!["Basic_DAXPY".to_string()]),
            explicit_size: Some(1000),
            explicit_reps: Some(1),
            sweep: true,
            sweep_dir: Some(dir.join("sweep")),
            ranks: 2,
            rank_isolation,
            ..RunParams::default()
        };
        let summary = run_sweep(&params).expect("ranked sweep succeeds");

        assert_eq!(summary.rank_stats.len(), 2, "{mode}");
        // Protocol traffic is counted from the rank's side in both modes:
        // every rank at least announced itself ready and received at least
        // one frame (an assignment or the shutdown).
        for s in &summary.rank_stats {
            assert!(s.messages_sent >= 1 && s.bytes_sent > 0, "{mode}: {s:?}");
            assert!(
                s.messages_received >= 1 && s.bytes_received > 0,
                "{mode}: {s:?}"
            );
        }
        assert_eq!(summary.rank_restarts, vec![0, 0], "{mode}");
        assert!(summary.casualties.is_empty(), "{mode}");
        // Every executed (non-cached) cell is attributed to a real rank.
        assert!(summary
            .cells
            .iter()
            .all(|c| c.cached || matches!(c.executed_by, Some(r) if r < 2)));
        assert!(summary.cells.iter().any(|c| !c.cached));

        // A fully cached re-run starts no ranks at all, and the manifest
        // is unchanged.
        let before = std::fs::read(&summary.manifest).unwrap();
        let again = run_sweep(&params).expect("cached sweep succeeds");
        assert!(again.cells.iter().all(|c| c.cached));
        assert!(
            again.rank_stats.is_empty() && again.rank_restarts.is_empty(),
            "{mode}"
        );
        assert_eq!(before, std::fs::read(&again.manifest).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
