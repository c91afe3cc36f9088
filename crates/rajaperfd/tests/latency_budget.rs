//! Time-budget tests for daemon round-trip latency: `#[test]` functions
//! asserting wall-clock thresholds, runnable via `cargo test --release`.
//!
//! Shape follows the repo's performance-testing convention: median-of-3
//! measurement against a fixed budget, with CI-adapted thresholds (3× when
//! `CI=true`) and a further allowance for unoptimized builds. The point is
//! catching order-of-magnitude service regressions (an accept loop that
//! stalls, a store hit that re-executes kernels), not microbenchmarking —
//! that is what the ledger (`benchmark/run.sh`) is for.

use rajaperfd::{protocol::Request, Daemon, DaemonConfig};
use std::path::PathBuf;
use std::time::Duration;

/// Budget scaling: shared CI runners are noisy (3×), and debug builds run
/// the whole stack unoptimized (10×).
fn scaled(base: Duration) -> Duration {
    let mut budget = base;
    if std::env::var("CI").is_ok_and(|v| v == "true" || v == "1") {
        budget *= 3;
    }
    if cfg!(debug_assertions) {
        budget *= 10;
    }
    budget
}

/// Median wall time of three runs of `op`.
fn median_of_3(mut op: impl FnMut()) -> Duration {
    let mut samples: Vec<Duration> = (0..3)
        .map(|_| {
            // Budget tests measure real wall-clock by design; the virtual
            // clock shim would hide exactly the stalls this guards against.
            #[allow(clippy::disallowed_methods)]
            let start = std::time::Instant::now();
            op();
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[1]
}

fn start_daemon(tag: &str) -> (Daemon, PathBuf) {
    let root = std::env::temp_dir().join(format!("rajaperfd_lat_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let daemon = Daemon::start(DaemonConfig {
        socket: root.join("d.sock"),
        store_dir: root.join("store"),
        queue_capacity: 8,
        workers: 2,
    })
    .expect("daemon starts");
    (daemon, root)
}

fn teardown(daemon: Daemon, root: &PathBuf) {
    let socket = daemon.socket().to_path_buf();
    rajaperfd::submit(&socket, &Request::Shutdown { id: "end".into() }).unwrap();
    daemon.wait().unwrap();
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn ping_round_trip_stays_within_budget() {
    let (daemon, root) = start_daemon("ping");
    let socket = daemon.socket().to_path_buf();
    // Warm-up connection (socket setup, first-touch allocation).
    rajaperfd::submit(&socket, &Request::Ping { id: "warm".into() }).unwrap();

    let budget = scaled(Duration::from_millis(50));
    let median = median_of_3(|| {
        let resp = rajaperfd::submit(&socket, &Request::Ping { id: "p".into() }).unwrap();
        assert_eq!(resp.exit_code, 0);
    });
    assert!(
        median <= budget,
        "ping round-trip median {median:?} exceeds budget {budget:?}"
    );
    teardown(daemon, &root);
}

#[test]
fn store_hit_stays_within_budget() {
    let (daemon, root) = start_daemon("hit");
    let socket = daemon.socket().to_path_buf();
    let req = Request::Run {
        id: "seed".into(),
        argv: ["--kernels", "Basic_DAXPY", "--size", "1000", "--reps", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    };
    // First request measures for real and populates the store.
    let first = rajaperfd::submit(&socket, &req).unwrap();
    assert_eq!(first.exit_code, 0);

    // A store hit is a read + key check + reply — it must be far below
    // kernel-execution time, or the cache is not doing its job.
    let budget = scaled(Duration::from_millis(100));
    let median = median_of_3(|| {
        let resp = rajaperfd::submit(&socket, &req).unwrap();
        assert_eq!(resp.exit_code, 0);
        assert!(resp.cached(), "repeat request must be served from the store");
    });
    assert!(
        median <= budget,
        "store-hit round-trip median {median:?} exceeds budget {budget:?}"
    );
    teardown(daemon, &root);
}
