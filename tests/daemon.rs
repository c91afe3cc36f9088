//! Tier-1 tests for `rajaperfd` under concurrent load: request isolation,
//! content-addressed cache-hit correctness (byte-identical replies on the
//! wire, no kernel re-execution, no untrustworthy object served),
//! bounded-queue admission control, graceful shutdown draining, and the
//! shape of every failed reply.

use rajaperfd::{protocol::Request, Daemon, DaemonConfig, ErrorCode};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// A fresh daemon on its own socket + store under a unique temp dir.
fn start_daemon(tag: &str, queue_capacity: usize, workers: usize) -> (Daemon, PathBuf) {
    let root = std::env::temp_dir().join(format!("rajaperfd_it_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let config = DaemonConfig {
        socket: root.join("d.sock"),
        store_dir: root.join("store"),
        queue_capacity,
        workers,
    };
    let daemon = Daemon::start(config).expect("daemon starts");
    (daemon, root)
}

fn run_request(id: &str, argv: &[&str]) -> Request {
    Request::Run {
        id: id.to_string(),
        argv: argv.iter().map(|s| s.to_string()).collect(),
    }
}

/// One raw line in, every reply line out exactly as the daemon wrote it (it
/// hangs up after `done`). The server stops reading an over-long line and
/// hangs up on the rest, so that write may fail and the stream end in a
/// reset instead of EOF.
fn raw_reply(socket: &Path, line: &str) -> Vec<String> {
    let mut stream = UnixStream::connect(socket).expect("connect");
    let _ = stream.write_all(format!("{line}\n").as_bytes());
    BufReader::new(stream).lines().map_while(Result::ok).collect()
}

/// The reply line carrying event `name`.
fn event_line<'a>(lines: &'a [String], name: &str) -> &'a str {
    let is = |line: &&String| serde_json::from_str::<Value>(line).unwrap()["event"].as_str() == Some(name);
    lines.iter().find(is).unwrap_or_else(|| panic!("no {name} event in {lines:?}"))
}

fn shutdown_and_wait(daemon: Daemon, root: &PathBuf) {
    let socket = daemon.socket().to_path_buf();
    let resp = rajaperfd::submit(&socket, &Request::Shutdown { id: "end".into() })
        .expect("shutdown request reaches daemon");
    assert_eq!(resp.exit_code, 0, "shutdown acknowledges cleanly");
    daemon.wait().expect("daemon drains and exits");
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn concurrent_requests_are_isolated() {
    let (daemon, root) = start_daemon("isolation", 8, 5);
    let socket = daemon.socket().to_path_buf();

    // A fault-armed request first: every kernel it runs stalls 600 ms. Once
    // it is executing, everything below runs beside it.
    let (started_tx, started_rx) = mpsc::channel();
    let stalled_done = Arc::new(AtomicBool::new(false));
    let stalled = {
        let (socket, stalled_done) = (socket.clone(), Arc::clone(&stalled_done));
        let req = run_request(
            "faulty-stall",
            &["--kernels", "Basic_DAXPY", "--size", "1000", "--reps", "2",
              "--faults", "suite.kernel=stall(600),seed=1"],
        );
        std::thread::spawn(move || {
            let resp = rajaperfd::submit_with(&socket, &req, &mut |e: &Value| {
                if e.get("event").and_then(Value::as_str) == Some("started") {
                    let _ = started_tx.send(());
                }
            })
            .expect("stalled request completes");
            stalled_done.store(true, Ordering::SeqCst);
            resp
        })
    };
    started_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("worker picked up the stalled request");

    // Four clients at once: two healthy runs, one that panics, one that
    // hangs until the watchdog cuts it loose. The failures must come back
    // as *typed* errors on their own connections while the healthy runs
    // complete normally.
    let mut handles = Vec::new();
    for (id, argv) in [
        ("ok-daxpy", vec!["--kernels", "Basic_DAXPY", "--size", "1000", "--reps", "2"]),
        ("ok-triad", vec!["--kernels", "Stream_TRIAD", "--size", "1000", "--reps", "2"]),
        ("bad-panic", vec!["--kernels", "Fixture_PANIC", "--size", "64", "--reps", "1"]),
        (
            "bad-hang",
            vec!["--kernels", "Fixture_HANG", "--size", "64", "--reps", "1", "--timeout", "0.75"],
        ),
    ] {
        let (socket, stalled_done) = (socket.clone(), Arc::clone(&stalled_done));
        let req = run_request(id, &argv);
        handles.push(std::thread::spawn(move || {
            let resp = rajaperfd::submit(&socket, &req).expect("request completes");
            (id, resp, stalled_done.load(Ordering::SeqCst))
        }));
    }
    for handle in handles {
        let (id, resp, after_stalled) = handle.join().expect("client thread");
        match id {
            "ok-daxpy" | "ok-triad" => {
                assert_eq!(resp.exit_code, 0, "{id}: {:?}", resp.error());
                assert!(resp.error().is_none(), "{id} must not error");
                assert_eq!(resp.progress_count(), 1, "{id} runs its one kernel");
                let report = resp.report().expect("healthy run has a report");
                assert_eq!(report["all_passed"].as_bool(), Some(true), "{id}");
                assert!(
                    report["profile"]["globals"]
                        .get("fault.injected_total")
                        .is_none(),
                    "{id}: a neighbor's faults must not reach a clean run"
                );
                assert!(
                    !after_stalled,
                    "{id} must finish while the stalled request runs"
                );
            }
            "bad-panic" | "bad-hang" => {
                assert_eq!(resp.exit_code, 5, "{id} exits kernel_failures");
                let (code, message) = resp.error().expect("failure is a typed error");
                assert_eq!(code, "kernel_failures", "{id}");
                assert!(
                    message.contains("Fixture_"),
                    "{id} error names the kernel: {message}"
                );
                let report = resp.report().expect("failed run still reports");
                assert_eq!(report["all_passed"].as_bool(), Some(false), "{id}");
            }
            other => unreachable!("{other}"),
        }
    }
    // The stall fails nothing: the faulty run passes, and owns its fault.
    let resp = stalled.join().expect("stalled client thread");
    assert_eq!(resp.exit_code, 0, "{:?}", resp.error());
    let report = resp.report().expect("stalled run has a report");
    assert_eq!(
        report["profile"]["globals"]["fault.injected_total"].as_i64(),
        Some(1)
    );
    shutdown_and_wait(daemon, &root);
}

#[test]
fn identical_request_is_served_from_the_store() {
    let (daemon, root) = start_daemon("cache", 8, 2);
    let socket = daemon.socket().to_path_buf();
    let argv = ["--kernels", "Basic_DAXPY,Stream_TRIAD", "--size", "1000", "--reps", "2"];

    let first = rajaperfd::submit(&socket, &run_request("c1", &argv)).unwrap();
    assert_eq!(first.exit_code, 0);
    assert!(!first.cached(), "first request executes");
    assert_eq!(first.progress_count(), 2, "both kernels execute");
    let store_key = first
        .find("result")
        .and_then(|e| e.get("store_key"))
        .and_then(Value::as_str)
        .expect("clean result is stored")
        .to_string();
    let object = root
        .join("store")
        .join("objects")
        .join(&store_key[..2])
        .join(format!("{store_key}.json"));
    assert!(object.exists(), "stored object persists at {}", object.display());

    // Same campaign, different request id: a pure store hit. No kernel
    // re-executes (zero progress events) and the report is byte-identical
    // to the one measured the first time.
    let second = rajaperfd::submit(&socket, &run_request("c2", &argv)).unwrap();
    assert_eq!(second.exit_code, 0);
    assert!(second.cached(), "second request is served from the store");
    assert_eq!(second.progress_count(), 0, "no kernel re-executes on a hit");
    assert_eq!(
        second.report().map(Value::to_string),
        first.report().map(Value::to_string),
        "cached report is byte-identical"
    );

    // The daemon's own counters agree.
    let stats = rajaperfd::submit(&socket, &Request::Stats { id: "s".into() }).unwrap();
    let store = &stats.find("stats").expect("stats event")["store"];
    assert_eq!(store["hits"].as_i64(), Some(1));
    assert_eq!(store["stores"].as_i64(), Some(1));

    shutdown_and_wait(daemon, &root);
}

/// A hit sends the bytes its miss sent: the same request with the same id
/// gets `result` lines equal but for `"cached"`, for a run and for `analyze
/// store`. Every line is what printing its event as a tree gives, and an id
/// that needs escaping is echoed exactly as a JSON string prints it.
#[test]
fn a_store_hit_sends_the_bytes_its_miss_sent() {
    let (daemon, root) = start_daemon("wire", 4, 1);
    let socket = daemon.socket().to_path_buf();
    let id = "w\"i\nd\u{1}é";
    let echoed = format!("\"id\":{}", Value::from(id));
    let run = run_request(id, &["--kernels", "Basic_DAXPY", "--size", "1000", "--reps", "2"]);
    let analyze = Request::Analyze {
        id: id.into(),
        dir: "store".into(),
        metric: "avg#time.duration".into(),
    };
    for request in [run, analyze] {
        let miss = raw_reply(&socket, &request.to_line());
        let hit = raw_reply(&socket, &request.to_line());
        for line in miss.iter().chain(&hit) {
            assert!(line.contains(&echoed), "{line}");
            let event: Value = serde_json::from_str(line).unwrap();
            assert_eq!(event.to_string(), *line);
        }
        let (miss, hit) = (event_line(&miss, "result"), event_line(&hit, "result"));
        assert!(miss.starts_with(r#"{"cached":false,"#), "{miss}");
        assert_eq!(hit, miss.replacen(r#""cached":false"#, r#""cached":true"#, 1));
    }
    shutdown_and_wait(daemon, &root);
}

/// What sits at a run's store address is served only when it is a whole
/// JSON object embedding the run's key. Another key, or JSON that is not an
/// object, is a plain miss; a torn, non-UTF-8 or 129-deep object is
/// quarantined once. Each re-executes, and nothing planted reaches the wire.
#[test]
fn a_stored_object_that_cannot_answer_is_a_miss_and_never_reaches_the_wire() {
    let (daemon, root) = start_daemon("planted", 4, 1);
    let socket = daemon.socket().to_path_buf();
    let argv = ["--kernels", "Basic_DAXPY", "--size", "1000", "--reps", "1"];
    let params = suite::RunParams::parse(&argv.map(String::from)).unwrap();
    let key = rajaperfd::server::run_key(&params);
    let hash = rajaperfd::ProfileStore::key_hash(&key);
    let store = root.join("store");
    let object = store.join("objects").join(&hash[..2]).join(format!("{hash}.json"));
    let quarantined = || std::fs::read_dir(store.join("quarantine")).map_or(0, Iterator::count);
    let run = |id: &str| raw_reply(&socket, &run_request(id, &argv).to_line());
    event_line(&run("seed"), "result");
    let intact = std::fs::read(&object).expect("the seed run is stored");

    let mut latin1 = format!(r#"{{"key":{key},"report":{{"note":"caf"#).into_bytes();
    latin1.extend(b"\xe9\"}}");
    let deep = format!(r#"{{"key":{key},"report":{}{}}}"#, "[".repeat(128), "]".repeat(128));
    // One digit of the stored report flipped in place: the same length,
    // still JSON, and not the bytes the record vouches for.
    let mut flipped = intact.clone();
    let checksum = intact.windows(11).position(|w| w == br#""checksum":"#).unwrap() + 11;
    let digit = checksum + intact[checksum..].iter().position(u8::is_ascii_digit).unwrap();
    flipped[digit] = if flipped[digit] == b'9' { b'8' } else { flipped[digit] + 1 };
    let still_json = std::str::from_utf8(&flipped).map(serde_json::from_str::<Value>);
    assert!(matches!(still_json, Ok(Ok(_))), "the flipped object is still JSON");
    let planted: [(&str, Vec<u8>, usize); 6] = [
        ("another key", br#"{"key":{"q":2},"report":{"planted":1}}"#.to_vec(), 0),
        ("not an object", b"[1]".to_vec(), 0),
        ("torn", intact[..intact.len() / 2].to_vec(), 1),
        ("not UTF-8", latin1, 1),
        ("129 deep", deep.into_bytes(), 1),
        ("a flipped digit", flipped, 1),
    ];
    for (what, bytes, moved) in planted {
        let before = quarantined();
        std::fs::write(&object, &bytes).unwrap();
        let reply = run(what);
        assert!(
            reply.iter().any(|l| l.contains(r#""event":"progress""#)),
            "{what}: re-executed"
        );
        let result: Value = serde_json::from_str(event_line(&reply, "result")).unwrap();
        assert_eq!(result["cached"], Value::Bool(false), "{what}");
        let report = &result["report"];
        assert_eq!(report["all_passed"].as_bool(), Some(true), "{what}");
        assert!(report["profile"].as_object().is_some() && report.get("planted").is_none(), "{what}");
        assert_eq!(quarantined(), before + moved, "{what}");
        assert_ne!(std::fs::read(&object).unwrap(), bytes, "{what}: the miss stored its own answer");
    }
    let stats = rajaperfd::submit(&socket, &Request::Stats { id: "s".into() }).unwrap();
    let store = &stats.find("stats").expect("stats event")["store"];
    assert_eq!(store["quarantined"].as_i64(), Some(4), "{store}");
    shutdown_and_wait(daemon, &root);
}

#[test]
fn full_queue_rejects_with_a_typed_error() {
    // One worker, queue of one: occupy the worker with a watchdog-bounded
    // hang, queue one request behind it, and the next must be rejected
    // immediately with `queue_full` — admission control, not a stall.
    let (daemon, root) = start_daemon("queuefull", 1, 1);
    let socket = daemon.socket().to_path_buf();

    let (started_tx, started_rx) = mpsc::channel();
    let hog = {
        let socket = socket.clone();
        let req = run_request(
            "hog",
            &["--kernels", "Fixture_HANG", "--size", "64", "--reps", "1", "--timeout", "1.5"],
        );
        std::thread::spawn(move || {
            rajaperfd::submit_with(&socket, &req, &mut |e: &Value| {
                if e.get("event").and_then(Value::as_str) == Some("started") {
                    let _ = started_tx.send(());
                }
            })
            .expect("hog completes")
        })
    };
    started_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("worker picked up the hog request");

    let (queued_tx, queued_rx) = mpsc::channel();
    let queued = {
        let socket = socket.clone();
        let req = run_request("queued", &["--kernels", "Basic_DAXPY", "--size", "500"]);
        std::thread::spawn(move || {
            rajaperfd::submit_with(&socket, &req, &mut |e: &Value| {
                if e.get("event").and_then(Value::as_str) == Some("accepted") {
                    let _ = queued_tx.send(());
                }
            })
            .expect("queued request completes")
        })
    };
    queued_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("second request admitted to the queue");

    let rejected = rajaperfd::submit(
        &socket,
        &run_request("rejected", &["--kernels", "Stream_TRIAD", "--size", "500"]),
    )
    .unwrap();
    assert_eq!(rejected.exit_code, 6, "queue-full maps to unavailable");
    let (code, _) = rejected.error().expect("rejection is typed");
    assert_eq!(code, "queue_full");

    // The hog times out (typed kernel failure), the queued request then
    // runs to a clean finish: one request's hang is never its neighbor's
    // problem.
    let hog_resp = hog.join().unwrap();
    assert_eq!(hog_resp.exit_code, 5);
    assert_eq!(hog_resp.error().map(|(c, _)| c.to_string()), Some("kernel_failures".into()));
    let queued_resp = queued.join().unwrap();
    assert_eq!(queued_resp.exit_code, 0, "{:?}", queued_resp.error());

    shutdown_and_wait(daemon, &root);
}

#[test]
fn shutdown_drains_in_flight_and_queued_work() {
    let (daemon, root) = start_daemon("drain", 4, 1);
    let socket = daemon.socket().to_path_buf();

    let (started_tx, started_rx) = mpsc::channel();
    let inflight = {
        let socket = socket.clone();
        let req = run_request(
            "inflight",
            &["--kernels", "Fixture_HANG", "--size", "64", "--reps", "1", "--timeout", "1.0"],
        );
        std::thread::spawn(move || {
            rajaperfd::submit_with(&socket, &req, &mut |e: &Value| {
                if e.get("event").and_then(Value::as_str) == Some("started") {
                    let _ = started_tx.send(());
                }
            })
            .expect("in-flight request completes through shutdown")
        })
    };
    started_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("request is in flight");

    // Queue one more behind it, then ask for shutdown while both are
    // outstanding: drain means both clients still get full responses.
    let queued = {
        let socket = socket.clone();
        let req = run_request("queued", &["--kernels", "Basic_DAXPY", "--size", "500"]);
        std::thread::spawn(move || rajaperfd::submit(&socket, &req).expect("queued completes"))
    };
    // Give the accept thread a moment to admit the queued request before
    // the shutdown line arrives on its own connection.
    std::thread::sleep(Duration::from_millis(200));

    let resp = rajaperfd::submit(&socket, &Request::Shutdown { id: "bye".into() }).unwrap();
    assert_eq!(resp.exit_code, 0);

    let inflight_resp = inflight.join().unwrap();
    assert_eq!(inflight_resp.exit_code, 5, "watchdog failure still reported");
    let queued_resp = queued.join().unwrap();
    assert_eq!(queued_resp.exit_code, 0, "{:?}", queued_resp.error());

    daemon.wait().expect("daemon exits after draining");
    let socket_gone = !socket.exists();
    assert!(socket_gone, "socket file is removed on exit");
    assert!(
        rajaperfd::submit(&socket, &Request::Ping { id: "p".into() }).is_err(),
        "daemon no longer serves after shutdown"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn analyze_streams_store_profiles_and_caches_the_result() {
    let (daemon, root) = start_daemon("analyze", 8, 2);
    let socket = daemon.socket().to_path_buf();

    // Two runs seed the store with two profile-bearing objects.
    for (id, kernel) in [("a-run1", "Basic_DAXPY"), ("a-run2", "Stream_TRIAD")] {
        let resp = rajaperfd::submit(
            &socket,
            &run_request(id, &["--kernels", kernel, "--size", "1000", "--reps", "2"]),
        )
        .unwrap();
        assert_eq!(resp.exit_code, 0, "{id}");
    }

    let analyze = |id: &str| {
        rajaperfd::submit(
            &socket,
            &Request::Analyze {
                id: id.to_string(),
                dir: "store".to_string(),
                metric: "avg#time.duration".to_string(),
            },
        )
        .unwrap()
    };
    let first = analyze("a-first");
    assert_eq!(first.exit_code, 0, "{:?}", first.error());
    assert!(!first.cached(), "first analysis computes");
    let report = first.report().expect("analysis reports");
    assert_eq!(report["profiles"].as_i64(), Some(2), "both stored profiles composed");
    assert!(report["table"].as_array().is_some_and(|t| !t.is_empty()));

    // Same corpus, same metric: replayed from the store, byte-identical.
    let second = analyze("a-second");
    assert_eq!(second.exit_code, 0);
    assert!(second.cached(), "repeat analysis is served from the store");
    assert_eq!(
        second.report().map(Value::to_string),
        first.report().map(Value::to_string),
        "cached analysis is byte-identical"
    );

    // Growing the corpus changes the key: a third run makes it a miss.
    let resp = rajaperfd::submit(
        &socket,
        &run_request("a-run3", &["--kernels", "Basic_MULADDSUB", "--size", "1000", "--reps", "2"]),
    )
    .unwrap();
    assert_eq!(resp.exit_code, 0);
    let third = analyze("a-third");
    assert!(!third.cached(), "a grown corpus recomputes");
    // Cached analyses live in the store's derived space, outside objects/,
    // so the corpus grew by exactly the one new run profile.
    let r3 = third.report().expect("recomputed report");
    assert_eq!(r3["profiles"].as_i64(), Some(3));
    assert_eq!(r3["skipped"].as_i64(), Some(0));

    shutdown_and_wait(daemon, &root);
}

/// `analyze store` reads each object's inline `report.profile` by the walk
/// `analyze DIR` reads a `.cali.json` by, so over three runs it composes what
/// `analyze DIR` composes from those runs' profiles written out as files — up
/// to the rounding of a mean summed in another order (the two corpora are
/// ingested in different orders). A torn object and one that is not UTF-8
/// are each one skip, and the rest still compose.
#[test]
fn analyze_store_composes_what_analyze_dir_does_from_the_same_profiles() {
    let (daemon, root) = start_daemon("store_vs_dir", 8, 2);
    let socket = daemon.socket().to_path_buf();
    let corpus = root.join("corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    for (i, kernel) in ["Basic_DAXPY", "Stream_TRIAD", "Basic_MULADDSUB"]
        .into_iter()
        .enumerate()
    {
        let argv = ["--kernels", kernel, "--size", "1000", "--reps", "2"];
        let resp = rajaperfd::submit(&socket, &run_request(kernel, &argv)).unwrap();
        assert_eq!(resp.exit_code, 0, "{kernel}");
        let profile = &resp.report().expect("a run reports")["profile"];
        std::fs::write(corpus.join(format!("{i}.cali.json")), profile.to_string()).unwrap();
    }
    let analyze = |id: &str, dir: String| {
        let metric = "avg#time.duration".to_string();
        let resp = rajaperfd::submit(
            &socket,
            &Request::Analyze {
                id: id.into(),
                dir,
                metric,
            },
        );
        let resp = resp.unwrap();
        assert_eq!(resp.exit_code, 0, "{id}: {:?}", resp.error());
        resp.report().expect("an analysis reports").clone()
    };
    let table = |report: &Value| -> BTreeMap<String, [f64; 3]> {
        let rows = report["table"].as_array().expect("a table").iter();
        let stats = |row: &Value| ["mean", "min", "max"].map(|s| row[s].as_f64().unwrap());
        rows.map(|row| (row["node"].as_str().unwrap().to_string(), stats(row)))
            .collect()
    };
    let from_dir = analyze("dir", corpus.display().to_string());
    assert_eq!(
        (from_dir["profiles"].as_i64(), from_dir["skipped"].as_i64()),
        (Some(3), Some(0))
    );
    let expected = table(&from_dir);
    let agrees = |from_store: &Value, skipped: i64| {
        for field in ["profiles", "nodes", "columns"] {
            assert_eq!(from_store[field], from_dir[field], "{field}");
        }
        assert_eq!(from_store["skipped"].as_i64(), Some(skipped));
        let table = table(from_store);
        assert!(table.keys().eq(expected.keys()), "{table:?}");
        for ((node, got), want) in table.iter().zip(expected.values()) {
            for (g, w) in got.iter().zip(want) {
                assert!(
                    (g - w).abs() <= 1e-12 * w.abs(),
                    "{node:?}: {got:?} vs {want:?}"
                );
            }
        }
    };
    agrees(&analyze("store", "store".into()), 0);

    let objects = root.join("store").join("objects");
    let first = |dir: &std::path::Path| std::fs::read_dir(dir).unwrap().next().unwrap().unwrap();
    let intact = std::fs::read(first(&first(&objects).path()).path()).unwrap();
    let shard = objects.join("zz");
    std::fs::create_dir_all(&shard).unwrap();
    std::fs::write(shard.join("torn.json"), &intact[..intact.len() / 2]).unwrap();
    std::fs::write(
        shard.join("latin1.json"),
        b"{\"report\": {\"note\": \"caf\xe9\"}}",
    )
    .unwrap();
    agrees(&analyze("store-damaged", "store".into()), 2);

    shutdown_and_wait(daemon, &root);
}

#[test]
fn daemon_results_match_direct_execution() {
    // The daemon is a transport, not a different runner: the entries it
    // reports for a campaign must match run_suite's own output for the
    // same parameters (same kernels, sizes, reps, checksums).
    let (daemon, root) = start_daemon("parity", 4, 1);
    let socket = daemon.socket().to_path_buf();
    let argv: Vec<String> = ["--kernels", "Basic_DAXPY", "--size", "1000", "--reps", "3"]
        .iter()
        .map(|s| s.to_string())
        .collect();

    let resp = rajaperfd::submit(
        &socket,
        &Request::Run { id: "parity".into(), argv: argv.clone() },
    )
    .unwrap();
    assert_eq!(resp.exit_code, 0);
    let entries = resp.report().unwrap()["entries"].clone();

    let params = suite::RunParams::parse(&argv).unwrap();
    let direct = suite::run_suite(&params);
    assert_eq!(entries.as_array().map(Vec::len), Some(direct.entries.len()));
    let served = &entries.as_array().unwrap()[0];
    let local = &direct.entries[0];
    assert_eq!(served["kernel"].as_str(), Some(local.kernel.as_str()));
    assert_eq!(served["size"].as_i64(), Some(local.problem_size as i64));
    assert_eq!(served["reps"].as_i64(), Some(local.reps as i64));
    assert_eq!(served["checksum"].as_f64(), Some(local.result.checksum));

    shutdown_and_wait(daemon, &root);
}

#[test]
fn every_error_path_replies_one_error_then_one_done() {
    let (daemon, root) = start_daemon("errors", 4, 1);
    let socket = daemon.socket().to_path_buf();
    // Raw, because four of the lines are not valid requests.
    let reply = |line: &str| -> Vec<Value> {
        raw_reply(&socket, line)
            .iter()
            .map(|l| serde_json::from_str(l).expect("event lines are JSON"))
            .collect()
    };
    let run = |argv: &[&str]| run_request("e", argv).to_line();
    let sweep = |argv: &[&str]| {
        let argv = argv.iter().map(|s| s.to_string()).collect();
        Request::Sweep { id: "e".into(), argv }.to_line()
    };
    let analyze = Request::Analyze {
        id: "e".into(),
        dir: root.join("no-such-dir").display().to_string(),
        metric: "avg#time.duration".into(),
    };
    let sweep_dir = root.join("sweep").display().to_string();
    // One good run, so the store holds a profile for the misspelt-metric
    // analyze to load before it is refused.
    let seed = run_request("seed", &["--kernels", "Basic_DAXPY", "--size", "64", "--reps", "1"]);
    assert_eq!(rajaperfd::submit(&socket, &seed).unwrap().exit_code, 0);
    let misspelt = Request::Analyze {
        id: "e".into(),
        dir: "store".into(),
        metric: "nope".into(),
    };

    const INLINE: &[&str] = &["error", "done"];
    const QUEUED: &[&str] = &["accepted", "started", "error", "done"];
    const EXECUTED: &[&str] = &["accepted", "started", "progress", "result", "error", "done"];
    let mut table: Vec<(&str, String, ErrorCode, &[&str])> = vec![
        ("bad JSON line", "not json".into(), ErrorCode::Usage, INLINE),
        ("unknown kind", r#"{"kind":"warp"}"#.into(), ErrorCode::Usage, INLINE),
        // Both used to take the whole daemon down: the first overflowed the
        // accept thread's stack in the JSON parser, the second is a request
        // line the daemon would have buffered at whatever size it came.
        ("a line nested 200 000 deep", "[".repeat(200_000), ErrorCode::Usage, INLINE),
        (
            "a 2 MiB line",
            format!(r#"{{"kind":"ping","pad":"{}"}}"#, "x".repeat(2 << 20)),
            ErrorCode::Usage,
            INLINE,
        ),
        (
            "--ranks 9",
            sweep(&["--sweep", "--sweep-dir", &sweep_dir, "--ranks", "9"]),
            ErrorCode::Unsupported,
            QUEUED,
        ),
        ("kind=run with --sweep", run(&["--sweep"]), ErrorCode::Usage, QUEUED),
        ("sweep without --sweep-dir", sweep(&["--sweep"]), ErrorCode::Usage, QUEUED),
        ("unreadable analyze dir", analyze.to_line(), ErrorCode::Internal, QUEUED),
        // Used to be an empty table, exit 0, stored under `derived/`.
        ("analyze --metric nope", misspelt.to_line(), ErrorCode::Usage, QUEUED),
        // Used to take the whole daemon down: 800 GB is an allocation failure
        // (or the OOM killer's pick) in the worker thread.
        (
            "--size above the cap",
            run(&["--kernels", "Basic_DAXPY", "--size", "100000000000", "--reps", "1"]),
            ErrorCode::Usage,
            QUEUED,
        ),
        // Past CUDA's 1024 threads per block: a size of 2^40 was one launch
        // walking every padding thread, a worker wedged for hours.
        (
            "--gpu-block-size above the cap",
            run(&["--kernels", "Stream_DOT", "--variant", "Base_SimGpu", "--gpu-block-size", "1025"]),
            ErrorCode::Usage,
            QUEUED,
        ),
        (
            "Fixture_PANIC",
            run(&["--kernels", "Fixture_PANIC", "--size", "64", "--reps", "1"]),
            ErrorCode::KernelFailures,
            EXECUTED,
        ),
    ];
    // Every flag whose row of the flag table says the daemon refuses it, set
    // the shortest way that parses: `unsupported`, with the row's reason.
    let refused = suite::params::FLAGS.iter().filter(|f| f.refused.is_some());
    for flag in refused {
        let argv: &[&str] = match flag.names[0] {
            "--caliper" => &["--caliper", "runtime-report"],
            "--trace" => &["--trace", "t.json"],
            "--trace-folded" => &["--trace", "t.json", "--trace-folded", "t.folded"],
            "--lock-order" => &["--lock-order"],
            "--rank-worker" => &["--sweep", "--rank-worker", "0/2"],
            other => panic!("no request sets the refused flag {other}: add one"),
        };
        table.push((flag.names[0], run(argv), ErrorCode::Unsupported, QUEUED));
    }
    for (what, line, code, sequence) in table {
        let events = reply(&line);
        let names: Vec<&str> = events.iter().map(|e| e["event"].as_str().unwrap()).collect();
        assert_eq!(names, sequence, "{what}");
        let only = |name: &str| {
            let mut matching = events.iter().filter(|e| e["event"].as_str() == Some(name));
            let first = matching.next().unwrap_or_else(|| panic!("{what}: no {name} event"));
            assert!(matching.next().is_none(), "{what}: more than one {name} event");
            first
        };
        assert_eq!(only("error")["code"].as_str(), Some(code.name()), "{what}");
        if let Some(flag) = suite::params::FLAGS.iter().find(|f| f.names[0] == what) {
            assert_eq!(only("error")["message"].as_str(), flag.refused, "{what}");
        }
        assert_eq!(
            only("done")["exit_code"].as_i64(),
            Some(i64::from(code.exit().code())),
            "{what}"
        );
        // Whatever the line was, the daemon is still there for the next one.
        let ping = rajaperfd::submit(&socket, &Request::Ping { id: "alive".into() });
        assert!(ping.is_ok_and(|r| r.find("pong").is_some()), "no pong after {what}");
    }
    // Nothing an error path produced was stored: only the seed run was.
    let stats = rajaperfd::submit(&socket, &Request::Stats { id: "s".into() }).unwrap();
    let store = &stats.find("stats").expect("stats event")["store"];
    assert_eq!(store["stores"].as_i64(), Some(1), "{store}");
    shutdown_and_wait(daemon, &root);
}
