//! The daemon proper: accept loop, bounded request queue with admission
//! control, worker pool, and graceful shutdown.
//!
//! # Concurrency model
//!
//! One accept thread reads each connection's single request line and either
//! answers it inline (`ping`/`stats`/`shutdown` — cheap, never queued) or
//! enqueues it for the worker pool. The queue is *bounded*: when it is
//! full, admission control rejects the request immediately with a typed
//! `queue_full` error instead of stalling the accept loop — a loaded
//! daemon stays responsive and clients get an actionable signal.
//!
//! Workers execute campaigns concurrently on the shared rayon pool with
//! PR 5's per-kernel isolation (`catch_unwind`, watchdog, bounded retry):
//! a request that panics or hangs is *that request's* failure, reported to
//! its client as a typed error while concurrent requests continue. Fault
//! injection (`--faults`) and the sanitizer (`--sanitize`) are armed per
//! run on the executing thread, so such requests run beside clean ones.
//!
//! # Shutdown
//!
//! `shutdown` is handled on the accept thread: it flips the drain flag and
//! the accept loop exits, so no new work is admitted. Workers finish the
//! queue — queued and in-flight requests complete and their clients get
//! full responses — then exit. [`Daemon::wait`] joins everything and
//! removes the socket file.

use crate::protocol::{self as proto, ErrorCode, Request};
use crate::store::ProfileStore;
use serde_json::{json, Value};
use simsched::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use simsched::sync::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use suite::{RunParams, SuiteExit, SuiteReport};

/// Most ranks a daemon-served sweep may request: each rank is a worker
/// thread with a full suite execution context, and a shared daemon serves
/// many concurrent clients, so the admission bound is far below the CLI's
/// [`suite::params::MAX_RANKS`].
pub const MAX_SWEEP_RANKS: usize = 8;

/// Lock that survives a poisoned peer: the daemon must keep serving other
/// clients after one request's thread panics mid-lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Configuration of one daemon instance.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Unix socket path to listen on (created fresh; a stale file is
    /// removed first).
    pub socket: PathBuf,
    /// Root of the content-addressed profile store.
    pub store_dir: PathBuf,
    /// Bounded queue capacity: requests beyond this are rejected with
    /// `queue_full`.
    pub queue_capacity: usize,
    /// Worker threads executing queued requests.
    pub workers: usize,
}

impl DaemonConfig {
    /// Defaults under `target/`: socket `target/rajaperfd.sock`, store
    /// `target/rajaperfd-store`, queue of 16, 2 workers.
    pub fn default_paths() -> DaemonConfig {
        DaemonConfig {
            socket: PathBuf::from("target/rajaperfd.sock"),
            store_dir: PathBuf::from("target/rajaperfd-store"),
            queue_capacity: 16,
            workers: 2,
        }
    }
}

/// A queued unit of work: the parsed request plus its client connection.
struct Job {
    req: Request,
    stream: UnixStream,
}

struct Shared {
    store: ProfileStore,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    capacity: usize,
    shutdown: AtomicBool,
    served: AtomicU64,
    rejected: AtomicU64,
    req_seq: AtomicU64,
}

/// A running daemon. Drop order does not stop it — send a `shutdown`
/// request (e.g. `rajaperf-client shutdown`) and then [`Daemon::wait`].
pub struct Daemon {
    shared: Arc<Shared>,
    socket: PathBuf,
    accept: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// Send one event line, ignoring a vanished client: a dropped connection
/// must not kill the campaign mid-run (its result still lands in the
/// store for the next identical request).
fn send(stream: &UnixStream, event: &Value) {
    let mut line = event.to_string();
    line.push('\n');
    let _ = (&*stream).write_all(line.as_bytes()).and_then(|_| (&*stream).flush());
}

impl Daemon {
    /// Bind the socket, open the store, and start the accept and worker
    /// threads. Returns once the daemon is accepting connections.
    pub fn start(config: DaemonConfig) -> std::io::Result<Daemon> {
        if config.socket.exists() {
            std::fs::remove_file(&config.socket)?;
        }
        if let Some(parent) = config.socket.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let store = ProfileStore::open(&config.store_dir)?;
        let listener = UnixListener::bind(&config.socket)?;
        let shared = Arc::new(Shared {
            store,
            queue: Mutex::labeled(VecDeque::new(), "rajaperfd.queue"),
            queue_cv: Condvar::new(),
            capacity: config.queue_capacity.max(1),
            shutdown: AtomicBool::new(false),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            req_seq: AtomicU64::new(0),
        });

        let mut workers = Vec::new();
        for w in 0..config.workers.max(1) {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("rajaperfd-worker-{w}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("rajaperfd-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))?;

        Ok(Daemon {
            shared,
            socket: config.socket,
            accept,
            workers,
        })
    }

    /// The socket path this daemon listens on.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Block until the daemon shuts down (a `shutdown` request arrived and
    /// every queued and in-flight request drained), then clean up.
    pub fn wait(self) -> std::io::Result<()> {
        let _ = self.accept.join();
        // Belt and braces: the shutdown handler already notified, but a
        // worker parked between the flag flip and the notify must wake.
        self.shared.queue_cv.notify_all();
        for w in self.workers {
            let _ = w.join();
        }
        if self.socket.exists() {
            std::fs::remove_file(&self.socket)?;
        }
        Ok(())
    }
}

fn accept_loop(listener: &UnixListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        handle_connection(stream, shared);
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
}

/// Read the request line (with a deadline so a stalled client cannot block
/// the accept thread), then answer inline or enqueue.
fn handle_connection(stream: UnixStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let fallback = format!("req-{}", shared.req_seq.fetch_add(1, Ordering::Relaxed));
    let mut line = String::new();
    if BufReader::new(&stream).read_line(&mut line).is_err() || line.trim().is_empty() {
        send(
            &stream,
            &proto::ev_error(&fallback, ErrorCode::Usage, "no request line received"),
        );
        send(&stream, &proto::ev_done(&fallback, SuiteExit::Usage));
        return;
    }
    let _ = stream.set_read_timeout(None);
    let req = match Request::parse(line.trim(), &fallback) {
        Ok(r) => r,
        Err(e) => {
            send(&stream, &proto::ev_error(&fallback, ErrorCode::Usage, &e));
            send(&stream, &proto::ev_done(&fallback, SuiteExit::Usage));
            return;
        }
    };
    let id = req.id().to_string();
    match req {
        Request::Ping { .. } => {
            send(
                &stream,
                &json!({"event": "pong", "id": id, "version": suite::code_version()}),
            );
            send(&stream, &proto::ev_done(&id, SuiteExit::Success));
        }
        Request::Stats { .. } => {
            let s = shared.store.stats();
            send(
                &stream,
                &json!({
                    "event": "stats",
                    "id": id,
                    "store": json!({
                        "hits": s.hits,
                        "misses": s.misses,
                        "stores": s.stores,
                        "quarantined": s.quarantined,
                    }),
                    "queue_depth": lock(&shared.queue).len(),
                    "queue_capacity": shared.capacity,
                    "served": shared.served.load(Ordering::Relaxed),
                    "rejected": shared.rejected.load(Ordering::Relaxed),
                }),
            );
            send(&stream, &proto::ev_done(&id, SuiteExit::Success));
        }
        Request::Shutdown { .. } => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.queue_cv.notify_all();
            send(&stream, &json!({"event": "shutting_down", "id": id}));
            send(&stream, &proto::ev_done(&id, SuiteExit::Success));
        }
        req @ (Request::Run { .. } | Request::Sweep { .. } | Request::Analyze { .. }) => {
            // Admission control: a full queue is an immediate typed
            // rejection, not a stall.
            let mut queue = lock(&shared.queue);
            if queue.len() >= shared.capacity {
                shared.rejected.fetch_add(1, Ordering::Relaxed);
                drop(queue);
                send(
                    &stream,
                    &proto::ev_error(
                        &id,
                        ErrorCode::QueueFull,
                        &format!("request queue is full ({} queued)", shared.capacity),
                    ),
                );
                send(&stream, &proto::ev_done(&id, SuiteExit::Unavailable));
                return;
            }
            send(&stream, &proto::ev_accepted(&id, queue.len()));
            queue.push_back(Job { req, stream });
            drop(queue);
            shared.queue_cv.notify_one();
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                // Timed wait so a missed notify can only delay, never hang,
                // the drain.
                let (q, _timeout) = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(200))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                queue = q;
            }
        };
        let Some(job) = job else { break };
        execute_job(job, shared);
        shared.served.fetch_add(1, Ordering::Relaxed);
    }
}

fn execute_job(job: Job, shared: &Arc<Shared>) {
    let id = job.req.id().to_string();
    let stream = job.stream;
    send(&stream, &proto::ev_started(&id));
    match job.req {
        Request::Run { argv, .. } => execute_run(&id, &argv, &stream, shared),
        Request::Sweep { argv, .. } => execute_sweep(&id, &argv, &stream),
        Request::Analyze { dir, metric, .. } => {
            execute_analyze(&id, &dir, &metric, &stream, shared)
        }
        // Control requests never reach the queue.
        Request::Ping { .. } | Request::Stats { .. } | Request::Shutdown { .. } => {}
    }
}

/// Parse and daemon-validate campaign argv. Flags whose collectors are
/// process-global (event trace, lock-order) or that write server-side files
/// the client never named (free-form Caliper specs) are refused as
/// `unsupported` — the profile comes back inline in the result instead.
fn parse_campaign(argv: &[String]) -> Result<RunParams, (ErrorCode, String)> {
    let params =
        RunParams::parse(argv).map_err(|e| (ErrorCode::Usage, e))?;
    if params.caliper_spec.is_some() {
        return Err((
            ErrorCode::Unsupported,
            "--caliper is not served by the daemon; the result event carries the profile".into(),
        ));
    }
    if params.trace.is_some() || params.trace_folded.is_some() {
        return Err((
            ErrorCode::Unsupported,
            "--trace records a process-global timeline; run it via the one-shot CLI".into(),
        ));
    }
    if params.lock_order {
        return Err((
            ErrorCode::Unsupported,
            "--lock-order is a process-global diagnostic; run it via the one-shot CLI".into(),
        ));
    }
    if params.rank_worker.is_some() {
        return Err((
            ErrorCode::Unsupported,
            "--rank-worker is the internal child mode of a process campaign; \
             the daemon only supervises, never serves as a worker"
                .into(),
        ));
    }
    Ok(params)
}

/// The content-addressed store key of a run request: everything that
/// determines its results, in canonical (sorted-key) JSON. Mirrors the
/// sweep cell key and, like it, folds in [`suite::code_version`] so a
/// rebuild is a cache miss, never a stale hit.
pub fn run_key(params: &RunParams) -> Value {
    let kernels: Vec<Value> = params
        .selected_kernels()
        .iter()
        .filter(|k| k.info().variants.contains(&params.variant))
        .map(|k| {
            let info = k.info();
            json!({
                "kernel": info.name,
                "size": params.problem_size(&info),
                "reps": params.reps(&info),
            })
        })
        .collect();
    json!({
        "kind": "run",
        "code_version": suite::code_version(),
        "variant": params.variant.name(),
        "gpu_block_size": params.tuning.gpu_block_size,
        "kernels": Value::Array(kernels),
        "faults": match &params.faults {
            Some(s) => Value::String(s.clone()),
            None => Value::Null,
        },
        "sanitize": params.sanitize,
        "timeout_ms": match params.timeout {
            Some(d) => Value::from(d.as_millis() as u64),
            None => Value::Null,
        },
        "retries": params.max_retries,
    })
}

/// Serialize a [`SuiteReport`] for the wire and the store.
fn report_value(report: &SuiteReport) -> Value {
    let profile: Value = serde_json::from_str(&report.profile.to_json())
        .unwrap_or(Value::Null);
    json!({
        "variant": report.variant.name(),
        "all_passed": report.all_passed(),
        "entries": Value::Array(
            report
                .entries
                .iter()
                .map(|e| {
                    json!({
                        "kernel": e.kernel.clone(),
                        "size": e.problem_size,
                        "reps": e.reps,
                        "time_per_rep_s": e.result.time_per_rep(),
                        "checksum": e.result.checksum,
                    })
                })
                .collect()
        ),
        "outcomes": Value::Array(
            report
                .outcomes
                .iter()
                .map(|o| {
                    json!({
                        "kernel": o.kernel.clone(),
                        "outcome": o.outcome.label(),
                        "detail": o.outcome.detail(),
                    })
                })
                .collect()
        ),
        "profile": profile,
    })
}

fn execute_run(id: &str, argv: &[String], stream: &UnixStream, shared: &Arc<Shared>) {
    let params = match parse_campaign(argv) {
        Ok(p) => p,
        Err((code, msg)) => {
            send(stream, &proto::ev_error(id, code, &msg));
            send(stream, &proto::ev_done(id, code.exit()));
            return;
        }
    };
    if params.sweep {
        let msg = "use kind=sweep for --sweep campaigns".to_string();
        send(stream, &proto::ev_error(id, ErrorCode::Usage, &msg));
        send(stream, &proto::ev_done(id, SuiteExit::Usage));
        return;
    }

    // Served from the store: no kernel re-executes, no progress events —
    // the result is the previously measured record, byte for byte.
    let key = run_key(&params);
    let hash = ProfileStore::key_hash(&key);
    if let Some(record) = shared.store.get(&key) {
        let report = record.get("report").cloned().unwrap_or(Value::Null);
        send(stream, &json!({"event": "cached", "id": id, "store_key": hash.clone()}));
        send(stream, &proto::ev_result(id, true, Some(&hash), report));
        send(stream, &proto::ev_done(id, SuiteExit::Success));
        return;
    }

    let report = match run_contained(id, &params, stream) {
        Ok(r) => r,
        Err((code, msg)) => {
            send(stream, &proto::ev_error(id, code, &msg));
            send(stream, &proto::ev_done(id, code.exit()));
            return;
        }
    };
    let rv = report_value(&report);
    // Cache only clean results: a genuine (un-injected) failure is not a
    // reproducible fact, and a faulty run's value is exercising the
    // injection, not replaying a cached answer.
    let stored = if report.all_passed() {
        match shared.store.put(&key, json!({"report": rv.clone()})) {
            Ok(h) => Some(h),
            Err(e) => {
                eprintln!("rajaperfd: store write failed for {id}: {e}");
                None
            }
        }
    } else {
        None
    };
    send(stream, &proto::ev_result(id, false, stored.as_deref(), rv));
    if report.all_passed() {
        send(stream, &proto::ev_done(id, SuiteExit::Success));
    } else {
        let failed: Vec<String> = report
            .outcomes
            .iter()
            .filter(|o| !o.outcome.is_pass())
            .map(|o| format!("{} {}", o.kernel, o.outcome.label()))
            .collect();
        send(
            stream,
            &proto::ev_error(
                id,
                ErrorCode::KernelFailures,
                &format!("kernel failure(s): {}", failed.join(", ")),
            ),
        );
        send(stream, &proto::ev_done(id, SuiteExit::KernelFailures));
    }
}

/// Execute the campaign, streaming its progress to the client.
fn run_contained(
    id: &str,
    params: &RunParams,
    stream: &UnixStream,
) -> Result<SuiteReport, (ErrorCode, String)> {
    let progress = |p: &suite::KernelProgress| send(stream, &proto::ev_progress(id, p));
    // Per-kernel isolation (catch_unwind + watchdog) lives inside
    // run_suite; a panic escaping it would be a runner bug. Contain even
    // that, so one request's bug is its own typed internal error and the
    // worker survives to serve the next client.
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        suite::run_suite_observed(params, Some(&progress))
    }))
    .map_err(|p| {
        (
            ErrorCode::Internal,
            format!("campaign panicked: {}", suite::exec::panic_message(&*p)),
        )
    })
}

fn execute_sweep(id: &str, argv: &[String], stream: &UnixStream) {
    let params = match parse_campaign(argv) {
        Ok(p) => p,
        Err((code, msg)) => {
            send(stream, &proto::ev_error(id, code, &msg));
            send(stream, &proto::ev_done(id, code.exit()));
            return;
        }
    };
    if !params.sweep {
        let msg = "kind=sweep requires --sweep".to_string();
        send(stream, &proto::ev_error(id, ErrorCode::Usage, &msg));
        send(stream, &proto::ev_done(id, SuiteExit::Usage));
        return;
    }
    if params.sweep_dir.is_none() {
        // Concurrent sweeps into the shared default directory would race;
        // the daemon insists each sweep names its own.
        let msg = "daemon sweeps require an explicit --sweep-dir".to_string();
        send(stream, &proto::ev_error(id, ErrorCode::Usage, &msg));
        send(stream, &proto::ev_done(id, SuiteExit::Usage));
        return;
    }
    if params.ranks > MAX_SWEEP_RANKS {
        // Each rank — a thread of this daemon or a child process it
        // supervises, per --rank-isolation — holds a full suite execution
        // context; a shared daemon serves many clients, so it admits far
        // fewer ranks per sweep than the CLI allows.
        let msg = format!(
            "daemon sweeps accept at most --ranks {MAX_SWEEP_RANKS} (requested {})",
            params.ranks
        );
        send(stream, &proto::ev_error(id, ErrorCode::Unsupported, &msg));
        send(stream, &proto::ev_done(id, SuiteExit::Usage));
        return;
    }
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| suite::run_sweep(&params)));
    let summary = match result {
        Ok(Ok(summary)) => summary,
        Ok(Err(e)) => {
            send(
                stream,
                &proto::ev_error(id, ErrorCode::Internal, &format!("sweep failed: {e}")),
            );
            send(stream, &proto::ev_done(id, SuiteExit::Internal));
            return;
        }
        Err(p) => {
            send(
                stream,
                &proto::ev_error(
                    id,
                    ErrorCode::Internal,
                    &format!("sweep panicked: {}", suite::exec::panic_message(&*p)),
                ),
            );
            send(stream, &proto::ev_done(id, SuiteExit::Internal));
            return;
        }
    };
    let report = json!({
        "dir": summary.dir.display().to_string(),
        "manifest": summary.manifest.display().to_string(),
        "quarantined": summary.quarantined.len(),
        "ranks": params.ranks,
        "isolation": params.rank_isolation.name(),
        "restart_budget": params.rank_restarts,
        "rank_restarts": Value::Array(
            summary
                .rank_restarts
                .iter()
                .map(|&r| Value::from(u64::from(r)))
                .collect()
        ),
        "casualties": Value::Array(
            summary
                .casualties
                .iter()
                .map(|c| {
                    json!({
                        "rank": c.rank,
                        "restarts": c.restarts,
                        "last_failure": c.last_failure.clone(),
                    })
                })
                .collect()
        ),
        "rank_stats": Value::Array(
            summary
                .rank_stats
                .iter()
                .enumerate()
                .map(|(rank, s)| {
                    json!({
                        "rank": rank,
                        "messages_sent": s.messages_sent,
                        "bytes_sent": s.bytes_sent,
                        "messages_received": s.messages_received,
                        "bytes_received": s.bytes_received,
                    })
                })
                .collect()
        ),
        "cells": Value::Array(
            summary
                .cells
                .iter()
                .map(|c| {
                    json!({
                        "variant": c.variant.name(),
                        "gpu_block_size": c.gpu_block_size,
                        "cached": c.cached,
                        "kernels_run": c.kernels_run,
                        "kernels_failed": c.kernels_failed,
                        "profile": c.profile.display().to_string(),
                    })
                })
                .collect()
        ),
    });
    send(stream, &proto::ev_result(id, false, None, report));
    if summary.kernels_failed() == 0 {
        send(stream, &proto::ev_done(id, SuiteExit::Success));
    } else {
        send(
            stream,
            &proto::ev_error(
                id,
                ErrorCode::KernelFailures,
                &format!("{} kernel failure(s) across sweep cells", summary.kernels_failed()),
            ),
        );
        send(stream, &proto::ev_done(id, SuiteExit::KernelFailures));
    }
}

/// One profile source for an analyze request: where to load it from plus
/// the content fingerprint that enters the cache key.
enum AnalyzeSource {
    /// A `.cali.json` file on disk (fingerprint = hash of its bytes).
    File(PathBuf, String),
    /// A store object carrying an inline `report.profile` (fingerprint =
    /// the object's content-addressed name).
    StoreObject(PathBuf, String),
}

impl AnalyzeSource {
    fn fingerprint(&self) -> &str {
        match self {
            AnalyzeSource::File(_, f) | AnalyzeSource::StoreObject(_, f) => f,
        }
    }

    /// Load and parse the profile. `Ok(None)` means the source carries no
    /// profile (e.g. a store object from a non-run record) and is skipped
    /// silently; `Err` is a skip with a reason.
    fn load(&self) -> Result<Option<thicket::ProfileData>, String> {
        match self {
            AnalyzeSource::File(path, _) => {
                let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
                thicket::ProfileData::from_caliper_json(&text)
                    .map(Some)
                    .map_err(|e| e.to_string())
            }
            AnalyzeSource::StoreObject(path, _) => {
                let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
                let record: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
                let Some(profile) = record.get("report").and_then(|r| r.get("profile")) else {
                    return Ok(None);
                };
                if profile.is_null() {
                    return Ok(None);
                }
                thicket::ProfileData::from_caliper_json(&profile.to_string())
                    .map(Some)
                    .map_err(|e| e.to_string())
            }
        }
    }
}

/// Enumerate an analyze request's corpus. `store` addresses the daemon's
/// own content-addressed store; anything else is a directory of
/// `.cali.json` profiles. Sources come back sorted by fingerprint so the
/// cache key is independent of directory iteration order.
fn analyze_sources(dir: &str, store: &ProfileStore) -> Result<Vec<AnalyzeSource>, String> {
    let mut sources = Vec::new();
    if dir == "store" {
        let objects = store.root().join("objects");
        let shards = std::fs::read_dir(&objects)
            .map_err(|e| format!("cannot read {}: {e}", objects.display()))?;
        for shard in shards.flatten() {
            let Ok(files) = std::fs::read_dir(shard.path()) else { continue };
            for f in files.flatten() {
                let path = f.path();
                if path.extension().is_some_and(|e| e == "json") {
                    // The file stem *is* the object's content hash.
                    let fp = path
                        .file_stem()
                        .map(|s| s.to_string_lossy().into_owned())
                        .unwrap_or_default();
                    sources.push(AnalyzeSource::StoreObject(path, fp));
                }
            }
        }
    } else {
        let dir = Path::new(dir);
        let entries = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.to_string_lossy().ends_with(".cali.json") {
                let fp = match std::fs::read(&path) {
                    Ok(bytes) => {
                        crate::store::content_hash(&String::from_utf8_lossy(&bytes))
                    }
                    // Unreadable now: fingerprint the failure so the miss
                    // re-attempts (and re-reports) rather than caching it.
                    Err(e) => crate::store::content_hash(&format!("unreadable:{e}")),
                };
                sources.push(AnalyzeSource::File(path, fp));
            }
        }
    }
    sources.sort_by(|a, b| a.fingerprint().cmp(b.fingerprint()));
    Ok(sources)
}

/// The cache key of an analyze request: the requested metric plus the exact
/// corpus content, versioned by both the build and the analysis engine so a
/// rebuilt daemon or a changed columnar layout is a miss, never a stale hit.
fn analyze_key(metric: &str, sources: &[AnalyzeSource]) -> Value {
    json!({
        "kind": "analyze",
        "code_version": suite::code_version(),
        "engine": thicket::ENGINE_VERSION,
        "metric": metric,
        "corpus": Value::Array(
            sources
                .iter()
                .map(|s| Value::String(s.fingerprint().to_string()))
                .collect()
        ),
    })
}

fn execute_analyze(id: &str, dir: &str, metric: &str, stream: &UnixStream, shared: &Arc<Shared>) {
    let sources = match analyze_sources(dir, &shared.store) {
        Ok(s) => s,
        Err(msg) => {
            send(stream, &proto::ev_error(id, ErrorCode::Internal, &msg));
            send(stream, &proto::ev_done(id, SuiteExit::Internal));
            return;
        }
    };

    // A corpus already analyzed under this build + engine + metric is a
    // pure replay: no JSON re-parse, no re-composition, no aggregation.
    let key = analyze_key(metric, &sources);
    let hash = ProfileStore::key_hash(&key);
    if let Some(record) = shared.store.get_derived(&key) {
        let report = record.get("report").cloned().unwrap_or(Value::Null);
        send(stream, &json!({"event": "cached", "id": id, "store_key": hash.clone()}));
        send(stream, &proto::ev_result(id, true, Some(&hash), report));
        send(stream, &proto::ev_done(id, SuiteExit::Success));
        return;
    }

    // Stream the corpus through the incremental ingester one profile at a
    // time — the session compacts periodically, so memory tracks the
    // compacted frame, not a vector of parsed JSON documents.
    let mut session = thicket::IngestSession::new();
    let mut skipped = 0usize;
    for source in &sources {
        match source.load() {
            Ok(Some(profile)) => session.ingest(&profile),
            Ok(None) => {}
            Err(_) => skipped += 1,
        }
    }
    let mut tk = session.finish();
    if tk.profiles.is_empty() {
        send(
            stream,
            &proto::ev_error(
                id,
                ErrorCode::Internal,
                &format!("no usable profiles in {dir}"),
            ),
        );
        send(stream, &proto::ev_done(id, SuiteExit::Internal));
        return;
    }
    let mean = tk.stats(metric, thicket::Stat::Mean);
    let mn = tk.stats(metric, thicket::Stat::Min);
    let mx = tk.stats(metric, thicket::Stat::Max);
    let mut rows = Vec::new();
    for nid in 0..tk.nodes.len() {
        let m = tk.stat_value(&mean, nid).unwrap_or(f64::NAN);
        if m.is_nan() {
            continue;
        }
        rows.push(json!({
            "node": tk.nodes[nid].path.join("/"),
            "mean": m,
            "min": tk.stat_value(&mn, nid).unwrap_or(f64::NAN),
            "max": tk.stat_value(&mx, nid).unwrap_or(f64::NAN),
        }));
    }
    let report = json!({
        "profiles": tk.profiles.len(),
        "nodes": tk.nodes.len(),
        "columns": tk.column_names().len(),
        "skipped": skipped,
        "metric": metric,
        "table": Value::Array(rows),
    });
    let stored = match shared.store.put_derived(&key, json!({"report": report.clone()})) {
        Ok(h) => Some(h),
        Err(e) => {
            eprintln!("rajaperfd: store write failed for {id}: {e}");
            None
        }
    };
    send(stream, &proto::ev_result(id, false, stored.as_deref(), report));
    send(stream, &proto::ev_done(id, SuiteExit::Success));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_key_is_canonical_and_build_versioned() {
        let a = RunParams::parse(&[
            "--kernels".to_string(),
            "Basic_DAXPY".to_string(),
            "--size".to_string(),
            "1000".to_string(),
        ])
        .unwrap();
        // Same campaign spelled differently (duplicate name) → same key.
        let b = RunParams::parse(&[
            "--kernels".to_string(),
            "Basic_DAXPY,Basic_DAXPY".to_string(),
            "--size".to_string(),
            "1000".to_string(),
        ])
        .unwrap();
        assert_eq!(run_key(&a), run_key(&b));
        assert_eq!(
            run_key(&a)["code_version"].as_str(),
            Some(suite::code_version())
        );
        // Different size → different key.
        let c = RunParams {
            explicit_size: Some(2000),
            ..a.clone()
        };
        assert_ne!(
            ProfileStore::key_hash(&run_key(&a)),
            ProfileStore::key_hash(&run_key(&c))
        );
    }
}
