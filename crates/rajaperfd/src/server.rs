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
use crate::store::{ProfileStore, Space, StoreKey};
use serde_json::{json, Extended, Serialize, Sink, Value};
use simsched::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use simsched::sync::{Condvar, Mutex, MutexGuard};
use simsched::thread::panic_message;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use suite::params::FLAGS;
use suite::record::{campaign_key, CampaignKey, RunRecord};
use suite::{RunParams, SuiteExit, SuiteReport};

/// Most ranks a daemon-served sweep may request: each rank is a worker
/// thread with a full suite execution context, and a shared daemon serves
/// many concurrent clients, so the admission bound is far below the CLI's
/// [`suite::params::MAX_RANKS`].
pub const MAX_SWEEP_RANKS: usize = 8;

/// Longest request line the daemon reads. `read_line` grows its `String` to
/// whatever the peer sends, so without a bound the allocation is the
/// client's to size; a real request is an argv, far below this.
const MAX_REQUEST_LINE: u64 = 1 << 20;

/// Lock that survives a poisoned peer: the daemon must keep serving other
/// clients after one request's thread panics mid-lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Configuration of one daemon instance.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Unix socket path to listen on (created fresh; a stale file is
    /// replaced).
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
    send_lines(stream, &line);
}

/// [`send`] of event lines already printed, in one write.
fn send_lines(stream: &UnixStream, lines: &str) {
    let _ = (&*stream)
        .write_all(lines.as_bytes())
        .and_then(|_| (&*stream).flush());
}

/// Append one printed event line to the lines a reply has not sent yet.
fn push_line(lines: &mut String, line: &str) {
    lines.push_str(line);
    lines.push('\n');
}

/// Why a request failed: the typed code and its message.
type Failure = (ErrorCode, String);

/// The one terminal reply path: the lines the request composed last
/// (`tail`: a store hit's `cached` and `result`, a miss's `result`), the
/// typed `error` event if it failed, then `done` with the exit code that
/// outcome maps to — all in one write.
fn finish(stream: &UnixStream, id: &str, outcome: Result<(), Failure>, mut tail: String) {
    let exit = match outcome {
        Ok(()) => SuiteExit::Success,
        Err((code, message)) => {
            push_line(&mut tail, &proto::ev_error(id, code, &message).to_string());
            code.exit()
        }
    };
    push_line(&mut tail, &proto::ev_done(id, exit).to_string());
    send_lines(stream, &tail);
}

impl Daemon {
    /// Bind the socket, open the store, and start the accept and worker
    /// threads. Returns once the daemon is accepting connections.
    pub fn start(config: DaemonConfig) -> std::io::Result<Daemon> {
        if let Some(parent) = config.socket.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let store = ProfileStore::open(&config.store_dir)?;
        // `bind` creates the socket file before `listen` makes it
        // connectable, and clients take "the file exists" for "the daemon
        // accepts": listen under a scratch name, then rename into place
        // (which also replaces a stale file).
        let scratch = config.socket.with_extension("tmp");
        let _ = std::fs::remove_file(&scratch);
        let listener = UnixListener::bind(&scratch)?;
        std::fs::rename(&scratch, &config.socket)?;
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
    let req = match BufReader::new((&stream).take(MAX_REQUEST_LINE)).read_line(&mut line) {
        Ok(n) if n as u64 == MAX_REQUEST_LINE && !line.ends_with('\n') => {
            Err(format!("request line exceeds {MAX_REQUEST_LINE} bytes"))
        }
        Ok(_) if !line.trim().is_empty() => Request::parse(line.trim(), &fallback),
        _ => Err("no request line received".to_string()),
    };
    let req = match req {
        Ok(req) => req,
        Err(e) => return finish(&stream, &fallback, Err((ErrorCode::Usage, e)), String::new()),
    };
    let _ = stream.set_read_timeout(None);
    let id = req.id().to_string();
    let outcome = match req {
        Request::Ping { .. } => {
            send(&stream, &proto::ev_pong(&id));
            Ok(())
        }
        Request::Stats { .. } => {
            let stats = proto::ev_stats(
                &id,
                shared.store.stats(),
                lock(&shared.queue).len(),
                shared.capacity,
                shared.served.load(Ordering::Relaxed),
                shared.rejected.load(Ordering::Relaxed),
            );
            send(&stream, &stats);
            Ok(())
        }
        Request::Shutdown { .. } => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.queue_cv.notify_all();
            send(&stream, &proto::ev_shutting_down(&id));
            Ok(())
        }
        req @ (Request::Run { .. } | Request::Sweep { .. } | Request::Analyze { .. }) => {
            let mut queue = lock(&shared.queue);
            if queue.len() < shared.capacity {
                send(&stream, &proto::ev_accepted(&id, queue.len()));
                queue.push_back(Job { req, stream });
                drop(queue);
                shared.queue_cv.notify_one();
                // The worker that executes the job finishes it.
                return;
            }
            // Admission control: a full queue is an immediate typed
            // rejection, not a stall.
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            Err((
                ErrorCode::QueueFull,
                format!("request queue is full ({} queued)", shared.capacity),
            ))
        }
    };
    finish(&stream, &id, outcome, String::new());
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
    let mut tail = String::new();
    let outcome = match job.req {
        Request::Run { argv, .. } => execute_run(&id, &argv, &stream, shared, &mut tail),
        Request::Sweep { argv, .. } => execute_sweep(&id, &argv, &mut tail),
        Request::Analyze { dir, metric, .. } => {
            execute_analyze(&id, &dir, &metric, shared, &mut tail)
        }
        // Control requests never reach the queue.
        Request::Ping { .. } | Request::Stats { .. } | Request::Shutdown { .. } => return,
    };
    finish(&stream, &id, outcome, tail);
}

/// Parse and daemon-validate campaign argv. A flag whose [`FLAGS`] row says
/// the daemon refuses it — it asks for what a replayed store hit cannot
/// give (an event trace), its collector is process-global (lock-order), or
/// it writes server-side files the client never named
/// (free-form Caliper specs; the profile comes back inline in the result
/// instead) — is `unsupported`, with the row's reason.
fn parse_campaign(argv: &[String]) -> Result<RunParams, Failure> {
    let params = RunParams::parse(argv).map_err(|e| (ErrorCode::Usage, e))?;
    let given = |f: &&suite::params::Flag| (f.get)(&params).is_some();
    match FLAGS.iter().filter(given).find_map(|f| f.refused) {
        Some(why) => Err((ErrorCode::Unsupported, why.to_string())),
        None => Ok(params),
    }
}

/// The content-addressed store key of a run request: the run's
/// [`campaign_key`] — the value a sweep cell of the same parameters is keyed
/// by — tagged with the request kind.
pub fn run_key(params: &RunParams) -> Value {
    let mut key = campaign_key(params);
    if let Value::Object(fields) = &mut key {
        fields.insert("kind".to_string(), json!("run"));
    }
    key
}

/// [`run_key`] as the store meets it, printed once from the typed
/// [`CampaignKey`]: its text is `run_key(params).to_string()`, `"kind"`
/// joining the members in sorted position, and no tree is built.
pub fn run_store_key(params: &RunParams) -> StoreKey {
    let key = Extended {
        body: &CampaignKey::of(params),
        extra: &[("kind", &"run")],
    };
    StoreKey::new(serde_json::text::write(&key, false))
}

/// A [`SuiteReport`] as the wire and the store carry it: the run's
/// [`RunRecord`] with the profile inline, printed without a tree.
struct RunReport<'a>(RunRecord, &'a caliper::Profile);

impl<'a> RunReport<'a> {
    fn of(report: &'a SuiteReport) -> RunReport<'a> {
        RunReport(RunRecord::of(report), &report.profile)
    }
}

impl Serialize for RunReport<'_> {
    fn serialize(&self, s: &mut dyn Sink) {
        Extended {
            body: &self.0,
            extra: &[("profile", self.1)],
        }
        .serialize(s)
    }
}

/// Answer from the store: a `cached` marker, then the stored report's text
/// as the result — byte for byte what the miss that stored it sent, with
/// nothing re-executed, parsed or printed, and no progress events. Both
/// join the reply's `tail`, which [`finish`] sends with `done`.
fn replay(id: &str, key: &StoreKey, report: &str, tail: &mut String) {
    push_line(tail, &proto::ev_cached(id, key.hash()).to_string());
    push_line(tail, &proto::result_line(id, true, Some(key.hash()), report));
}

/// Answer with a freshly computed report, printed once: the text the store
/// keeps under `keep` (its space and key; `None`: not kept) is the text the
/// wire carries, so the next identical request's hit sends these bytes.
/// The `result` line joins the reply's `tail`.
fn answer(
    id: &str,
    report: &impl Serialize,
    keep: Option<(&ProfileStore, Space, &StoreKey)>,
    tail: &mut String,
) {
    let text = serde_json::text::write(report, false);
    let store_key = keep
        .map(|(store, space, key)| store.put_report(space, key, &text))
        .and_then(|put| stored(id, put));
    push_line(
        tail,
        &proto::result_line(id, false, store_key.as_deref(), &text),
    );
}

/// The `store_key` of a freshly stored result. A failed store write costs
/// the next identical request a miss, not this one its answer: log it and
/// reply without a key.
fn stored(id: &str, put: std::io::Result<String>) -> Option<String> {
    put.map_err(|e| eprintln!("rajaperfd: store write failed for {id}: {e}"))
        .ok()
}

fn execute_run(
    id: &str,
    argv: &[String],
    stream: &UnixStream,
    shared: &Arc<Shared>,
    tail: &mut String,
) -> Result<(), Failure> {
    let params = parse_campaign(argv)?;
    if params.sweep {
        return Err((
            ErrorCode::Usage,
            "use kind=sweep for --sweep campaigns".into(),
        ));
    }
    let key = run_store_key(&params);
    if let Some(report) = shared.store.get_report(Space::Objects, &key) {
        replay(id, &key, &report, tail);
        return Ok(());
    }
    let report = run_contained(id, &params, stream)?;
    // Cache only clean results: a genuine (un-injected) failure is not a
    // reproducible fact, and a faulty run's value is exercising the
    // injection, not replaying a cached answer.
    let keep = report
        .all_passed()
        .then_some((&shared.store, Space::Objects, &key));
    answer(id, &RunReport::of(&report), keep, tail);
    if report.all_passed() {
        return Ok(());
    }
    let failed: Vec<String> = report
        .outcomes
        .iter()
        .filter(|o| !o.outcome.is_pass())
        .map(|o| format!("{} {}", o.kernel, o.outcome.label()))
        .collect();
    Err((
        ErrorCode::KernelFailures,
        format!("kernel failure(s): {}", failed.join(", ")),
    ))
}

/// Execute the campaign, streaming its progress to the client.
fn run_contained(
    id: &str,
    params: &RunParams,
    stream: &UnixStream,
) -> Result<SuiteReport, Failure> {
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
            format!("campaign panicked: {}", panic_message(&*p)),
        )
    })
}

fn execute_sweep(id: &str, argv: &[String], tail: &mut String) -> Result<(), Failure> {
    let params = parse_campaign(argv)?;
    if !params.sweep {
        return Err((ErrorCode::Usage, "kind=sweep requires --sweep".into()));
    }
    if params.sweep_dir.is_none() {
        // Concurrent sweeps into the shared default directory would race;
        // the daemon insists each sweep names its own.
        return Err((
            ErrorCode::Usage,
            "daemon sweeps require an explicit --sweep-dir".into(),
        ));
    }
    if params.ranks > MAX_SWEEP_RANKS {
        // Each rank — a thread of this daemon or a child process it
        // supervises, per --rank-isolation — holds a full suite execution
        // context; a shared daemon serves many clients, so it admits far
        // fewer ranks per sweep than the CLI allows.
        return Err((
            ErrorCode::Unsupported,
            format!(
                "daemon sweeps accept at most --ranks {MAX_SWEEP_RANKS} (requested {})",
                params.ranks
            ),
        ));
    }
    let summary =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| suite::run_sweep(&params)))
            .map_err(|p| format!("sweep panicked: {}", panic_message(&*p)))
            .and_then(|swept| swept.map_err(|e| format!("sweep failed: {e}")))
            .map_err(|message| (ErrorCode::Internal, message))?;
    answer(id, &suite::SweepReport::of(&params, &summary), None, tail);
    match summary.kernels_failed() {
        0 => Ok(()),
        n => Err((
            ErrorCode::KernelFailures,
            format!("{n} kernel failure(s) across sweep cells"),
        )),
    }
}

/// Where a store object carries its run's profile.
const STORE_PROFILE: &[&str] = &["report", "profile"];

/// One profile source for an analyze request: a `.cali.json` file (the
/// document is the profile) or a store object (the profile is inline at
/// [`STORE_PROFILE`]), plus the content fingerprint that enters the cache
/// key — the hash of a file's bytes, an object's content-addressed name.
struct AnalyzeSource {
    path: PathBuf,
    at: &'static [&'static str],
    fingerprint: String,
}

impl AnalyzeSource {
    /// Ingest the profile into `session`, all or nothing; `false` when the
    /// source is unusable (unreadable, not UTF-8, not JSON, not a profile).
    /// A store object with no profile (not a run's record) ingests nothing
    /// and is not unusable.
    fn ingest_into(&self, session: &mut thicket::IngestSession) -> bool {
        std::fs::read_to_string(&self.path)
            .is_ok_and(|text| session.ingest_json_at(&text, self.at).is_ok())
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
            let Ok(files) = std::fs::read_dir(shard.path()) else {
                continue;
            };
            for f in files.flatten() {
                let path = f.path();
                if path.extension().is_some_and(|e| e == "json") {
                    // The file stem *is* the object's content hash.
                    let fingerprint = path
                        .file_stem()
                        .map(|s| s.to_string_lossy().into_owned())
                        .unwrap_or_default();
                    sources.push(AnalyzeSource {
                        path,
                        at: STORE_PROFILE,
                        fingerprint,
                    });
                }
            }
        }
    } else {
        let paths = thicket::profile_paths(Path::new(dir))
            .map_err(|e| format!("cannot read {dir}: {e}"))?;
        for path in paths {
            let fingerprint = match std::fs::read(&path) {
                Ok(bytes) => crate::store::content_hash(&String::from_utf8_lossy(&bytes)),
                // Unreadable now: fingerprint the failure so the miss
                // re-attempts (and re-reports) rather than caching it.
                Err(e) => crate::store::content_hash(&format!("unreadable:{e}")),
            };
            sources.push(AnalyzeSource {
                path,
                at: &[],
                fingerprint,
            });
        }
    }
    sources.sort_by(|a, b| a.fingerprint.cmp(&b.fingerprint));
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
                .map(|s| Value::String(s.fingerprint.clone()))
                .collect()
        ),
    })
}

fn execute_analyze(
    id: &str,
    dir: &str,
    metric: &str,
    shared: &Arc<Shared>,
    tail: &mut String,
) -> Result<(), Failure> {
    let sources =
        analyze_sources(dir, &shared.store).map_err(|message| (ErrorCode::Internal, message))?;

    // A corpus already analyzed under this build + engine + metric is a
    // pure replay: no JSON re-parse, no re-composition, no aggregation.
    let key = StoreKey::from(&analyze_key(metric, &sources));
    if let Some(report) = shared.store.get_report(Space::Derived, &key) {
        replay(id, &key, &report, tail);
        return Ok(());
    }

    // Stream the corpus through the incremental ingester one profile at a
    // time — each profile's cells land in the frame's dense pending columns
    // and `finish` compacts them once, so memory tracks the frame, not a
    // vector of parsed JSON documents.
    let mut session = thicket::IngestSession::new();
    let skipped = sources
        .iter()
        .filter(|source| !source.ingest_into(&mut session))
        .count();
    let mut tk = session.finish();
    if tk.profiles.is_empty() {
        return Err((ErrorCode::Internal, format!("no usable profiles in {dir}")));
    }
    tk.require_column(metric)
        .map_err(|problem| (ErrorCode::Usage, problem))?;
    let report = json!({
        "profiles": tk.profiles.len(),
        "nodes": tk.nodes.len(),
        "columns": tk.column_names().len(),
        "skipped": skipped,
        "metric": metric,
        "table": tk.statsframe(metric),
    });
    answer(id, &report, Some((&shared.store, Space::Derived, &key)), tail);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(cli: &str) -> RunParams {
        let argv: Vec<String> = cli.split_whitespace().map(str::to_string).collect();
        RunParams::parse(&argv).unwrap()
    }

    #[test]
    fn run_key_is_the_campaign_key_tagged_run_at_an_unmoved_address() {
        let p = params(
            "--kernels Basic_DAXPY,Stream_TRIAD --variant RAJA_SimGpu --size 1000 --reps 2 \
             --gpu-block-size 128 --faults suite.kernel=err:0.5,seed=3 --retries 5 --timeout 1.5",
        );
        let Value::Object(mut fields) = run_key(&p) else {
            panic!("a key is an object");
        };
        // Store addresses do not move: with the build pinned, this request
        // hashes to what the build before `suite::record` computed for it.
        fields.insert("code_version".to_string(), json!("pinned"));
        assert_eq!(
            ProfileStore::key_hash(&Value::Object(fields.clone())),
            "1907073da2911df1ebc03de0615ab726"
        );
        // And the key is the one a sweep cell of this run is cached under,
        // plus the request kind.
        fields.insert("code_version".to_string(), json!(suite::code_version()));
        assert_eq!(fields.remove("kind"), Some(json!("run")));
        assert_eq!(Value::Object(fields), campaign_key(&p));
    }

    #[test]
    fn the_run_report_prints_as_the_tree_of_its_parts() {
        // A `RunReport` prints its record and its profile straight into one
        // buffer. It must print the compact text — what goes on the wire
        // and into the store — of the tree made of the record's JSON with
        // the profile's text form parsed back in, for real profiles of every
        // variant, fault-armed ones (the gated `fault.*` globals) included.
        for (i, variant) in kernels::VariantId::all().into_iter().enumerate() {
            let faults = if i == 1 {
                "--faults suite.kernel=stall(1),seed=1"
            } else {
                ""
            };
            let report = suite::run_suite(&params(&format!(
                "--kernels Basic_DAXPY,Basic_REDUCE3_INT,Algorithm_SORT --size 1000 --reps 2 \
                 --variant {} {faults}",
                variant.name()
            )));
            let globals = &report.profile.globals;
            assert_eq!(globals.contains_key("fault.injected_total"), i == 1);
            let mut tree = json!(RunRecord::of(&report));
            let Value::Object(fields) = &mut tree else {
                panic!("a run record is an object");
            };
            let profile = serde_json::from_str(&report.profile.to_json()).unwrap();
            fields.insert("profile".to_string(), profile);
            assert_eq!(
                serde_json::to_string(&RunReport::of(&report)).unwrap(),
                tree.to_string(),
                "{}",
                variant.name()
            );
        }
    }
}
