//! Caliper-style performance instrumentation.
//!
//! [Caliper](https://github.com/LLNL/Caliper) is LLNL's library-level
//! performance profiling toolkit: applications annotate code *regions*, and
//! Caliper services attach measurements (timers, hardware counters,
//! application metrics) to the call-path those regions form. Each run writes
//! a `.cali` profile that analysis tools (Thicket) consume, with Adiak run
//! metadata embedded as profile *globals*.
//!
//! This crate reproduces that model for the RAJAPerf-rs suite:
//!
//! * [`Session`] — a measurement channel holding the call-path tree and
//!   per-node aggregated statistics. A process-wide default session backs the
//!   free functions ([`begin`], [`end`], [`set_metric`], ...), mirroring how
//!   Caliper's annotation macros write into implicitly-configured channels.
//! * [`Region`] — RAII guard for scoped annotation (`CALI_CXX_MARK_SCOPE`).
//! * [`ConfigManager`] — parses Caliper-style config strings such as
//!   `"runtime-report,output=stdout"` or `"spot(output=run.cali)"` and
//!   controls which outputs `flush` produces.
//! * [`Profile`] — the serialized run profile (globals + per-node records),
//!   our JSON equivalent of a `.cali` file.
//!
//! # Example
//! ```
//! use caliper::Session;
//! let session = Session::new();
//! {
//!     let _r = session.region("Stream_TRIAD");
//!     session.set_metric("Bytes/Rep", 3.0e6);
//!     // ... kernel work ...
//! }
//! let profile = session.profile();
//! assert_eq!(profile.records.len(), 1);
//! assert_eq!(profile.records[0].path, vec!["Stream_TRIAD"]);
//! ```

pub mod trace;

use serde::{Deserialize, Serialize};
use simsched::sync::atomic::{AtomicBool, Ordering};
use simsched::sync::Mutex;
use simsched::time::Instant;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, OnceLock};

/// Synthetic root node that receives metrics recorded while no region is
/// open. Caliper attaches such values to the channel root rather than
/// discarding them; routing them here keeps every [`Record`] path non-empty.
pub const SYNTHETIC_ROOT: &str = "(root)";

/// Aggregated statistics for one metric on one call-path node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricAgg {
    /// Sum of all recorded values.
    pub sum: f64,
    /// Minimum recorded value.
    pub min: f64,
    /// Maximum recorded value.
    pub max: f64,
    /// Number of recorded values.
    pub count: u64,
}

impl MetricAgg {
    fn new(v: f64) -> Self {
        MetricAgg {
            sum: v,
            min: v,
            max: v,
            count: 1,
        }
    }

    fn record(&mut self, v: f64) {
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.count += 1;
    }

    /// Arithmetic mean of the recorded values.
    pub fn avg(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Statistics collected for one node of the call-path tree.
#[derive(Debug, Clone, Default)]
struct NodeStats {
    /// Inclusive wall-time aggregation (seconds) over visits.
    time: Option<MetricAgg>,
    /// Number of begin/end visits.
    visits: u64,
    /// Application metrics attached with `set_metric`/`add_metric`.
    metrics: BTreeMap<String, MetricAgg>,
}

/// One record of a serialized profile: a call path plus its metric columns.
///
/// Metric column names follow Caliper's aggregation naming convention:
/// `sum#time.duration`, `avg#time.duration`, `min#...`, `max#...`, and the
/// raw metric name for application metrics (average over visits) alongside
/// `sum#<name>` / `min#<name>` / `max#<name>`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Call path from the root region to this node.
    pub path: Vec<String>,
    /// Aggregated metric columns.
    pub metrics: BTreeMap<String, f64>,
}

impl Record {
    /// Final path component (the region's own name).
    pub fn name(&self) -> &str {
        self.path.last().map(String::as_str).unwrap_or("")
    }

    /// Look up a metric column.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }
}

/// A serialized run profile — our `.cali` equivalent.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Profile {
    /// Run-level metadata (the Adiak snapshot), name → JSON value.
    pub globals: BTreeMap<String, serde_json::Value>,
    /// Per-call-path aggregated records, in depth-first path order.
    pub records: Vec<Record>,
}

impl Profile {
    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("profile serialization cannot fail")
    }

    /// Parse a profile from JSON text.
    pub fn from_json(text: &str) -> Result<Profile, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Write the profile to a file, atomically (see [`write_atomic`]): a
    /// mid-write kill never leaves a torn `.cali.json` behind.
    pub fn write_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        write_atomic(path, self.to_json().as_bytes())
    }

    /// Read a profile from a file.
    pub fn read_file(path: &std::path::Path) -> std::io::Result<Profile> {
        let text = std::fs::read_to_string(path)?;
        Profile::from_json(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Render a `runtime-report`-style aligned text table of the call tree.
    pub fn runtime_report(&self) -> String {
        let mut out = String::new();
        let name_w = self
            .records
            .iter()
            .map(|r| r.name().len() + 2 * r.path.len().saturating_sub(1))
            .max()
            .unwrap_or(4)
            .max("Path".len());
        out.push_str(&format!(
            "{:<name_w$} {:>10} {:>12} {:>12} {:>12}\n",
            "Path", "Count", "Time (sum)", "Time (avg)", "Time (max)"
        ));
        for r in &self.records {
            let indent = "  ".repeat(r.path.len().saturating_sub(1));
            let label = format!("{indent}{}", r.name());
            out.push_str(&format!(
                "{:<name_w$} {:>10} {:>12.6} {:>12.6} {:>12.6}\n",
                label,
                r.metric("count").unwrap_or(0.0) as u64,
                r.metric("sum#time.duration").unwrap_or(0.0),
                r.metric("avg#time.duration").unwrap_or(0.0),
                r.metric("max#time.duration").unwrap_or(0.0),
            ));
        }
        out
    }

    /// Find the record with the given final path component.
    pub fn find(&self, name: &str) -> Option<&Record> {
        self.records.iter().find(|r| r.name() == name)
    }

    /// A global metadata value as a string, if present.
    pub fn global_str(&self, name: &str) -> Option<&str> {
        self.globals.get(name).and_then(|v| v.as_str())
    }
}

/// Crash-safe file write: the contents land in a temp file in the
/// destination directory, are fsynced, and are renamed over `path` — so a
/// reader (or a process killed mid-write) only ever observes the old
/// contents or the complete new contents, never a torn prefix. Parent
/// directories are created as needed. Every profile, trace, cache, and
/// manifest write in the suite routes through here.
///
/// Carries the `io.write` simfault failpoint: an armed `truncate` entry
/// reproduces the torn write this helper exists to prevent (a strict prefix
/// written straight to `path`, no error surfaced — what a mid-write kill of
/// a bare `fs::write` leaves behind), so integrity validation downstream
/// can be exercised deterministically.
pub fn write_atomic(path: &std::path::Path, contents: &[u8]) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => {
            std::fs::create_dir_all(d)?;
            Some(d)
        }
        _ => None,
    };
    if let Some(keep) = simfault::truncated_len("io.write", contents.len()) {
        std::fs::write(path, &contents[..keep])?;
        return Ok(());
    }
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "out".to_string());
    let tmp = path.with_file_name(format!(".{}.tmp.{}", name, std::process::id()));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    match result {
        Ok(()) => {
            // Best-effort directory fsync so the rename itself is durable.
            if let Some(dir) = dir {
                if let Ok(d) = std::fs::File::open(dir) {
                    let _ = d.sync_all();
                }
            }
            Ok(())
        }
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Remove the temp files [`write_atomic`] left in `dir` whose writer is no
/// longer a live process: a `kill -9` inside a write window orphans one,
/// named after the killed pid, and nothing else would ever collect it. A
/// temp whose pid is alive — this process, a sibling rank, an unrelated
/// process that inherited the pid — is left alone. Liveness is read from
/// `/proc`; without one, nothing is removed.
pub fn remove_orphaned_temps(dir: &std::path::Path) {
    let proc_dir = std::path::Path::new("/proc");
    if !proc_dir.join("self").exists() {
        return;
    }
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let writer = name.strip_prefix('.').and_then(|n| n.rsplit_once(".tmp."));
        let orphaned = writer.is_some_and(|(_, pid)| {
            pid.parse::<u32>().is_ok() && !proc_dir.join(pid).exists()
        });
        if orphaned {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

#[derive(Default)]
struct SessionInner {
    /// Call-path tree flattened to path → stats.
    nodes: BTreeMap<Vec<String>, NodeStats>,
    /// Extra globals set directly on the session (merged over Adiak's).
    globals: BTreeMap<String, serde_json::Value>,
}

thread_local! {
    /// Per-thread open-region stack: (session id, name, start time).
    static STACK: std::cell::RefCell<Vec<(u64, String, Instant)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

static NEXT_SESSION_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// A measurement channel: annotation state plus aggregated statistics.
///
/// Cloning a `Session` yields another handle to the same channel.
#[derive(Clone)]
pub struct Session {
    id: u64,
    inner: Arc<Mutex<SessionInner>>,
    /// Opt-in event-trace mode: when set, begin/end/metric calls also record
    /// timestamped events in the global [`trace`] collector.
    events: Arc<AtomicBool>,
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Session {
    /// Create a fresh, empty measurement channel.
    pub fn new() -> Session {
        Session {
            id: NEXT_SESSION_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            inner: Arc::new(Mutex::new(SessionInner::default())),
            events: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Switch this session's event-trace mode on: every subsequent
    /// begin/end/metric call is additionally recorded as a timestamped event
    /// in the global [`trace`] collector (which this also enables). While
    /// off — the default — the only cost on the annotation path is one
    /// relaxed atomic load.
    pub fn enable_event_trace(&self) {
        trace::enable();
        self.events.store(true, Ordering::Relaxed);
    }

    /// Switch this session's event-trace mode off. The global [`trace`]
    /// collector is left as-is (other producers may still be tracing).
    pub fn disable_event_trace(&self) {
        self.events.store(false, Ordering::Relaxed);
    }

    /// Whether this session records trace events.
    pub fn event_trace_enabled(&self) -> bool {
        self.events.load(Ordering::Relaxed)
    }

    /// Open a region named `name` nested under the calling thread's current
    /// path. Prefer [`Session::region`] which closes automatically.
    pub fn begin(&self, name: &str) {
        if self.events.load(Ordering::Relaxed) {
            trace::begin_event(name);
        }
        STACK.with(|s| {
            s.borrow_mut()
                .push((self.id, name.to_string(), Instant::now()));
        });
    }

    /// Close the innermost region *opened through this session*. The
    /// region's inclusive wall time is aggregated into the call-path tree.
    ///
    /// Other sessions' open regions on the same thread are left untouched,
    /// so independent sessions may interleave (each properly nested in
    /// itself) on one thread — as independent Caliper channels can.
    ///
    /// # Panics
    /// Panics if this session has no open region on the calling thread, or
    /// if `name` is not this session's innermost open region (mismatched
    /// begin/end is an annotation bug, as in Caliper, which aborts with an
    /// error in that case).
    pub fn end(&self, name: &str) {
        let (path, elapsed) = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let idx = stack
                .iter()
                .rposition(|f| f.0 == self.id)
                .expect("caliper: end() with no open region in this session");
            let top = stack.remove(idx);
            assert_eq!(
                top.1, name,
                "caliper: mismatched region nesting: ended '{name}', expected '{}'",
                top.1
            );
            let mut path: Vec<String> = stack[..idx]
                .iter()
                .filter(|f| f.0 == self.id)
                .map(|f| f.1.clone())
                .collect();
            path.push(top.1);
            (path, top.2.elapsed().as_secs_f64())
        });
        if self.events.load(Ordering::Relaxed) {
            trace::end_event(name);
        }
        let mut inner = self.inner.lock().unwrap();
        let node = inner.nodes.entry(path).or_default();
        node.visits += 1;
        match &mut node.time {
            Some(agg) => agg.record(elapsed),
            t @ None => *t = Some(MetricAgg::new(elapsed)),
        }
    }

    /// Remove this session's innermost open `name` frame without asserting
    /// or aggregating. Used by [`Region`]'s drop while the thread is already
    /// unwinding: a second panic there would abort the process, turning a
    /// diagnosable kernel failure into a coreless abort.
    fn end_quiet(&self, name: &str) {
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(idx) = stack
                .iter()
                .rposition(|f| f.0 == self.id && f.1 == name)
            {
                // Also sweep this session's frames above idx: those are
                // inner regions whose end() the panic skipped. Frames from
                // other sessions stay — they are still live.
                let mut i = stack.len();
                while i > idx {
                    i -= 1;
                    if stack[i].0 == self.id {
                        stack.remove(i);
                    }
                }
            }
        });
    }

    /// Open a region and return an RAII guard that closes it on drop.
    pub fn region(&self, name: &str) -> Region<'_> {
        self.begin(name);
        Region {
            session: self,
            name: name.to_string(),
            done: false,
        }
    }

    /// Current open call path on this thread for this session.
    fn current_path(&self) -> Vec<String> {
        STACK.with(|s| {
            s.borrow()
                .iter()
                .filter(|f| f.0 == self.id)
                .map(|f| f.1.clone())
                .collect()
        })
    }

    /// Call path a metric recorded right now should attach to: the current
    /// open path, or the [`SYNTHETIC_ROOT`] record when no region is open
    /// (an empty path would make every per-record `path.len() - 1`
    /// computation underflow).
    fn metric_path(&self) -> Vec<String> {
        let path = self.current_path();
        if path.is_empty() {
            vec![SYNTHETIC_ROOT.to_string()]
        } else {
            path
        }
    }

    /// Attach a metric value to the current region, replacing any previous
    /// value recorded at this node (set semantics — used for per-run
    /// analytic metrics like `Bytes/Rep` that do not vary between visits).
    pub fn set_metric(&self, name: &str, value: f64) {
        if self.events.load(Ordering::Relaxed) {
            trace::counter_event(name, value);
        }
        let path = self.metric_path();
        let mut inner = self.inner.lock().unwrap();
        let node = inner.nodes.entry(path).or_default();
        node.metrics.insert(name.to_string(), MetricAgg::new(value));
    }

    /// Attach a metric observation to the current region, aggregating
    /// (sum/min/max/avg) with previous observations.
    pub fn add_metric(&self, name: &str, value: f64) {
        if self.events.load(Ordering::Relaxed) {
            trace::counter_event(name, value);
        }
        let path = self.metric_path();
        let mut inner = self.inner.lock().unwrap();
        let node = inner.nodes.entry(path).or_default();
        match node.metrics.get_mut(name) {
            Some(agg) => agg.record(value),
            None => {
                node.metrics.insert(name.to_string(), MetricAgg::new(value));
            }
        }
    }

    /// Set a profile-level global directly (overrides Adiak metadata of the
    /// same name at flush time).
    pub fn set_global(&self, name: &str, value: impl Into<serde_json::Value>) {
        self.inner
            .lock()
            .unwrap()
            .globals
            .insert(name.to_string(), value.into());
    }

    /// Record this profile's rank identity within a multi-rank campaign,
    /// using real Caliper's MPI attribute names (`mpi.rank`,
    /// `mpi.world.size`) so Thicket-side tooling can group and compare
    /// profiles by rank the way it does for actual MPI runs.
    pub fn set_rank(&self, rank: usize, world_size: usize) {
        self.set_global("mpi.rank", rank as i64);
        self.set_global("mpi.world.size", world_size as i64);
    }

    /// Record the cost of an instrumentation layer (e.g. the simulated-device
    /// sanitizer) as profile metadata: stores `<name>_overhead_pct` — the
    /// percentage slowdown of `instrumented` over `baseline` — together with
    /// both raw times, so downstream Thicket analysis can separate tool
    /// overhead from kernel time, the way Caliper annotates its own
    /// measurement overhead.
    pub fn annotate_overhead(
        &self,
        name: &str,
        baseline: std::time::Duration,
        instrumented: std::time::Duration,
    ) {
        let base = baseline.as_secs_f64();
        let inst = instrumented.as_secs_f64();
        let pct = if base > 0.0 {
            ((inst / base) - 1.0).max(0.0) * 100.0
        } else {
            0.0
        };
        self.set_global(&format!("{name}_baseline_s"), base);
        self.set_global(&format!("{name}_time_s"), inst);
        self.set_global(&format!("{name}_overhead_pct"), pct);
    }

    /// Build the current [`Profile`]: Adiak snapshot + session globals +
    /// aggregated records.
    pub fn profile(&self) -> Profile {
        let inner = self.inner.lock().unwrap();
        let mut globals: BTreeMap<String, serde_json::Value> = adiak::snapshot()
            .0
            .into_iter()
            .map(|(k, e)| {
                (
                    k,
                    serde_json::to_value(e.value).expect("adiak value serializes"),
                )
            })
            .collect();
        globals.extend(inner.globals.clone());
        // Exclusive time: each node's inclusive sum minus its direct
        // children's inclusive sums (Caliper's `exclusive#time.duration`).
        // Keyed by the parent's path, which is the child's minus its last
        // component; a sum under a path that is no node is never read.
        let mut child_sums: BTreeMap<&[String], f64> = BTreeMap::new();
        for (path, stats) in &inner.nodes {
            if let (Some(t), [parent @ .., _]) = (&stats.time, path.as_slice()) {
                *child_sums.entry(parent).or_default() += t.sum;
            }
        }
        let records = inner
            .nodes
            .iter()
            .map(|(path, stats)| {
                let mut metrics = BTreeMap::new();
                metrics.insert("count".to_string(), stats.visits as f64);
                if let Some(t) = &stats.time {
                    metrics.insert("sum#time.duration".to_string(), t.sum);
                    metrics.insert("avg#time.duration".to_string(), t.avg());
                    metrics.insert("min#time.duration".to_string(), t.min);
                    metrics.insert("max#time.duration".to_string(), t.max);
                    let excl =
                        (t.sum - child_sums.get(path.as_slice()).copied().unwrap_or(0.0)).max(0.0);
                    metrics.insert("exclusive#time.duration".to_string(), excl);
                }
                for (name, agg) in &stats.metrics {
                    metrics.insert(name.clone(), agg.avg());
                    metrics.insert(format!("sum#{name}"), agg.sum);
                    metrics.insert(format!("min#{name}"), agg.min);
                    metrics.insert(format!("max#{name}"), agg.max);
                }
                Record {
                    path: path.clone(),
                    metrics,
                }
            })
            .collect();
        Profile {
            globals,
            records,
        }
    }

    /// Discard all aggregated data (globals and nodes).
    pub fn reset(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.nodes.clear();
        inner.globals.clear();
    }
}

/// RAII region guard returned by [`Session::region`].
pub struct Region<'a> {
    session: &'a Session,
    name: String,
    done: bool,
}

impl Region<'_> {
    /// Close the region explicitly before the end of scope.
    pub fn end(mut self) {
        self.session.end(&self.name);
        self.done = true;
    }
}

impl Drop for Region<'_> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        if std::thread::panicking() {
            // end()'s nesting asserts can legitimately fire here (the panic
            // may have skipped inner end() calls); a panic-in-drop during
            // unwinding aborts the process. Drop the frame silently — the
            // visit is lost, but the original panic stays diagnosable.
            self.session.end_quiet(&self.name);
        } else {
            self.session.end(&self.name);
        }
    }
}

fn default_session() -> &'static Session {
    static DEFAULT: OnceLock<Session> = OnceLock::new();
    DEFAULT.get_or_init(Session::new)
}

/// The process-wide default session backing the free annotation functions.
pub fn global() -> &'static Session {
    default_session()
}

/// Open a region on the default session (see [`Session::begin`]).
pub fn begin(name: &str) {
    global().begin(name);
}

/// Close a region on the default session (see [`Session::end`]).
pub fn end(name: &str) {
    global().end(name);
}

/// Scoped region on the default session.
pub fn region(name: &str) -> Region<'static> {
    global().region(name)
}

/// Set a metric on the default session's current region.
pub fn set_metric(name: &str, value: f64) {
    global().set_metric(name, value);
}

/// Slash-joined path of every region open on the calling thread — across
/// all sessions, in the order they were opened — or `None` outside any
/// region. This is the attribution hook diagnostic layers use to tie a
/// low-level event to the kernel/variant the suite was measuring at the
/// time: the lock-order analyzer installs it as `simsched`'s context
/// provider so a reported deadlock cycle names the Caliper region (e.g.
/// `RAJAPerf/Stream/Stream_TRIAD`) each edge was recorded under. It spans
/// sessions deliberately — the suite measures through a private session,
/// and "what was this thread inside" is the question being answered.
pub fn current_region_path() -> Option<String> {
    STACK.with(|s| {
        let stack = s.borrow();
        if stack.is_empty() {
            None
        } else {
            Some(
                stack
                    .iter()
                    .map(|f| f.1.as_str())
                    .collect::<Vec<_>>()
                    .join("/"),
            )
        }
    })
}

/// One parsed output target from a [`ConfigManager`] spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutputSpec {
    /// `runtime-report` service: human-readable table.
    RuntimeReport {
        /// `stdout`, `stderr`, or a file path.
        output: String,
    },
    /// `spot` / `hatchet-region-profile` service: machine-readable profile.
    SpotProfile {
        /// File path for the JSON profile.
        output: String,
    },
    /// `trace` service: event timeline from the [`trace`] collector.
    Trace {
        /// File path for the Chrome Trace Event JSON.
        output: String,
        /// Optional file path for flamegraph folded stacks.
        folded: Option<String>,
    },
}

/// Parses Caliper-style configuration strings and drives profile output.
///
/// Supported grammar (a faithful subset of Caliper's ConfigManager):
/// comma-separated services, each optionally parameterized either inline
/// (`spot(output=run.cali)`) or with trailing `key=value` arguments that bind
/// to the most recent service (`runtime-report,output=stdout`).
///
/// Recognized services: `runtime-report`, `spot`, `hatchet-region-profile`,
/// and `trace` (alias `event-trace`), which serializes the global [`trace`]
/// event log as Chrome Trace Event JSON (`output=`) and optionally as
/// flamegraph folded stacks (`folded=`).
#[derive(Debug, Default)]
pub struct ConfigManager {
    outputs: Vec<OutputSpec>,
    error: Option<String>,
}

impl ConfigManager {
    /// Create an empty manager.
    pub fn new() -> ConfigManager {
        ConfigManager::default()
    }

    /// Add a config string. Unknown services record an error retrievable via
    /// [`ConfigManager::error`], matching Caliper's behaviour of reporting
    /// rather than panicking.
    pub fn add(&mut self, spec: &str) -> &mut Self {
        for part in split_top_level(spec) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let is_kv = match (part.find('='), part.find('(')) {
                (Some(eq), Some(paren)) => eq < paren,
                (Some(_), None) => true,
                _ => false,
            };
            if is_kv {
                let (key, value) = part.split_once('=').expect("checked above");
                // Trailing key=value binds to the most recent service.
                match self.outputs.last_mut() {
                    Some(OutputSpec::RuntimeReport { output })
                    | Some(OutputSpec::SpotProfile { output })
                    | Some(OutputSpec::Trace { output, .. })
                        if key.trim() == "output" =>
                    {
                        *output = value.trim().to_string();
                    }
                    Some(OutputSpec::Trace { folded, .. }) if key.trim() == "folded" => {
                        *folded = Some(value.trim().to_string());
                    }
                    _ => {
                        self.error =
                            Some(format!("caliper config: dangling argument '{key}={value}'"));
                    }
                }
                continue;
            }
            let (service, args) = match part.split_once('(') {
                Some((s, rest)) => (
                    s.trim(),
                    rest.trim_end_matches(')')
                        .split(',')
                        .filter_map(|kv| kv.split_once('='))
                        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
                        .collect::<BTreeMap<_, _>>(),
                ),
                None => (part, BTreeMap::new()),
            };
            let output = |default| args.get("output").map_or(default, String::as_str).to_string();
            match service {
                "runtime-report" => self.outputs.push(OutputSpec::RuntimeReport {
                    output: output("stderr"),
                }),
                "spot" | "hatchet-region-profile" => self.outputs.push(OutputSpec::SpotProfile {
                    output: output("profile.cali.json"),
                }),
                "trace" | "event-trace" => self.outputs.push(OutputSpec::Trace {
                    output: output("trace.json"),
                    folded: args.get("folded").cloned(),
                }),
                other => {
                    self.error = Some(format!("caliper config: unknown service '{other}'"));
                }
            }
        }
        self
    }

    /// Add an output that is already typed — a path the program computed
    /// reaches `flush` as it is, never through spec text that `add` would
    /// split at `,` `(` `)` `=`.
    pub fn push(&mut self, output: OutputSpec) -> &mut Self {
        self.outputs.push(output);
        self
    }

    /// The first configuration error encountered, if any.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// The parsed output specifications.
    pub fn outputs(&self) -> &[OutputSpec] {
        &self.outputs
    }

    /// Whether any configured service exports the event trace. Callers use
    /// this to switch event collection on for the run — the `trace` service
    /// can only export events that were recorded.
    pub fn requests_event_trace(&self) -> bool {
        self.outputs
            .iter()
            .any(|o| matches!(o, OutputSpec::Trace { .. }))
    }

    /// Produce every configured output from `profile` — the one the caller
    /// built for the run, so what is written is what the caller reports.
    /// Returns the paths of the files written.
    pub fn flush(&self, profile: &Profile) -> std::io::Result<Vec<std::path::PathBuf>> {
        let mut written = Vec::new();
        let mut write = |path: &str, contents: String| {
            written.push(std::path::PathBuf::from(path));
            write_atomic(std::path::Path::new(path), contents.as_bytes())
        };
        for out in &self.outputs {
            match out {
                OutputSpec::RuntimeReport { output } => match output.as_str() {
                    "stdout" => print!("{}", profile.runtime_report()),
                    "stderr" => eprint!("{}", profile.runtime_report()),
                    path => write(path, profile.runtime_report())?,
                },
                OutputSpec::SpotProfile { output } => write(output, profile.to_json())?,
                OutputSpec::Trace { output, folded } => {
                    write(output, trace::export_chrome_json())?;
                    if let Some(folded) = folded {
                        write(folded, trace::export_folded())?;
                    }
                }
            }
        }
        Ok(written)
    }
}

/// Annotate the enclosing scope as a Caliper region on the default
/// session (the `CALI_CXX_MARK_SCOPE` equivalent):
///
/// ```
/// fn kernel_step() {
///     caliper::cali_scope!("kernel_step");
///     // ... work measured until the end of the scope ...
/// }
/// kernel_step();
/// ```
#[macro_export]
macro_rules! cali_scope {
    ($name:expr) => {
        let _cali_region_guard = $crate::region($name);
    };
}

/// Split on commas that are not inside parentheses.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotate_overhead_stores_percentage_and_raw_times() {
        let s = Session::new();
        s.annotate_overhead(
            "sanitizer",
            std::time::Duration::from_secs(1),
            std::time::Duration::from_secs(3),
        );
        let p = s.profile();
        assert_eq!(
            p.globals.get("sanitizer_overhead_pct").and_then(|v| v.as_f64()),
            Some(200.0)
        );
        assert_eq!(
            p.globals.get("sanitizer_baseline_s").and_then(|v| v.as_f64()),
            Some(1.0)
        );
        assert_eq!(
            p.globals.get("sanitizer_time_s").and_then(|v| v.as_f64()),
            Some(3.0)
        );
        // A zero baseline cannot divide; the annotation degrades to 0%.
        s.annotate_overhead("degenerate", std::time::Duration::ZERO, std::time::Duration::ZERO);
        let p = s.profile();
        assert_eq!(
            p.globals.get("degenerate_overhead_pct").and_then(|v| v.as_f64()),
            Some(0.0)
        );
    }

    #[test]
    fn set_rank_stores_mpi_attribute_globals() {
        let s = Session::new();
        s.set_rank(3, 8);
        let p = s.profile();
        assert_eq!(p.globals.get("mpi.rank").and_then(|v| v.as_i64()), Some(3));
        assert_eq!(
            p.globals.get("mpi.world.size").and_then(|v| v.as_i64()),
            Some(8)
        );
    }

    #[test]
    fn region_records_time_and_count() {
        let s = Session::new();
        for _ in 0..3 {
            let _r = s.region("k");
        }
        let p = s.profile();
        let r = p.find("k").unwrap();
        assert_eq!(r.metric("count"), Some(3.0));
        assert!(r.metric("sum#time.duration").unwrap() >= 0.0);
        assert!(r.metric("avg#time.duration").unwrap() <= r.metric("max#time.duration").unwrap());
    }

    #[test]
    fn nesting_builds_call_paths() {
        let s = Session::new();
        {
            let _a = s.region("outer");
            let _b = s.region("inner");
        }
        let p = s.profile();
        assert!(p.records.iter().any(|r| r.path == vec!["outer"]));
        assert!(p
            .records
            .iter()
            .any(|r| r.path == vec!["outer".to_string(), "inner".to_string()]));
    }

    #[test]
    #[should_panic(expected = "mismatched region nesting")]
    fn mismatched_end_panics() {
        let s = Session::new();
        s.begin("a");
        s.end("b");
    }

    #[test]
    fn set_metric_has_set_semantics() {
        let s = Session::new();
        let _r = s.region("k");
        s.set_metric("Bytes/Rep", 10.0);
        s.set_metric("Bytes/Rep", 20.0);
        drop(_r);
        let p = s.profile();
        assert_eq!(p.find("k").unwrap().metric("Bytes/Rep"), Some(20.0));
        assert_eq!(p.find("k").unwrap().metric("sum#Bytes/Rep"), Some(20.0));
    }

    #[test]
    fn add_metric_aggregates() {
        let s = Session::new();
        let _r = s.region("k");
        s.add_metric("m", 1.0);
        s.add_metric("m", 3.0);
        drop(_r);
        let p = s.profile();
        let rec = p.find("k").unwrap();
        assert_eq!(rec.metric("sum#m"), Some(4.0));
        assert_eq!(rec.metric("m"), Some(2.0));
        assert_eq!(rec.metric("min#m"), Some(1.0));
        assert_eq!(rec.metric("max#m"), Some(3.0));
    }

    #[test]
    fn profile_json_roundtrip() {
        let s = Session::new();
        s.set_global("variant", "RAJA_Seq");
        {
            let _r = s.region("k");
            s.set_metric("Flops/Rep", 5.0);
        }
        let p = s.profile();
        let back = Profile::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.global_str("variant"), Some("RAJA_Seq"));
    }

    #[test]
    fn sessions_are_independent() {
        let a = Session::new();
        let b = Session::new();
        {
            let _r = a.region("only_in_a");
        }
        assert!(a.profile().find("only_in_a").is_some());
        assert!(b.profile().find("only_in_a").is_none());
    }

    #[test]
    fn config_manager_parses_specs() {
        let mut cm = ConfigManager::new();
        cm.add("runtime-report,output=stdout");
        cm.add("spot(output=run.cali.json)");
        assert!(cm.error().is_none());
        assert_eq!(
            cm.outputs(),
            &[
                OutputSpec::RuntimeReport {
                    output: "stdout".into()
                },
                OutputSpec::SpotProfile {
                    output: "run.cali.json".into()
                }
            ]
        );
    }

    #[test]
    fn config_manager_reports_unknown_service() {
        let mut cm = ConfigManager::new();
        cm.add("no-such-service");
        assert!(cm.error().unwrap().contains("no-such-service"));
    }

    #[test]
    fn flush_writes_spot_profile() {
        let dir = std::env::temp_dir().join("caliper_test_flush");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("out.cali.json");
        let s = Session::new();
        {
            let _r = s.region("k");
        }
        let mut cm = ConfigManager::new();
        cm.add(&format!("spot(output={})", path.display()));
        let written = cm.flush(&s.profile()).unwrap();
        assert_eq!(written.len(), 1);
        let p = Profile::read_file(&path).unwrap();
        assert!(p.find("k").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_pushed_output_flushes_to_its_path_whatever_characters_it_holds() {
        // `add` splits spec text at `,` `(` `)` `=`; a typed output is
        // never text, so its path arrives whole.
        let dir = std::env::temp_dir().join(format!("caliper_push_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("sw,eep (1)=x").join("run (2),a=b.cali.json");
        let s = Session::new();
        {
            let _r = s.region("k");
        }
        let mut cm = ConfigManager::new();
        cm.push(OutputSpec::SpotProfile {
            output: path.display().to_string(),
        });
        assert_eq!(cm.flush(&s.profile()).unwrap(), vec![path.clone()]);
        assert!(Profile::read_file(&path).unwrap().find("k").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn runtime_report_contains_regions() {
        let s = Session::new();
        {
            let _r = s.region("alpha");
        }
        let report = s.profile().runtime_report();
        assert!(report.contains("alpha"));
        assert!(report.contains("Path"));
    }

    #[test]
    fn exclusive_time_subtracts_children() {
        let s = Session::new();
        {
            let _outer = s.region("outer");
            std::thread::sleep(std::time::Duration::from_millis(4));
            let _inner = s.region("inner");
            std::thread::sleep(std::time::Duration::from_millis(4));
        }
        let p = s.profile();
        let outer = p.records.iter().find(|r| r.path == vec!["outer"]).unwrap();
        let incl = outer.metric("sum#time.duration").unwrap();
        let excl = outer.metric("exclusive#time.duration").unwrap();
        assert!(excl < incl, "exclusive {excl} < inclusive {incl}");
        assert!(excl >= 0.0);
        // The inner leaf has no children: exclusive == inclusive.
        let inner = p
            .records
            .iter()
            .find(|r| r.path == vec!["outer".to_string(), "inner".to_string()])
            .unwrap();
        assert_eq!(
            inner.metric("exclusive#time.duration"),
            inner.metric("sum#time.duration")
        );
    }

    #[test]
    fn exclusive_time_charges_children_to_their_own_parent_only() {
        // Sibling subtrees whose names share a prefix (`a`, `ab`): a child's
        // parent is the path minus its last component, nothing looser.
        let s = Session::new();
        {
            let _root = s.region("root");
            for (mid, leaves) in [("a", &["x", "y"][..]), ("ab", &["x"][..])] {
                let _mid = s.region(mid);
                for leaf in leaves {
                    let _leaf = s.region(leaf);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
        }
        let p = s.profile();
        let at = |path: &[&str], metric: &str| {
            let r = p.records.iter().find(|r| r.path == path).unwrap();
            r.metric(metric).unwrap()
        };
        let sum = |path: &[&str]| at(path, "sum#time.duration");
        let excl = |path: &[&str]| at(path, "exclusive#time.duration");
        let mids = sum(&["root", "a"]) + sum(&["root", "ab"]);
        assert_eq!(excl(&["root"]), sum(&["root"]) - mids);
        let a_leaves = sum(&["root", "a", "x"]) + sum(&["root", "a", "y"]);
        assert_eq!(excl(&["root", "a"]), sum(&["root", "a"]) - a_leaves);
        let ab_leaf = sum(&["root", "ab", "x"]);
        assert_eq!(excl(&["root", "ab"]), sum(&["root", "ab"]) - ab_leaf);
        assert_eq!(excl(&["root", "a", "x"]), sum(&["root", "a", "x"]));
    }

    #[test]
    fn cali_scope_macro_records_a_region() {
        // The macro writes to the default session.
        {
            crate::cali_scope!("macro_region_test");
        }
        let p = crate::global().profile();
        assert!(p
            .records
            .iter()
            .any(|r| r.name() == "macro_region_test"));
    }

    #[test]
    fn threads_share_a_session_with_private_stacks() {
        let s = Session::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    for _ in 0..5 {
                        let _r = s.region("worker");
                    }
                });
            }
        });
        let p = s.profile();
        assert_eq!(
            p.find("worker").unwrap().metric("count"),
            Some(20.0),
            "all threads' visits aggregate"
        );
    }

    #[test]
    fn region_end_explicit() {
        let s = Session::new();
        let r = s.region("k");
        r.end();
        assert_eq!(s.profile().find("k").unwrap().metric("count"), Some(1.0));
    }

    /// Regression: two independent sessions with properly-nested but
    /// interleaved regions on one thread used to panic with "end() crosses
    /// session boundary" because end() popped the thread's topmost frame
    /// unconditionally.
    #[test]
    fn interleaved_sessions_on_one_thread() {
        let a = Session::new();
        let b = Session::new();
        a.begin("outer_a");
        b.begin("outer_b");
        a.begin("inner_a");
        a.end("inner_a"); // topmost overall, fine either way
        a.end("outer_a"); // b's outer_b is topmost — must be skipped over
        b.end("outer_b");
        let pa = a.profile();
        let pb = b.profile();
        // Each session sees only its own nesting.
        assert!(pa.records.iter().any(|r| r.path == vec!["outer_a"]));
        assert!(pa
            .records
            .iter()
            .any(|r| r.path == vec!["outer_a".to_string(), "inner_a".to_string()]));
        assert!(pb.records.iter().any(|r| r.path == vec!["outer_b"]));
        assert_eq!(pb.records.len(), 1, "b never sees a's regions");
    }

    /// Regression: a panic inside a region body used to abort the process —
    /// `Region::drop` called `end()`, whose asserts can themselves panic
    /// while the thread is already unwinding.
    #[test]
    fn panicking_region_body_unwinds_instead_of_aborting() {
        let s = Session::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _outer = s.region("outer");
            s.begin("inner_without_guard"); // its end() will be skipped
            let _leaf = s.region("leaf");
            panic!("kernel failure");
        }));
        assert!(result.is_err(), "the original panic propagates");
        // The stack is clean again: the session remains usable.
        {
            let _r = s.region("after_panic");
        }
        assert_eq!(
            s.profile().find("after_panic").unwrap().metric("count"),
            Some(1.0)
        );
        assert!(
            s.profile()
                .find("after_panic")
                .unwrap()
                .path
                .len()
                == 1,
            "no stale frames nest later regions"
        );
    }

    /// Regression: `set_metric`/`add_metric` with no open region created an
    /// empty-path record, and `runtime_report`'s `path.len() - 1` underflowed.
    #[test]
    fn rootless_metrics_go_to_synthetic_root() {
        let s = Session::new();
        s.set_metric("problem_size", 1.0e6);
        s.add_metric("warmup_time", 0.25);
        let p = s.profile();
        let root = p.find(SYNTHETIC_ROOT).expect("synthetic root record");
        assert_eq!(root.path, vec![SYNTHETIC_ROOT.to_string()]);
        assert_eq!(root.metric("problem_size"), Some(1.0e6));
        assert_eq!(root.metric("sum#warmup_time"), Some(0.25));
        // The report renders without panicking and shows the root.
        let report = s.profile().runtime_report();
        assert!(report.contains(SYNTHETIC_ROOT));
    }

    #[test]
    fn config_manager_parses_trace_service() {
        let mut cm = ConfigManager::new();
        cm.add("trace(output=t.json,folded=t.folded)");
        assert!(cm.error().is_none());
        assert_eq!(
            cm.outputs(),
            &[OutputSpec::Trace {
                output: "t.json".into(),
                folded: Some("t.folded".into())
            }]
        );
        // Trailing key=value binding, Caliper-style.
        let mut cm = ConfigManager::new();
        cm.add("trace,output=x.json,folded=x.folded");
        assert!(cm.error().is_none());
        assert_eq!(
            cm.outputs(),
            &[OutputSpec::Trace {
                output: "x.json".into(),
                folded: Some("x.folded".into())
            }]
        );
    }
}
