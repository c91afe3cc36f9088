//! The Caliper **event-trace service**: a per-thread ring buffer of
//! begin/end/counter/instant events with timestamps and lane ids, plus
//! exporters to Chrome Trace Event JSON (`chrome://tracing` / Perfetto) and
//! flamegraph folded stacks.
//!
//! Real Caliper's aggregating services (what [`crate::Session`] implements)
//! collapse every visit of a region into one call-path record. That is the
//! right shape for Thicket's cross-run dataframes, but it discards the
//! *timeline*: when each visit happened, on which thread, and how visits
//! from different threads interleaved — exactly the information needed to
//! diagnose parallel-backend scalability (why a `Par` variant does not
//! scale) or launch-overhead pathologies. This module is the event-level
//! counterpart, modeled on Caliper's `event` + `trace` services.
//!
//! # Design
//!
//! * **One trace per run.** A [`Trace`] is a cloneable handle to one
//!   collector: its epoch, its lanes and its ring capacity. Like a Caliper
//!   channel's services, it belongs to whoever made it — the suite makes one
//!   per run whose outputs ask for a trace — so a traced run executes beside
//!   untraced ones in the same process and records nothing of theirs.
//! * **Entered per thread.** A thread records into the trace it has
//!   [`Trace::enter`]ed (the guard restores the previous one on drop), and a
//!   [`crate::Session`] made by [`crate::Session::traced`] records into its
//!   own. A thread the run starts joins the run's trace by entering
//!   [`current`], as it joins the run's fault world.
//! * **Per-thread lanes.** Every thread that records gets its own *lane* in
//!   that trace: a fixed-capacity ring buffer it alone writes. Rayon pool
//!   worker `w` gets lane `1 + w` (one swimlane per pool worker); the first
//!   other thread — normally the run thread, which enters first — gets lane
//!   0 (`main`), later ones lanes past [`NONWORKER_LANE_BASE`].
//! * **Zero cost when off.** [`enabled`] is one thread-local `Cell<bool>`
//!   read: whether the calling thread has entered a trace. Every producer
//!   (the gpusim device, the fault observer) checks it before doing any
//!   work, and an untraced session checks only its own `Option`.
//! * **Bounded memory.** Each lane's ring holds [`default capacity`]
//!   events; once full, the oldest events are overwritten and counted in
//!   [`LaneSnapshot::dropped`]. Exporters tolerate the resulting unmatched
//!   begin/end events.
//!
//! # Where each producer records
//!
//! | producer | records on | the trace reached that thread by |
//! |---|---|---|
//! | `Session` regions and metrics (suite > group > kernel spans, counters) | the thread calling the session | the session holds the trace |
//! | `gpusim.launch` instant, `gpusim.*` counters | the launching thread: the run thread, its `--timeout` watchdog, or an exchange kernel's `simcomm` rank | `run_suite` enters it for the timing loop; `exec::attempt` enters it in the watchdog; `kernels::comm` in each rank body |
//! | `gpusim.block` spans | the thread running the block: a pool worker, or the launching thread | the launch takes the launching thread's [`current`] with it; each block enters it |
//! | `simfault.<point>.<mode>` instants | the thread where the fault fires | as for launches |
//! | `simsched.*` lock-order instants | the thread that closes a cycle | as for launches |
//!
//! Nothing else carries the trace: a `RAJA_Par` loop's pool jobs record
//! nothing, so a lock-order cycle closed on a pool worker outside a device
//! block leaves no instant (the `--lock-order` report still lists it). The
//! sanitizer pass runs after the run thread has left its trace, so its
//! launches stay out of the timeline.
//!
//! [`default capacity`]: DEFAULT_LANE_CAPACITY

use simsched::sync::Mutex;
use simsched::time::Instant;
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::Arc;
use std::thread::ThreadId;

/// Default per-lane ring capacity, in events.
pub const DEFAULT_LANE_CAPACITY: usize = 1 << 20;

/// First lane id handed to threads that are *not* rayon pool workers (other
/// than the first such thread to record in a trace, which gets lane 0 —
/// normally the run thread). Pool worker `w` always gets lane `1 + w`.
pub const NONWORKER_LANE_BASE: u32 = 1 << 16;

/// What one trace event records.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A region opened (Chrome phase `B`).
    Begin,
    /// A region closed (Chrome phase `E`).
    End,
    /// A sampled counter value (Chrome phase `C`).
    Counter(f64),
    /// A point-in-time marker (Chrome phase `i`).
    Instant,
}

impl EventKind {
    /// The Chrome Trace Event phase letter.
    pub fn phase(&self) -> &'static str {
        match self {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Counter(_) => "C",
            EventKind::Instant => "i",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event (region/counter/marker) name.
    pub name: String,
    /// What happened.
    pub kind: EventKind,
    /// Microseconds since the trace's epoch (its creation).
    pub ts_us: f64,
}

/// A fixed-capacity overwrite-oldest ring of events.
#[derive(Default)]
struct Ring {
    buf: Vec<TraceEvent>,
    /// Index of the chronologically first event once the ring has wrapped.
    head: usize,
    /// Events overwritten so far.
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: TraceEvent, capacity: usize) {
        if self.buf.len() < capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.buf.len();
            self.dropped += 1;
        }
    }

    fn chronological(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

/// One thread's lane of the event trace, snapshotted for export.
#[derive(Debug, Clone)]
pub struct LaneSnapshot {
    /// Lane id (Chrome `tid`): `1 + worker` for pool workers, 0 for the
    /// trace's first non-worker thread, `NONWORKER_LANE_BASE + k` otherwise.
    pub id: u32,
    /// Human-readable lane label (`main`, `pool-worker-3`, ...).
    pub label: String,
    /// Events in chronological order.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overwrite.
    pub dropped: u64,
}

struct Lane {
    id: u32,
    label: String,
    ring: Mutex<Ring>,
}

struct Collector {
    epoch: Instant,
    capacity: usize,
    /// Every lane, keyed by the thread that writes it.
    lanes: Mutex<Vec<(ThreadId, Arc<Lane>)>>,
}

/// One event trace: a cloneable handle to its collector. Clones record into
/// and export the same lanes.
#[derive(Clone)]
pub struct Trace(Arc<Collector>);

/// The trace a thread has entered, with its lane there.
struct Current(Trace, Arc<Lane>);

thread_local! {
    /// Whether [`CURRENT`] holds a trace: the only thing a producer reads
    /// while the thread records nothing.
    static ON: Cell<bool> = const { Cell::new(false) };
    static CURRENT: RefCell<Option<Current>> = const { RefCell::new(None) };
}

/// Make `current` this thread's trace; returns the one it replaces.
fn install(current: Option<Current>) -> Option<Current> {
    ON.set(current.is_some());
    CURRENT.replace(current)
}

/// A trace entered on this thread; dropping it (unwinding included) puts
/// back whatever was there before.
#[must_use = "dropping the guard leaves the trace immediately"]
pub struct Entered {
    previous: Option<Current>,
    /// `!Send`: the guard restores the thread it was created on.
    _thread: PhantomData<*const ()>,
}

impl Drop for Entered {
    fn drop(&mut self) {
        install(self.previous.take());
    }
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// A fresh trace whose lanes hold [`DEFAULT_LANE_CAPACITY`] events each.
    /// Its creation is timestamp zero.
    pub fn new() -> Trace {
        Trace::with_lane_capacity(DEFAULT_LANE_CAPACITY)
    }

    /// A fresh trace whose lanes hold at most `events` events each.
    pub fn with_lane_capacity(events: usize) -> Trace {
        Trace(Arc::new(Collector {
            epoch: Instant::now(),
            capacity: events.max(1),
            lanes: Mutex::new(Vec::new()),
        }))
    }

    /// Record into this trace on the calling thread for the guard's
    /// lifetime: every producer gated on [`enabled`] writes to this
    /// thread's lane here.
    pub fn enter(&self) -> Entered {
        let previous = install(Some(Current(self.clone(), self.lane())));
        Entered {
            previous,
            _thread: PhantomData,
        }
    }

    /// The calling thread's lane in this trace, registered on first use.
    fn lane(&self) -> Arc<Lane> {
        let me = std::thread::current().id();
        let mut lanes = self.0.lanes.lock().unwrap();
        if let Some((_, lane)) = lanes.iter().find(|(thread, _)| *thread == me) {
            return Arc::clone(lane);
        }
        let others = lanes
            .iter()
            .filter(|(_, l)| l.id == 0 || l.id >= NONWORKER_LANE_BASE);
        let (id, label) = match (rayon::current_worker_index(), others.count() as u32) {
            (Some(w), _) => (1 + w as u32, format!("pool-worker-{w}")),
            (None, 0) => (0, "main".to_string()),
            (None, k) => (NONWORKER_LANE_BASE + k, format!("thread-{k}")),
        };
        let ring = Mutex::default();
        let lane = Arc::new(Lane { id, label, ring });
        lanes.push((me, Arc::clone(&lane)));
        lane
    }

    /// Record one event on the calling thread's lane of this trace, whatever
    /// trace the thread has entered.
    #[cold]
    pub(crate) fn record(&self, name: &str, kind: EventKind) {
        self.push(&self.lane(), name, kind);
    }

    fn push(&self, lane: &Lane, name: &str, kind: EventKind) {
        let ts_us = self.0.epoch.elapsed().as_secs_f64() * 1e6;
        let ev = TraceEvent {
            name: name.to_string(),
            kind,
            ts_us,
        };
        lane.ring.lock().unwrap().push(ev, self.0.capacity);
    }

    /// Snapshot every lane (sorted by lane id), skipping lanes with no events.
    pub fn snapshot(&self) -> Vec<LaneSnapshot> {
        let mut out: Vec<LaneSnapshot> = self
            .0
            .lanes
            .lock()
            .unwrap()
            .iter()
            .map(|(_, lane)| {
                let ring = lane.ring.lock().unwrap();
                LaneSnapshot {
                    id: lane.id,
                    label: lane.label.clone(),
                    events: ring.chronological(),
                    dropped: ring.dropped,
                }
            })
            .filter(|s| !s.events.is_empty())
            .collect();
        out.sort_by_key(|s| s.id);
        out
    }

    /// Serialize this trace as Chrome Trace Event JSON — the "JSON
    /// Array with metadata" flavor, loadable in `chrome://tracing` and Perfetto.
    ///
    /// Every lane becomes a Chrome thread (`tid` = lane id) named via a
    /// `thread_name` metadata event. Regions map to `B`/`E` duration events,
    /// counters to `C` events, markers to thread-scoped `i` events.
    pub fn export_chrome_json(&self) -> String {
        use serde_json::{json, Value};
        let lanes = self.snapshot();
        let mut events = Vec::new();
        for lane in &lanes {
            let (tid, args) = (lane.id, json!({"name": lane.label}));
            events.push(
                json!({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "args": args}),
            );
            for ev in &lane.events {
                let (name, ph, ts) = (&ev.name, ev.kind.phase(), ev.ts_us);
                let mut obj = json!({"name": name, "ph": ph, "pid": 1, "tid": tid, "ts": ts});
                let (key, value) = match ev.kind {
                    EventKind::Begin | EventKind::End => ("cat", json!("region")),
                    EventKind::Counter(v) => ("args", json!({ "value": v })),
                    EventKind::Instant => ("s", json!("t")),
                };
                if let Value::Object(members) = &mut obj {
                    members.insert(key.to_string(), value);
                }
                events.push(obj);
            }
        }
        let dropped: u64 = lanes.iter().map(|l| l.dropped).sum();
        let other =
            json!({"producer": "rajaperf-rs caliper trace service", "dropped_events": dropped});
        let doc = json!({"traceEvents": events, "displayTimeUnit": "ms", "otherData": other});
        serde_json::to_string_pretty(&doc).expect("trace serialization cannot fail")
    }

    /// Serialize this trace as flamegraph *folded stacks*: one line
    /// per distinct call stack, `lane;outer;inner <self-time-us>`, suitable for
    /// `flamegraph.pl` / `inferno-flamegraph`. Values are each stack's
    /// *exclusive* (self) time in integer microseconds, summed over visits.
    ///
    /// Unmatched events (from ring overwrite, or regions still open when the
    /// snapshot was taken) are skipped rather than guessed at.
    pub fn export_folded(&self) -> String {
        use std::collections::BTreeMap;
        let mut agg: BTreeMap<String, f64> = BTreeMap::new();
        for lane in self.snapshot() {
            // Replay the lane's stack: (name, ts_begin, accumulated child time).
            let mut stack: Vec<(String, f64, f64)> = Vec::new();
            for ev in lane.events {
                match ev.kind {
                    EventKind::Begin => stack.push((ev.name, ev.ts_us, 0.0)),
                    EventKind::End => {
                        let Some(pos) = stack.iter().rposition(|f| f.0 == ev.name) else {
                            continue; // unmatched end: begin was overwritten
                        };
                        stack.truncate(pos + 1);
                        let (name, ts0, child) = stack.pop().expect("pos is in range");
                        let dur = (ev.ts_us - ts0).max(0.0);
                        let frames = stack.iter().map(|f| f.0.as_str()).chain([name.as_str()]);
                        let path = frames.fold(lane.label.clone(), |path, f| path + ";" + f);
                        *agg.entry(path).or_default() += (dur - child).max(0.0);
                        if let Some(parent) = stack.last_mut() {
                            parent.2 += dur;
                        }
                    }
                    EventKind::Counter(_) | EventKind::Instant => {}
                }
            }
        }
        agg.iter()
            .map(|(path, self_us)| format!("{path} {}\n", self_us.round() as u64))
            .collect()
    }
}

/// The trace the calling thread has entered, if any: what a thread it
/// starts enters to record into the same run's timeline.
pub fn current() -> Option<Trace> {
    CURRENT.with_borrow(|c| c.as_ref().map(|Current(trace, _)| trace.clone()))
}

/// Whether the calling thread has entered a trace. One thread-local read:
/// this is the producers' fast-path gate, the trace-off zero-cost guarantee.
#[inline]
pub fn enabled() -> bool {
    ON.get()
}

/// Record one event on the calling thread's lane of its entered trace.
/// Cold: callers gate on [`enabled`] first, so this never sits on a
/// trace-off fast path.
#[cold]
fn record(name: &str, kind: EventKind) {
    CURRENT.with_borrow(|c| {
        if let Some(Current(trace, lane)) = c {
            trace.push(lane, name, kind);
        }
    });
}

/// Record a region-begin event (no-op on a thread that has entered no trace).
#[inline]
pub fn begin_event(name: &str) {
    if enabled() {
        record(name, EventKind::Begin);
    }
}

/// Record a region-end event (no-op on a thread that has entered no trace).
#[inline]
pub fn end_event(name: &str) {
    if enabled() {
        record(name, EventKind::End);
    }
}

/// Record a counter sample (no-op on a thread that has entered no trace).
#[inline]
pub fn counter_event(name: &str, value: f64) {
    if enabled() {
        record(name, EventKind::Counter(value));
    }
}

/// Record an instant marker (no-op on a thread that has entered no trace).
#[inline]
pub fn instant_event(name: &str) {
    if enabled() {
        record(name, EventKind::Instant);
    }
}

/// Validate the begin/end discipline of a snapshot: on every lane, events
/// must nest properly and every `Begin` must have a matching `End` with
/// `ts_end >= ts_begin`. Returns the number of complete begin/end pairs.
///
/// This is the invariant the trace exporters rely on and the suite's
/// property test checks across the whole kernel registry. A trace that
/// overflowed its ring (nonzero [`LaneSnapshot::dropped`]) can legitimately
/// violate it; this validator is for bounded traces.
pub fn validate_pairing(lanes: &[LaneSnapshot]) -> Result<usize, String> {
    let mut pairs = 0usize;
    for lane in lanes {
        let mut stack: Vec<(&str, f64)> = Vec::new();
        for ev in &lane.events {
            match ev.kind {
                EventKind::Begin => stack.push((&ev.name, ev.ts_us)),
                EventKind::End => {
                    let (name, ts0) = stack.pop().ok_or_else(|| {
                        format!("lane {}: end '{}' without a begin", lane.label, ev.name)
                    })?;
                    if name != ev.name {
                        return Err(format!(
                            "lane {}: end '{}' does not match open region '{}'",
                            lane.label, ev.name, name
                        ));
                    }
                    if ev.ts_us < ts0 {
                        return Err(format!(
                            "lane {}: region '{}' ends at {} before it begins at {}",
                            lane.label, ev.name, ev.ts_us, ts0
                        ));
                    }
                    pairs += 1;
                }
                EventKind::Counter(_) | EventKind::Instant => {}
            }
        }
        if let Some((name, _)) = stack.last() {
            return Err(format!(
                "lane {}: {} unclosed region(s), innermost '{}'",
                lane.label,
                stack.len(),
                name
            ));
        }
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_that_entered_no_trace_records_nothing() {
        let trace = Trace::new();
        assert!(!enabled());
        begin_event("r");
        end_event("r");
        counter_event("c", 1.0);
        assert!(current().is_none());
        assert!(trace.snapshot().is_empty());
    }

    #[test]
    fn events_record_in_order_with_monotonic_timestamps() {
        let trace = Trace::new();
        {
            let _in = trace.enter();
            begin_event("outer");
            begin_event("inner");
            counter_event("bytes", 42.0);
            end_event("inner");
            end_event("outer");
        }
        assert!(!enabled(), "the guard leaves the trace");
        let lanes = trace.snapshot();
        assert_eq!(lanes.len(), 1);
        assert_eq!((lanes[0].id, lanes[0].label.as_str()), (0, "main"));
        let names: Vec<&str> = lanes[0].events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner", "bytes", "inner", "outer"]);
        assert!(lanes[0].events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        assert_eq!(validate_pairing(&lanes).unwrap(), 2);
    }

    #[test]
    fn entering_nests_and_restores_the_previous_trace() {
        let (outer, inner) = (Trace::new(), Trace::new());
        let _o = outer.enter();
        instant_event("a");
        {
            let _i = inner.enter();
            instant_event("b");
            assert!(current().is_some_and(|t| Arc::ptr_eq(&t.0, &inner.0)));
        }
        instant_event("c");
        let names = |t: &Trace| -> Vec<String> {
            t.snapshot()
                .iter()
                .flat_map(|l| l.events.iter().map(|e| e.name.clone()))
                .collect()
        };
        assert_eq!(names(&outer), ["a", "c"]);
        assert_eq!(names(&inner), ["b"]);
    }

    #[test]
    fn a_started_thread_records_on_its_own_lane_once_it_enters() {
        let trace = Trace::new();
        let _in = trace.enter();
        instant_event("run");
        let handed = current();
        std::thread::spawn(move || {
            instant_event("before");
            let _in = handed.as_ref().map(Trace::enter);
            instant_event("started");
        })
        .join()
        .unwrap();
        let lanes = trace.snapshot();
        let labels: Vec<(&str, &str)> = lanes
            .iter()
            .flat_map(|l| l.events.iter().map(|e| (l.label.as_str(), e.name.as_str())))
            .collect();
        assert_eq!(labels, [("main", "run"), ("thread-1", "started")]);
        assert_eq!(lanes[1].id, NONWORKER_LANE_BASE + 1);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let trace = Trace::with_lane_capacity(4);
        {
            let _in = trace.enter();
            for i in 0..10 {
                instant_event(&format!("ev{i}"));
            }
        }
        let lanes = trace.snapshot();
        let names: Vec<&str> = lanes[0].events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["ev6", "ev7", "ev8", "ev9"], "newest four retained");
        assert_eq!(lanes[0].dropped, 6, "oldest overwritten");
    }

    #[test]
    fn validate_pairing_rejects_malformed_traces() {
        let mk = |events: Vec<TraceEvent>| LaneSnapshot {
            id: 0,
            label: "test".into(),
            events,
            dropped: 0,
        };
        let ev = |name: &str, kind: EventKind, ts: f64| TraceEvent {
            name: name.into(),
            kind,
            ts_us: ts,
        };
        // End without begin.
        let bad = mk(vec![ev("x", EventKind::End, 1.0)]);
        assert!(validate_pairing(&[bad]).is_err());
        // Mismatched nesting.
        let bad = mk(vec![
            ev("a", EventKind::Begin, 1.0),
            ev("b", EventKind::End, 2.0),
        ]);
        assert!(validate_pairing(&[bad]).is_err());
        // Unclosed region.
        let bad = mk(vec![ev("a", EventKind::Begin, 1.0)]);
        assert!(validate_pairing(&[bad]).is_err());
        // End before begin (clock went backwards).
        let bad = mk(vec![
            ev("a", EventKind::Begin, 5.0),
            ev("a", EventKind::End, 1.0),
        ]);
        assert!(validate_pairing(&[bad]).is_err());
    }

    #[test]
    fn a_traced_session_records_begin_end_and_counters() {
        let trace = Trace::new();
        let s = crate::Session::traced(&trace);
        let untraced = crate::Session::new();
        {
            let _r = s.region("kernel");
            s.set_metric("Bytes/Rep", 64.0);
            let _u = untraced.region("not_traced");
        }
        let lanes = trace.snapshot();
        let kinds: Vec<(&str, &EventKind)> = lanes[0]
            .events
            .iter()
            .map(|e| (e.name.as_str(), &e.kind))
            .collect();
        assert_eq!(
            kinds,
            [
                ("kernel", &EventKind::Begin),
                ("Bytes/Rep", &EventKind::Counter(64.0)),
                ("kernel", &EventKind::End),
            ],
            "only the traced session records, on a thread that entered nothing"
        );
        assert!(validate_pairing(&lanes).is_ok());
    }

    #[test]
    fn folded_export_attributes_self_time_to_stacks() {
        let trace = Trace::new();
        {
            let _in = trace.enter();
            begin_event("root");
            begin_event("leaf");
            std::thread::sleep(std::time::Duration::from_millis(2));
            end_event("leaf");
            end_event("root");
        }
        let folded = trace.export_folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2, "root and root;leaf stacks: {folded}");
        let leaf_line = lines.iter().find(|l| l.contains("root;leaf")).unwrap();
        let leaf_us: u64 = leaf_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(
            leaf_us >= 1_000,
            "leaf self time covers the sleep: {leaf_us}"
        );
    }
}
