//! The recording scheduler and bounded model checker (`--cfg simsched`).
//!
//! Loom/shuttle-style stateless exploration. The body passed to [`check`]
//! runs repeatedly; its threads are real OS threads, but exactly one is
//! runnable at a time: every shim operation parks the thread at a
//! *scheduling point* and a controller (on the test thread) picks which
//! pending operation executes next. A schedule is the sequence of those
//! picks; the explorer enumerates schedules depth-first, replaying a prefix
//! and branching at the deepest decision with untried alternatives.
//!
//! Two standard reductions keep the space tractable:
//!
//! - **Sleep sets** (Godefroid): after exploring transition `a` at a state,
//!   sibling branches need not re-explore `b` first when `a` and `b` are
//!   independent (different threads, no shared resource, or both read-only
//!   atomic ops) — the `b;a` ordering commutes with the already-explored
//!   `a;b`.
//! - **Preemption bounding** (CHESS): schedules with more than N
//!   *involuntary* context switches (switching away from a thread that
//!   could have continued) are not explored. Most real concurrency bugs
//!   need very few preemptions; N=2 is the classic sweet spot.
//!
//! Condvar timeouts are a modeling choice: in **strict** mode (default) a
//! `wait_timeout` never times out, so a protocol that leans on its timeout
//! to recover from a lost wakeup deadlocks — and the deadlock is reported
//! with every thread's pending operation. In **lenient** mode
//! ([`Checker::timeouts`]) a timeout is one more explorable transition.
//!
//! Determinism: for a fixed body, bounds, and seed, exploration order and
//! every reported schedule are reproducible — same discipline as
//! `simfault`.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
// The scheduler's own handshake state cannot go through the shim it drives.
#[allow(clippy::disallowed_types)]
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex};

pub(crate) type Tid = usize;

/// A pending shim operation — the label on a scheduling point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    /// First slice of a newly spawned thread.
    Begin,
    Lock {
        mutex: u64,
    },
    CvWait {
        condvar: u64,
        mutex: u64,
        has_timeout: bool,
    },
    NotifyOne {
        condvar: u64,
    },
    NotifyAll {
        condvar: u64,
    },
    Atomic {
        resource: u64,
        read_only: bool,
    },
    Spawn,
    Join {
        target: Tid,
    },
}

#[derive(Clone, Debug)]
enum Status {
    /// Parked at a scheduling point with a pending operation.
    AtYield(Op),
    /// Granted; executing user code until the next scheduling point.
    Running,
    /// Parked inside `Condvar::wait*`, tracked as a waiter.
    BlockedCv {
        condvar: u64,
        mutex: u64,
        has_timeout: bool,
    },
    Finished,
}

struct ThreadState {
    status: Status,
    name: String,
    /// Set when this thread's last condvar wake was a timeout.
    timed_out: bool,
    /// Timeout/spurious wakes consumed this run (bounded by the checker's
    /// budget, or lenient-mode exploration would never terminate: a waiter
    /// could time out, re-wait, and time out forever).
    wake_budget_used: usize,
}

struct RunState {
    threads: Vec<ThreadState>,
    /// mutex resource id -> owning thread.
    lock_owner: HashMap<u64, Tid>,
    /// condvar resource id -> FIFO of blocked waiters.
    waiters: HashMap<u64, VecDeque<Tid>>,
    /// Thread allowed to proceed past its park, not yet consumed.
    granted: Option<Tid>,
    /// Set when the controller discards the run; parked threads unwind.
    abandoned: bool,
    /// Virtual clock for `simsched::time::Instant` (bumped per read).
    vclock: u64,
    /// First failure observed (thread panic), recorded by the wrapper.
    failure: Option<Failure>,
    /// Executed transitions, human-readable, for failure reports.
    schedule: Vec<String>,
    last_tid: Option<Tid>,
    preemptions: usize,
}

impl RunState {
    fn new() -> RunState {
        RunState {
            threads: Vec::new(),
            lock_owner: HashMap::new(),
            waiters: HashMap::new(),
            granted: None,
            abandoned: false,
            vclock: 0,
            failure: None,
            schedule: Vec::new(),
            last_tid: None,
            preemptions: 0,
        }
    }

    fn all_finished(&self) -> bool {
        self.threads
            .iter()
            .all(|t| matches!(t.status, Status::Finished))
    }
}

struct RunInner {
    state: StdMutex<RunState>,
    cv: StdCondvar,
}

#[derive(Clone)]
struct SimCtx {
    run: Arc<RunInner>,
    tid: Tid,
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<SimCtx>> =
        const { std::cell::RefCell::new(None) };
}

fn current() -> Option<SimCtx> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Whether the calling thread is running inside a model-checked body. The
/// shim's dispatch test: `false` means passthrough.
pub(crate) fn in_model() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Panic payload used to unwind sim threads when a run is abandoned
/// (deadlock found, branch pruned, or another thread failed).
pub(crate) struct SimAbort;

fn lock_state(run: &RunInner) -> std::sync::MutexGuard<'_, RunState> {
    run.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Park until the controller grants this thread its next slice (or the run
/// is abandoned, in which case unwind with [`SimAbort`]).
fn await_grant(run: &RunInner, tid: Tid) {
    let mut st = lock_state(run);
    loop {
        if st.abandoned {
            drop(st);
            std::panic::panic_any(SimAbort);
        }
        if st.granted == Some(tid) {
            st.granted = None;
            run.cv.notify_all();
            return;
        }
        st = run
            .cv
            .wait(st)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
}

/// Park the calling thread at a scheduling point with pending operation
/// `op`; returns when the controller schedules it.
///
/// No-op while the thread is unwinding: drop glue (e.g. a pool joining its
/// workers) runs on the real primitives instead of re-entering the
/// scheduler, because a second `SimAbort` during an abort unwind would be a
/// double panic (process abort). Abandonment has already woken every parked
/// thread, so the real-primitive cleanup cannot block indefinitely.
pub(crate) fn yield_op(op: Op) {
    if std::thread::panicking() {
        return;
    }
    let ctx = current().expect("simsched: yield_op outside a model-checked run");
    {
        let mut st = lock_state(&ctx.run);
        st.threads[ctx.tid].status = Status::AtYield(op);
        ctx.run.cv.notify_all();
    }
    await_grant(&ctx.run, ctx.tid);
}

/// Record a mutex release (not a scheduling point: the release happens
/// inside the running slice; the next decision sees the updated owner map).
pub(crate) fn op_unlock(mutex: u64) {
    // See yield_op: guard drops during an unwind must not re-enter the
    // scheduler.
    if std::thread::panicking() {
        return;
    }
    let ctx = current().expect("simsched: op_unlock outside a model-checked run");
    let mut st = lock_state(&ctx.run);
    st.lock_owner.remove(&mutex);
    ctx.run.cv.notify_all();
}

/// Park as a condvar waiter after the `CvWait` grant (the caller has
/// dropped the real mutex guard). Returns when the re-lock is granted;
/// the return value is whether the wake was a timeout.
pub(crate) fn block_on_condvar(_condvar: u64) -> bool {
    // See yield_op: during an unwind the preceding CvWait yield was a no-op,
    // so no grant is coming — report a spurious (non-timeout) wake and let
    // the caller's predicate loop decide.
    if std::thread::panicking() {
        return false;
    }
    let ctx = current().expect("simsched: condvar block outside a model-checked run");
    await_grant(&ctx.run, ctx.tid);
    let timed_out = lock_state(&ctx.run).threads[ctx.tid].timed_out;
    timed_out
}

/// Bump and read the per-run virtual clock.
pub(crate) fn virtual_now() -> u64 {
    match current() {
        Some(ctx) => {
            let mut st = lock_state(&ctx.run);
            st.vclock += 1;
            st.vclock
        }
        None => 0,
    }
}

/// Register and start a sim thread: a `Spawn` scheduling point, then a new
/// thread slot whose first slice (`Begin`) is granted by the schedule.
pub(crate) fn spawn_sim<F, T>(
    name: Option<String>,
    f: F,
) -> std::io::Result<(Tid, std::thread::JoinHandle<T>)>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let ctx = current().expect("simsched: spawn_sim outside a model-checked run");
    yield_op(Op::Spawn);
    let child = {
        let mut st = lock_state(&ctx.run);
        let tid = st.threads.len();
        st.threads.push(ThreadState {
            status: Status::AtYield(Op::Begin),
            name: name.clone().unwrap_or_else(|| format!("sim-{tid}")),
            timed_out: false,
            wake_budget_used: 0,
        });
        ctx.run.cv.notify_all();
        tid
    };
    let run = Arc::clone(&ctx.run);
    let mut b = std::thread::Builder::new();
    if let Some(n) = name {
        b = b.name(n);
    }
    let handle = b.spawn(move || sim_thread_body(run, child, f))?;
    Ok((child, handle))
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn sim_thread_body<T>(run: Arc<RunInner>, tid: Tid, f: impl FnOnce() -> T) -> T {
    CURRENT.with(|c| {
        *c.borrow_mut() = Some(SimCtx {
            run: Arc::clone(&run),
            tid,
        })
    });
    // The initial grant wait must sit inside the catch: a run abandoned
    // before this thread's first slice unwinds it with SimAbort, and the
    // thread must still mark itself Finished or the controller would wait
    // for it forever.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        await_grant(&run, tid);
        f()
    }));
    CURRENT.with(|c| *c.borrow_mut() = None);
    let panic_msg = match &result {
        Err(p) if !p.is::<SimAbort>() => Some(panic_message(p.as_ref())),
        _ => None,
    };
    {
        let mut st = lock_state(&run);
        if let Some(msg) = panic_msg {
            if st.failure.is_none() {
                st.failure = Some(Failure::Panic {
                    thread: format!("t{tid}:{}", st.threads[tid].name),
                    message: msg,
                    schedule: st.schedule.clone(),
                });
            }
            st.abandoned = true;
        }
        st.threads[tid].status = Status::Finished;
        run.cv.notify_all();
    }
    match result {
        Ok(v) => v,
        Err(p) => std::panic::resume_unwind(p),
    }
}

/// A schedulable transition at a decision point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Trans {
    /// Execute thread's pending operation.
    Step(Tid),
    /// Fire a blocked `wait_timeout`'s timeout (lenient mode only).
    Timeout(Tid),
    /// Spuriously wake a blocked waiter (opt-in).
    Spurious(Tid),
}

/// A transition plus its resource signature, for independence tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Cand {
    trans: Trans,
    r1: u64,
    r2: u64,
    /// False only for read-only atomic ops (two reads commute).
    write: bool,
    /// Thread-lifecycle ops (Begin/Spawn/Join) are never treated as
    /// independent — cheap conservatism.
    lifecycle: bool,
}

fn tid_of(c: &Cand) -> Tid {
    match c.trans {
        Trans::Step(t) | Trans::Timeout(t) | Trans::Spurious(t) => t,
    }
}

/// `a` and `b` commute: executing them in either order reaches the same
/// state, and neither disables the other.
fn independent(a: &Cand, b: &Cand) -> bool {
    if tid_of(a) == tid_of(b) || a.lifecycle || b.lifecycle {
        return false;
    }
    let shares = |x: u64| x != 0 && (x == b.r1 || x == b.r2);
    if !shares(a.r1) && !shares(a.r2) {
        return true;
    }
    !a.write && !b.write
}

/// All enabled transitions at a quiescent state, in deterministic order.
fn candidates(st: &RunState, timeouts: bool, spurious: bool) -> Vec<Cand> {
    let mut v = Vec::new();
    for (tid, t) in st.threads.iter().enumerate() {
        match &t.status {
            Status::AtYield(op) => {
                let cand = match *op {
                    Op::Begin | Op::Spawn => Some(Cand {
                        trans: Trans::Step(tid),
                        r1: 0,
                        r2: 0,
                        write: true,
                        lifecycle: true,
                    }),
                    Op::Lock { mutex } => (!st.lock_owner.contains_key(&mutex)).then_some(Cand {
                        trans: Trans::Step(tid),
                        r1: mutex,
                        r2: 0,
                        write: true,
                        lifecycle: false,
                    }),
                    Op::CvWait { condvar, mutex, .. } => Some(Cand {
                        trans: Trans::Step(tid),
                        r1: condvar,
                        r2: mutex,
                        write: true,
                        lifecycle: false,
                    }),
                    Op::NotifyOne { condvar } | Op::NotifyAll { condvar } => Some(Cand {
                        trans: Trans::Step(tid),
                        r1: condvar,
                        r2: 0,
                        write: true,
                        lifecycle: false,
                    }),
                    Op::Atomic { resource, read_only } => Some(Cand {
                        trans: Trans::Step(tid),
                        r1: resource,
                        r2: 0,
                        write: !read_only,
                        lifecycle: false,
                    }),
                    Op::Join { target } => {
                        matches!(st.threads[target].status, Status::Finished).then_some(Cand {
                            trans: Trans::Step(tid),
                            r1: 0,
                            r2: 0,
                            write: true,
                            lifecycle: true,
                        })
                    }
                };
                v.extend(cand);
            }
            Status::BlockedCv {
                condvar,
                has_timeout,
                ..
            } => {
                if *has_timeout && timeouts && t.wake_budget_used < WAKE_BUDGET {
                    v.push(Cand {
                        trans: Trans::Timeout(tid),
                        r1: *condvar,
                        r2: 0,
                        write: true,
                        lifecycle: false,
                    });
                }
                if spurious && t.wake_budget_used < WAKE_BUDGET {
                    v.push(Cand {
                        trans: Trans::Spurious(tid),
                        r1: *condvar,
                        r2: 0,
                        write: true,
                        lifecycle: false,
                    });
                }
            }
            Status::Running | Status::Finished => {}
        }
    }
    v
}

fn op_desc(op: &Op) -> String {
    let d = crate::registry::describe;
    match *op {
        Op::Begin => "begin".to_string(),
        Op::Lock { mutex } => format!("lock({})", d(mutex)),
        Op::CvWait {
            condvar,
            mutex,
            has_timeout,
        } => format!(
            "{}({}, releasing {})",
            if has_timeout { "wait_timeout" } else { "wait" },
            d(condvar),
            d(mutex)
        ),
        Op::NotifyOne { condvar } => format!("notify_one({})", d(condvar)),
        Op::NotifyAll { condvar } => format!("notify_all({})", d(condvar)),
        Op::Atomic {
            resource,
            read_only,
        } => format!(
            "atomic-{}({})",
            if read_only { "load" } else { "rmw" },
            d(resource)
        ),
        Op::Spawn => "spawn".to_string(),
        Op::Join { target } => format!("join(t{target})"),
    }
}

/// Move a blocked waiter to the re-lock scheduling point.
fn wake_waiter(st: &mut RunState, w: Tid, timed_out: bool) {
    let Status::BlockedCv { mutex, .. } = st.threads[w].status else {
        unreachable!("simsched: waking a thread that is not blocked on a condvar");
    };
    st.threads[w].timed_out = timed_out;
    st.threads[w].status = Status::AtYield(Op::Lock { mutex });
}

/// Apply a chosen transition's effects; returns its description.
fn apply(st: &mut RunState, cand: &Cand) -> String {
    match cand.trans {
        Trans::Step(tid) => {
            let Status::AtYield(op) = st.threads[tid].status else {
                unreachable!("simsched: granting a thread that is not at a yield point");
            };
            let desc = format!("t{tid}:{} {}", st.threads[tid].name, op_desc(&op));
            match op {
                Op::Lock { mutex } => {
                    st.lock_owner.insert(mutex, tid);
                    st.threads[tid].status = Status::Running;
                }
                Op::CvWait {
                    condvar,
                    mutex,
                    has_timeout,
                } => {
                    st.lock_owner.remove(&mutex);
                    st.waiters.entry(condvar).or_default().push_back(tid);
                    st.threads[tid].status = Status::BlockedCv {
                        condvar,
                        mutex,
                        has_timeout,
                    };
                }
                Op::NotifyOne { condvar } => {
                    // Deterministic: wake the longest-waiting thread (a
                    // documented modeling choice; real condvars may wake
                    // any waiter).
                    let woken = st.waiters.get_mut(&condvar).and_then(VecDeque::pop_front);
                    if let Some(w) = woken {
                        wake_waiter(st, w, false);
                    }
                    st.threads[tid].status = Status::Running;
                }
                Op::NotifyAll { condvar } => {
                    let woken: Vec<Tid> = st
                        .waiters
                        .get_mut(&condvar)
                        .map(std::mem::take)
                        .unwrap_or_default()
                        .into();
                    for w in woken {
                        wake_waiter(st, w, false);
                    }
                    st.threads[tid].status = Status::Running;
                }
                Op::Begin | Op::Spawn | Op::Atomic { .. } | Op::Join { .. } => {
                    st.threads[tid].status = Status::Running;
                }
            }
            desc
        }
        Trans::Timeout(tid) | Trans::Spurious(tid) => {
            let Status::BlockedCv {
                condvar,
                has_timeout,
                ..
            } = st.threads[tid].status
            else {
                unreachable!("simsched: timeout on a thread not blocked on a condvar");
            };
            if let Some(q) = st.waiters.get_mut(&condvar) {
                q.retain(|w| *w != tid);
            }
            st.threads[tid].wake_budget_used += 1;
            let is_timeout = matches!(cand.trans, Trans::Timeout(_)) && has_timeout;
            wake_waiter(st, tid, is_timeout);
            format!(
                "t{tid}:{} {}({})",
                st.threads[tid].name,
                if is_timeout { "timeout" } else { "spurious-wake" },
                crate::registry::describe(condvar)
            )
        }
    }
}

fn quiescent(st: &RunState) -> bool {
    st.granted.is_none()
        && st.threads.iter().all(|t| {
            matches!(
                t.status,
                Status::AtYield(_) | Status::BlockedCv { .. } | Status::Finished
            )
        })
}

fn pending_desc(st: &RunState) -> Vec<String> {
    st.threads
        .iter()
        .enumerate()
        .filter_map(|(tid, t)| match &t.status {
            Status::AtYield(op) => Some(format!(
                "t{tid}:{} blocked at {}",
                t.name,
                op_desc(op)
            )),
            Status::BlockedCv {
                condvar,
                mutex,
                has_timeout,
            } => Some(format!(
                "t{tid}:{} waiting on {} (mutex {}, {})",
                t.name,
                crate::registry::describe(*condvar),
                crate::registry::describe(*mutex),
                if *has_timeout {
                    "wait_timeout, timeouts disabled in strict mode"
                } else {
                    "no timeout"
                }
            )),
            Status::Running => Some(format!("t{tid}:{} running (?)", t.name)),
            Status::Finished => None,
        })
        .collect()
}

/// Why a check failed.
#[derive(Clone, Debug)]
pub enum Failure {
    /// No thread can make progress. The classic lost-wakeup shape: every
    /// runnable op needs a lock someone holds, or every thread is parked on
    /// a condvar nobody will signal.
    Deadlock {
        /// Executed transitions leading to the deadlock.
        schedule: Vec<String>,
        /// Each unfinished thread's pending operation.
        pending: Vec<String>,
    },
    /// A thread panicked (assertion failure in the body counts).
    Panic {
        thread: String,
        message: String,
        schedule: Vec<String>,
    },
    /// A single run exceeded the step bound (livelock guard).
    StepLimit { limit: usize, schedule: Vec<String> },
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Deadlock { schedule, pending } => {
                writeln!(f, "deadlock: no thread can make progress")?;
                for p in pending {
                    writeln!(f, "  {p}")?;
                }
                writeln!(f, "schedule ({} transitions):", schedule.len())?;
                for s in schedule {
                    writeln!(f, "  {s}")?;
                }
                Ok(())
            }
            Failure::Panic {
                thread,
                message,
                schedule,
            } => {
                writeln!(f, "panic in {thread}: {message}")?;
                writeln!(f, "schedule ({} transitions):", schedule.len())?;
                for s in schedule {
                    writeln!(f, "  {s}")?;
                }
                Ok(())
            }
            Failure::StepLimit { limit, schedule } => {
                writeln!(
                    f,
                    "step limit ({limit}) exceeded — possible livelock; last transitions:"
                )?;
                for s in schedule.iter().rev().take(20).rev() {
                    writeln!(f, "  {s}")?;
                }
                Ok(())
            }
        }
    }
}

/// Outcome of a [`Checker::check`] exploration.
#[derive(Clone, Debug)]
pub struct Report {
    /// Runs executed (including pruned ones).
    pub schedules: u64,
    /// Total transitions executed across all runs.
    pub transitions: u64,
    /// Runs abandoned by sleep-set pruning (their interleavings are covered
    /// by sibling branches).
    pub pruned: u64,
    /// True when the exploration exhausted the bounded space (exhaustive
    /// mode, no failure, schedule cap not hit).
    pub complete: bool,
    /// First failure found, if any; exploration stops at the first.
    pub failure: Option<Failure>,
}

impl Report {
    /// Panic with the rendered failure if the exploration found one.
    pub fn assert_ok(&self) {
        if let Some(fail) = &self.failure {
            panic!(
                "simsched: model check failed after {} schedule(s):\n{fail}",
                self.schedules
            );
        }
    }

    /// The failure, panicking if the check unexpectedly passed.
    pub fn expect_failure(&self) -> &Failure {
        self.failure
            .as_ref()
            .expect("simsched: expected the model check to fail, but it passed")
    }
}

/// Exploration strategy.
#[derive(Clone, Copy, Debug)]
pub enum Mode {
    /// Depth-first enumeration of all schedules within the bounds.
    Exhaustive,
    /// Seeded deterministic random walk: `iterations` independent runs.
    Random { seed: u64, iterations: u64 },
}

/// Timeout + spurious wakes per thread per run. The bound is what keeps
/// lenient-mode exploration finite; it also means a protocol whose only
/// recovery is an unbounded retry-on-timeout loop is reported as a deadlock
/// — bounded checking rightly refuses to accept "it times out and retries
/// forever" as a liveness argument.
const WAKE_BUDGET: usize = 2;
/// Per-run transition cap (livelock guard).
const MAX_STEPS: usize = 10_000;
/// Total schedule cap; hitting it reports `complete: false`.
const MAX_SCHEDULES: u64 = 200_000;

/// Builder for a bounded model check.
#[derive(Clone, Debug)]
pub struct Checker {
    preemption_bound: Option<usize>,
    timeouts: bool,
    spurious: bool,
    mode: Mode,
}

impl Default for Checker {
    fn default() -> Checker {
        Checker::new()
    }
}

impl Checker {
    /// Defaults: exhaustive, preemption bound 2, strict timeouts, no
    /// spurious wakes, 10k steps/run, 200k schedules cap.
    pub fn new() -> Checker {
        Checker {
            preemption_bound: Some(2),
            timeouts: false,
            spurious: false,
            mode: Mode::Exhaustive,
        }
    }

    /// Cap involuntary context switches per schedule (`None` = unbounded).
    pub fn preemption_bound(mut self, bound: Option<usize>) -> Checker {
        self.preemption_bound = bound;
        self
    }

    /// Lenient mode: allow `wait_timeout` timeouts as transitions. Strict
    /// mode (the default, `false`) turns a timeout-papered lost wakeup into
    /// a reported deadlock.
    pub fn timeouts(mut self, allow: bool) -> Checker {
        self.timeouts = allow;
        self
    }

    /// Also explore spurious condvar wakeups (off by default; turns an
    /// unguarded `wait` into a found bug even in protocols with no timeout).
    pub fn spurious(mut self, allow: bool) -> Checker {
        self.spurious = allow;
        self
    }

    /// Select the exploration strategy.
    pub fn mode(mut self, mode: Mode) -> Checker {
        self.mode = mode;
        self
    }

    /// Explore schedules of `body` until the space is exhausted (within
    /// bounds), a failure is found, or a cap is hit.
    pub fn check<F>(self, body: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        install_panic_hook();
        let body: Arc<dyn Fn() + Send + Sync> = Arc::new(body);
        let mut report = Report {
            schedules: 0,
            transitions: 0,
            pruned: 0,
            complete: false,
            failure: None,
        };
        match self.mode {
            Mode::Exhaustive => {
                let mut frames: Vec<Frame> = Vec::new();
                loop {
                    let outcome = self.execute_run(&body, Some(&mut frames), &mut None, &mut report);
                    report.schedules += 1;
                    match outcome {
                        RunResult::Failed(fail) => {
                            report.failure = Some(fail);
                            break;
                        }
                        RunResult::Completed | RunResult::Pruned => {}
                    }
                    // Backtrack to the deepest decision with an untried
                    // alternative.
                    while let Some(f) = frames.last() {
                        if f.idx + 1 < f.cands.len() {
                            break;
                        }
                        frames.pop();
                    }
                    match frames.last_mut() {
                        Some(f) => f.idx += 1,
                        None => {
                            report.complete = true;
                            break;
                        }
                    }
                    if report.schedules >= MAX_SCHEDULES {
                        break;
                    }
                }
            }
            Mode::Random { seed, iterations } => {
                let mut rng = seed_mix(seed);
                for _ in 0..iterations {
                    let outcome = self.execute_run(&body, None, &mut Some(&mut rng), &mut report);
                    report.schedules += 1;
                    if let RunResult::Failed(fail) = outcome {
                        report.failure = Some(fail);
                        break;
                    }
                }
                report.complete = report.failure.is_none();
            }
        }
        report
    }

    /// Drive one run: spawn the root thread, grant transitions per the
    /// replay prefix / DFS / RNG until completion, failure, or prune.
    fn execute_run(
        &self,
        body: &Arc<dyn Fn() + Send + Sync>,
        mut frames: Option<&mut Vec<Frame>>,
        rng: &mut Option<&mut u64>,
        report: &mut Report,
    ) -> RunResult {
        let run = Arc::new(RunInner {
            state: StdMutex::new(RunState::new()),
            cv: StdCondvar::new(),
        });
        lock_state(&run).threads.push(ThreadState {
            status: Status::AtYield(Op::Begin),
            name: "main".to_string(),
            timed_out: false,
            wake_budget_used: 0,
        });
        let root = {
            let run = Arc::clone(&run);
            let body = Arc::clone(body);
            std::thread::Builder::new()
                .name("sim-main".to_string())
                .spawn(move || sim_thread_body(run, 0, move || body()))
                .expect("simsched: failed to spawn model root thread")
        };
        let mut depth = 0usize;
        let mut cur_sleep: HashSet<Cand> = HashSet::new();
        let mut outcome = RunResult::Completed;
        loop {
            let mut st = lock_state(&run);
            while !quiescent(&st) {
                st = run
                    .cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            if let Some(fail) = st.failure.clone() {
                outcome = RunResult::Failed(fail);
                abandon(&run, st);
                break;
            }
            if st.all_finished() {
                drop(st);
                break;
            }
            if depth >= MAX_STEPS {
                outcome = RunResult::Failed(Failure::StepLimit {
                    limit: MAX_STEPS,
                    schedule: st.schedule.clone(),
                });
                abandon(&run, st);
                break;
            }
            let raw = candidates(&st, self.timeouts, self.spurious);
            if raw.is_empty() {
                outcome = RunResult::Failed(Failure::Deadlock {
                    schedule: st.schedule.clone(),
                    pending: pending_desc(&st),
                });
                abandon(&run, st);
                break;
            }
            // Preemption bound: once spent, keep scheduling the last thread
            // while it stays enabled.
            let mut pf = raw.clone();
            if let Some(bound) = self.preemption_bound {
                if st.preemptions >= bound {
                    if let Some(lt) = st.last_tid {
                        if raw.iter().any(|c| tid_of(c) == lt) {
                            pf.retain(|c| tid_of(c) == lt);
                        }
                    }
                }
            }
            let chosen: Cand = if let Some(rng) = rng.as_deref_mut() {
                pf[(next_rand(rng) % pf.len() as u64) as usize]
            } else {
                let frames = frames.as_deref_mut().expect("exhaustive mode has frames");
                if depth < frames.len() {
                    // Replay: rebuild the sleep set for the next depth from
                    // this frame's recorded decision.
                    let f = &frames[depth];
                    let chosen = f.cands[f.idx];
                    cur_sleep = advance_sleep(&f.sleep, &f.cands[..f.idx], &chosen);
                    chosen
                } else {
                    let cands: Vec<Cand> = pf
                        .iter()
                        .filter(|c| !cur_sleep.contains(c))
                        .copied()
                        .collect();
                    if cands.is_empty() {
                        // Every enabled transition is asleep: this state's
                        // orderings are covered by sibling branches.
                        report.pruned += 1;
                        outcome = RunResult::Pruned;
                        abandon(&run, st);
                        break;
                    }
                    let chosen = cands[0];
                    frames.push(Frame {
                        cands,
                        idx: 0,
                        sleep: cur_sleep.clone(),
                    });
                    cur_sleep = advance_sleep(&cur_sleep, &[], &chosen);
                    chosen
                }
            };
            let desc = apply(&mut st, &chosen);
            st.schedule.push(desc);
            report.transitions += 1;
            let t = tid_of(&chosen);
            if let Some(lt) = st.last_tid {
                if lt != t && raw.iter().any(|c| tid_of(c) == lt) {
                    st.preemptions += 1;
                }
            }
            st.last_tid = Some(t);
            if let Trans::Step(tid) = chosen.trans {
                st.granted = Some(tid);
            }
            run.cv.notify_all();
            drop(st);
            depth += 1;
        }
        // Reap the root OS thread; abandoned runs unwind with SimAbort.
        let _ = root.join();
        outcome
    }
}

/// Exploration with default bounds: exhaustive DFS, preemption bound 2,
/// strict timeouts.
pub fn check<F>(body: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    Checker::new().check(body)
}

enum RunResult {
    Completed,
    Pruned,
    Failed(Failure),
}

/// One DFS decision point: the candidates seen there, the branch currently
/// being explored, and the sleep set inherited on arrival.
struct Frame {
    cands: Vec<Cand>,
    idx: usize,
    sleep: HashSet<Cand>,
}

/// Sleep set for the successor state: previously slept + already-tried
/// siblings, minus anything dependent on the executed transition.
fn advance_sleep(base: &HashSet<Cand>, tried: &[Cand], executed: &Cand) -> HashSet<Cand> {
    base.iter()
        .chain(tried.iter())
        .filter(|c| independent(c, executed))
        .copied()
        .collect()
}

/// Discard the rest of a run: parked threads unwind with [`SimAbort`];
/// blocks until every sim thread has finished.
fn abandon(run: &RunInner, mut st: std::sync::MutexGuard<'_, RunState>) {
    st.abandoned = true;
    st.granted = None;
    run.cv.notify_all();
    while !st.all_finished() {
        st = run
            .cv
            .wait(st)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
}

/// splitmix64 — same deterministic generator family as `simfault`.
fn seed_mix(seed: u64) -> u64 {
    seed.wrapping_add(0x9e37_79b9_7f4a_7c15)
}

fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Install (once) a panic hook that silences [`SimAbort`] unwinds and
/// panics inside model-checked threads — the checker records and re-reports
/// those itself; the default hook would print one backtrace per explored
/// schedule.
fn install_panic_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<SimAbort>() || in_model() {
                return;
            }
            prev(info);
        }));
    });
}
