//! `simsched` — the concurrency-soundness layer for the RAJAPerf-rs host
//! runtime.
//!
//! The suite's measurement substrate — the thread pool in
//! `vendor/rayon`, the `caliper::trace` event rings, `simfault`'s scope
//! publication — is hand-rolled shared-state code. Campaigns only mean
//! something if that substrate is sound, so this crate gives it the same
//! systematic rigor `simsan` gave the simulated device:
//!
//! 1. **A synchronization shim** ([`sync`], [`time`], [`thread`]):
//!    drop-in wrappers for `std::sync::{Mutex, Condvar}`, the common
//!    atomics, `Instant`, and `thread::spawn`. In a normal build they are
//!    `#[inline]` passthroughs to `std` (the only addition is one relaxed
//!    atomic load on `Mutex::lock` gating the lock-order recorder — the
//!    same zero-cost-off discipline as `simsan`/`trace`/`simfault`).
//!    Compiled with `--cfg simsched`, every lock/wait/notify/atomic op of a
//!    thread running inside a model check is routed through the recording
//!    scheduler instead.
//!
//! 2. **A bounded model checker** ([`check`], behind `--cfg simsched`):
//!    loom/shuttle-style stateless exploration. The threads of a test body
//!    run as real OS threads, but exactly one is runnable at a time; at
//!    every shim operation the running thread parks and the scheduler picks
//!    the next thread per the current schedule. Schedules are explored by
//!    depth-first search with *sleep-set pruning* (commuting independent
//!    operations are not re-explored) and *context-switch bounding*
//!    (preemptions per schedule are capped), or sampled by a seeded
//!    deterministic random walk — seedable and replayable like `simfault`.
//!    Deadlocks (which is how a lost wakeup surfaces when condvar timeouts
//!    are modeled strictly) are reported with every thread's pending
//!    operation and the schedule that led there.
//!
//! 3. **A lock-order deadlock analyzer** ([`lockorder`], available in every
//!    build): while enabled, `Mutex` acquisitions feed a happens-before
//!    lock-acquisition graph; a cycle means two call paths take the same
//!    locks in opposite orders — a *potential* deadlock even if this run
//!    got lucky (TSan's deadlock detector shape). Each edge stores both
//!    acquisition backtraces and the kernel/region label active at
//!    acquisition time, and each discovery emits a `simsched.*` trace
//!    instant so cycles land on the event timeline.
//!
//! # Known gaps
//!
//! The checker explores sequentially-consistent interleavings only: relaxed
//! /acquire/release distinctions are not modeled (loom models them; we
//! document the gap and lean on Miri for per-access UB). `notify_one`
//! deterministically wakes the longest-waiting thread rather than branching
//! over all waiters. Scheduling points exist only at shim operations, so
//! code that synchronizes through raw `std` primitives is invisible — which
//! is exactly what the clippy `disallowed-types` gate forbids in the
//! instrumented modules.

pub mod lockorder;
pub mod sync;
pub mod thread;
pub mod time;

#[cfg(simsched)]
pub mod sched;

#[cfg(simsched)]
pub use sched::{check, Checker, Failure, Mode, Report};

use std::sync::atomic::{AtomicU64, Ordering};

/// Stable ids for every shim resource (mutexes, condvars, atomics), handed
/// out lazily on first use so `const fn new` stays const.
pub(crate) fn next_resource_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

// The registry guards the shim's own metadata; routing it through the
// shim would recurse.
#[allow(clippy::disallowed_types)]
pub(crate) mod registry {
    //! id → human label registry shared by the lock-order analyzer and the
    //! checker's failure reports.

    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};

    fn labels() -> &'static Mutex<HashMap<u64, &'static str>> {
        static LABELS: OnceLock<Mutex<HashMap<u64, &'static str>>> = OnceLock::new();
        LABELS.get_or_init(|| Mutex::new(HashMap::new()))
    }

    pub(crate) fn register(id: u64, label: &'static str) {
        labels()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(id, label);
    }

    /// Render a resource as `label#id` (or `lock#id` when unlabeled).
    pub(crate) fn describe(id: u64) -> String {
        let map = labels()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match map.get(&id) {
            Some(l) => format!("{l}#{id}"),
            None => format!("lock#{id}"),
        }
    }
}

/// Hook type for [`set_instant_sink`]: receives `simsched.*` event names.
pub type InstantSink = fn(name: &str);

/// Hook type for [`set_context_provider`]: returns the current execution
/// context label (the suite installs the innermost open Caliper region, so
/// lock-order findings carry kernel/region attribution).
pub type ContextProvider = fn() -> Option<String>;

// Fn-pointer hooks so simsched never depends on caliper (caliper depends on
// simsched). Plain atomics hold them: fn pointers are word-sized.
static INSTANT_SINK: AtomicU64 = AtomicU64::new(0);
static CONTEXT_PROVIDER: AtomicU64 = AtomicU64::new(0);

/// Register (or clear) the sink that receives `simsched.*` instant events —
/// the suite wires this to `caliper::trace::instant_event` so lock-order
/// discoveries land on the PR 4 event timeline.
pub fn set_instant_sink(sink: Option<InstantSink>) {
    INSTANT_SINK.store(sink.map_or(0, |f| f as usize as u64), Ordering::Release);
}

/// Register (or clear) the provider of the current kernel/region label used
/// to attribute lock-order edges.
pub fn set_context_provider(provider: Option<ContextProvider>) {
    CONTEXT_PROVIDER.store(provider.map_or(0, |f| f as usize as u64), Ordering::Release);
}

pub(crate) fn emit_instant(name: &str) {
    let raw = INSTANT_SINK.load(Ordering::Acquire);
    if raw != 0 {
        // SAFETY: the only writer is `set_instant_sink`, which stores either
        // 0 or a valid `InstantSink` fn pointer; fn pointers are never
        // deallocated, so any nonzero value read here is callable.
        let f: InstantSink = unsafe { std::mem::transmute::<usize, InstantSink>(raw as usize) };
        f(name);
    }
}

pub(crate) fn current_context() -> Option<String> {
    let raw = CONTEXT_PROVIDER.load(Ordering::Acquire);
    if raw != 0 {
        // SAFETY: as in `emit_instant` — the only nonzero values stored are
        // valid `ContextProvider` fn pointers.
        let f: ContextProvider =
            unsafe { std::mem::transmute::<usize, ContextProvider>(raw as usize) };
        f()
    } else {
        None
    }
}
