//! `simfault` — deterministic fault injection for the RAJAPerf-rs runner.
//!
//! Campaign-scale data collection (sweeps of 76 kernels × variants ×
//! tunings) must survive the failures real clusters produce: panicking
//! kernels, transient launch errors, stalls, bit-flips in device buffers,
//! and torn file writes from a mid-run kill. This crate provides seeded,
//! rate-configurable *failpoints* — named call sites where those faults can
//! be injected on demand — so the suite's fault-tolerance layer can be
//! exercised deterministically in tests and CI.
//!
//! # Contract
//!
//! * **Zero cost off.** On a thread with nothing armed — the production
//!   state — every producer-side call ([`armed`], [`fail_point`],
//!   [`corrupt_bytes`], [`truncated_len`]) costs exactly one thread-local
//!   `Cell<bool>` load; evaluation lives behind `#[cold]` calls. This is
//!   the same contract `gpusim::sanitizer` honors.
//! * **Deterministic on.** Every decision is a pure function of the
//!   armed seed, the failpoint name, the (optional) scope filter, and a
//!   per-entry draw counter. Arming the same spec again replays the exact
//!   same fault sequence, so a failing campaign can be reproduced bit for
//!   bit from its `--faults` string.
//! * **Scoped.** [`arm`] installs one fault world — spec, counters, kernel
//!   label, observer — on the calling thread and returns the guard that
//!   removes it, unwinding included. Other threads are untouched, so any
//!   number of cells and daemon requests arm at once; a thread the armed
//!   one spawns joins its world by [`Handle::enter`]ing [`current`].
//!
//! # Spec grammar
//!
//! ```text
//! spec   := item (',' item)*
//! item   := 'seed=' u64
//!         | point ['@' scope] '=' mode [':' rate]
//! mode   := 'panic' | 'err' | 'stall' ['(' millis ')'] | 'flip' | 'truncate'
//! rate   := float in [0, 1]     (default 1.0)
//! ```
//!
//! Examples: `gpusim.launch=err:0.05,seed=42` injects an error on ~5% of
//! device launches; `gpusim.launch@Stream_TRIAD=panic:1.0` panics every
//! launch, but only while the runner's scope (the executing kernel) is
//! `Stream_TRIAD`; `io.write=truncate:0.2` tears one in five file writes.
//!
//! # Where each point evaluates
//!
//! | point (modes) | site | evaluates on | handle reached that thread by |
//! |---|---|---|---|
//! | `suite.kernel` (`panic`, `err`, `stall`) | each execution attempt | the cell's thread, or its `--timeout` watchdog | `run_suite` arms; `exec::attempt` enters in the watchdog |
//! | `gpusim.launch` (`panic`, `err`, `stall`) | `count_launch`, before any block is submitted | the launching thread: cell, watchdog, or a HALO kernel's `simcomm` rank | the above; `kernels::comm` enters in each rank body |
//! | `gpusim.ecc` (`flip`) | `DevicePtr::new` | the same | the same |
//! | `fixture.flaky` (`err`) | `Fixture_FLAKY::execute` | cell or watchdog | the same |
//! | `io.write` (`truncate`) | `caliper::write_atomic` | the cell's thread, in the output flush | `run_suite` arms |
//!
//! Nothing is carried through the shared rayon pool because no failpoint
//! evaluates there: launches are counted and buffers registered before a
//! block reaches a pool worker (probed across the registry under all six
//! variants). An attempt abandoned by `--timeout` keeps its world; the
//! runner continues in a copy ([`detach`]), so what the abandoned attempt
//! still draws shifts no later sequence.
//!
//! The failpoint *registry* — the call sites the suite actually instruments
//! — is [`KNOWN_POINTS`]. The spec parser accepts unknown names (tests use
//! private points), but the CLI rejects them so typos do not silently
//! inject nothing.

use simsched::sync::atomic::{AtomicU64, Ordering};
use simsched::sync::{Mutex, MutexGuard};
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::{Arc, PoisonError};
use std::time::Duration;

/// The failpoint registry: every instrumented call site in the suite, with
/// the fault modes that are meaningful there. Points not listed here are
/// accepted by [`FaultConfig::parse`] but rejected by the CLI.
pub const KNOWN_POINTS: &[(&str, &str)] = &[
    (
        "gpusim.launch",
        "every simulated-device kernel launch (panic | err | stall)",
    ),
    (
        "gpusim.ecc",
        "device buffer registration; flip = one bit-flip in the buffer (flip)",
    ),
    (
        "suite.kernel",
        "suite runner, before each kernel-variant execution (panic | err | stall)",
    ),
    (
        "io.write",
        "crash-safe file writes; truncate = simulate a torn legacy write (truncate)",
    ),
    (
        "fixture.flaky",
        "kernels::faulty::Flaky positive-control kernel (panic | err | stall)",
    ),
];

/// True when `point` names a registered call site.
fn is_known_point(point: &str) -> bool {
    KNOWN_POINTS.iter().any(|(p, _)| *p == point)
}

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Unwind with an injected panic (`simfault: injected panic at ...`).
    Panic,
    /// Return an [`InjectedError`] from [`fail_point`].
    Err,
    /// Sleep for the given duration, then continue (artificial latency; a
    /// hung node from the watchdog's point of view).
    Stall(Duration),
    /// Flip one deterministically-chosen bit (data corruption; consumed via
    /// [`corrupt_bytes`]).
    Flip,
    /// Truncate a file write (torn write; consumed via [`truncated_len`]).
    Truncate,
}

impl FaultMode {
    /// Spec-grammar name of the mode.
    pub fn name(&self) -> &'static str {
        match self {
            FaultMode::Panic => "panic",
            FaultMode::Err => "err",
            FaultMode::Stall(_) => "stall",
            FaultMode::Flip => "flip",
            FaultMode::Truncate => "truncate",
        }
    }
}

/// Default stall duration when `stall` carries no `(millis)` argument.
pub const DEFAULT_STALL: Duration = Duration::from_millis(100);

/// One armed failpoint: where, what, how often, and (optionally) only under
/// which scope label.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEntry {
    /// Failpoint name this entry arms.
    pub point: String,
    /// Optional scope filter: the entry only fires while [`scoped`] (the
    /// runner sets it to the executing kernel's name) matches.
    pub scope: Option<String>,
    /// Fault to inject.
    pub mode: FaultMode,
    /// Probability each evaluation fires, in `[0, 1]`.
    pub rate: f64,
}

impl FaultEntry {
    fn label(&self) -> String {
        match &self.scope {
            Some(s) => format!("{}@{}={}:{}", self.point, s, self.mode.name(), self.rate),
            None => format!("{}={}:{}", self.point, self.mode.name(), self.rate),
        }
    }
}

/// A parsed fault-injection configuration (see the module docs for the
/// spec grammar).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultConfig {
    /// Seed for every rate draw and corruption-position choice.
    pub seed: u64,
    /// Armed failpoints, in spec order (first matching entry wins).
    pub entries: Vec<FaultEntry>,
}

impl FaultConfig {
    /// Parse a `--faults` / `SIMFAULT` spec string.
    pub fn parse(spec: &str) -> Result<FaultConfig, String> {
        let mut cfg = FaultConfig::default();
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (lhs, rhs) = item
                .split_once('=')
                .ok_or_else(|| format!("fault spec item '{item}' is not key=value"))?;
            let (lhs, rhs) = (lhs.trim(), rhs.trim());
            if lhs == "seed" {
                cfg.seed = rhs
                    .parse()
                    .map_err(|e| format!("bad seed '{rhs}': {e}"))?;
                continue;
            }
            let (point, scope) = match lhs.split_once('@') {
                Some((p, s)) => (p.trim(), Some(s.trim().to_string())),
                None => (lhs, None),
            };
            if point.is_empty() {
                return Err(format!("fault spec item '{item}' has an empty point name"));
            }
            let (mode_str, rate_str) = match rhs.split_once(':') {
                Some((m, r)) => (m.trim(), Some(r.trim())),
                None => (rhs, None),
            };
            let mode = parse_mode(mode_str)
                .ok_or_else(|| format!("unknown fault mode '{mode_str}' in '{item}' (panic | err | stall[(ms)] | flip | truncate)"))?;
            let rate = match rate_str {
                None => 1.0,
                Some(r) => {
                    let r: f64 = r
                        .parse()
                        .map_err(|e| format!("bad rate in '{item}': {e}"))?;
                    if !(0.0..=1.0).contains(&r) {
                        return Err(format!("rate in '{item}' must be in [0, 1]"));
                    }
                    r
                }
            };
            cfg.entries.push(FaultEntry {
                point: point.to_string(),
                scope,
                mode,
                rate,
            });
        }
        if cfg.entries.is_empty() {
            return Err("fault spec arms no failpoint".to_string());
        }
        Ok(cfg)
    }

    /// Entries naming failpoints outside [`KNOWN_POINTS`] (CLI strictness;
    /// programmatic users may arm private points).
    pub fn unknown_points(&self) -> Vec<&str> {
        self.entries
            .iter()
            .map(|e| e.point.as_str())
            .filter(|p| !is_known_point(p))
            .collect()
    }
}

fn parse_mode(s: &str) -> Option<FaultMode> {
    match s {
        "panic" => Some(FaultMode::Panic),
        "err" => Some(FaultMode::Err),
        "flip" => Some(FaultMode::Flip),
        "truncate" => Some(FaultMode::Truncate),
        "stall" => Some(FaultMode::Stall(DEFAULT_STALL)),
        _ => {
            let ms = s
                .strip_prefix("stall(")?
                .strip_suffix(')')?
                .trim()
                .trim_end_matches("ms")
                .trim();
            Some(FaultMode::Stall(Duration::from_millis(ms.parse().ok()?)))
        }
    }
}

/// A fired fault: which point, what to do, and deterministic entropy for
/// data faults (bit positions, truncation lengths).
#[derive(Debug, Clone)]
pub struct Fault {
    /// Failpoint that fired.
    pub point: String,
    /// Injected fault mode.
    pub mode: FaultMode,
    /// Deterministic per-firing entropy for data-fault positioning.
    pub entropy: u64,
}

/// The error [`fail_point`] returns for `err`-mode injections. Kernels and
/// services that cannot return a `Result` surface it as a panic whose
/// message keeps the `simfault:` prefix — the runner's retry policy
/// classifies both shapes as *transient*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedError {
    /// Failpoint that produced the error.
    pub point: String,
}

impl std::fmt::Display for InjectedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected error at failpoint '{}'", self.point)
    }
}

impl std::error::Error for InjectedError {}

/// Observer invoked (from the `#[cold]` path) each time a fault fires —
/// the suite hooks this to emit `simfault.*` instants into the event trace.
pub type Observer = fn(point: &str, mode: &str);

/// One fault world, shared by the thread that armed it and the threads that
/// entered its [`Handle`].
struct ArmedState {
    config: FaultConfig,
    /// Per-entry draw counters (the deterministic sequence position).
    draws: Vec<AtomicU64>,
    /// Per-entry fired counters.
    fired: Vec<AtomicU64>,
    /// The label `point@scope` entries filter on (see [`scoped`]).
    scope: Mutex<String>,
    observer: Option<Observer>,
}

impl ArmedState {
    /// Every update leaves the label a valid string, so a poisoned lock is
    /// still good to use.
    fn scope(&self) -> MutexGuard<'_, String> {
        self.scope.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

thread_local! {
    /// Whether [`STATE`] holds a world: the only thing a disarmed failpoint
    /// reads.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static STATE: RefCell<Option<Arc<ArmedState>>> = const { RefCell::new(None) };
}

/// Whether a fault configuration is armed on this thread. One thread-local
/// load — the *entire* cost of every failpoint while injection is off.
#[inline]
pub fn armed() -> bool {
    ARMED.get()
}

fn state() -> Option<Arc<ArmedState>> {
    STATE.with_borrow(Clone::clone)
}

/// Make `state` this thread's fault world; returns the one it replaces.
fn install(state: Option<Arc<ArmedState>>) -> Option<Arc<ArmedState>> {
    ARMED.set(state.is_some());
    STATE.replace(state)
}

/// A fault world installed on this thread; dropping it (unwinding
/// included) puts back whatever was there before.
#[must_use = "dropping the guard disarms immediately"]
pub struct Armed {
    previous: Option<Arc<ArmedState>>,
    /// `!Send`: the guard restores the thread it was created on.
    _thread: PhantomData<*const ()>,
}

impl Drop for Armed {
    fn drop(&mut self) {
        install(self.previous.take());
    }
}

/// Arm every failpoint `config` names on this thread, with fresh draw and
/// fired counters — so arming the same config replays the identical fault
/// sequence — and `observer` told of each fault that fires.
pub fn arm(config: FaultConfig, observer: Option<Observer>) -> Armed {
    let counters = || config.entries.iter().map(|_| AtomicU64::new(0)).collect();
    let state = ArmedState {
        draws: counters(),
        fired: counters(),
        scope: Mutex::new(String::new()),
        observer,
        config,
    };
    Handle(Some(Arc::new(state))).enter()
}

/// Parse `spec` and [`arm`] it, unobserved.
pub fn arm_spec(spec: &str) -> Result<Armed, String> {
    FaultConfig::parse(spec).map(|config| arm(config, None))
}

/// A thread's fault world (possibly none), to hand to a thread it spawns.
#[derive(Clone, Default)]
pub struct Handle(Option<Arc<ArmedState>>);

/// The calling thread's fault world.
pub fn current() -> Handle {
    Handle(state())
}

impl Handle {
    /// Join this world on the calling thread for the guard's lifetime:
    /// same spec, same counters, same scope label as every other holder.
    pub fn enter(&self) -> Armed {
        Armed {
            previous: install(self.0.clone()),
            _thread: PhantomData,
        }
    }
}

/// Continue in a private copy of this thread's fault world, counters and
/// label as they stand. Every other holder keeps the original — the runner
/// calls this when it abandons a timed-out attempt, which may run on for
/// seconds and must not draw from the sequence of whatever executes next.
pub fn detach() {
    if let Some(old) = state() {
        let copy = |counters: &[AtomicU64]| {
            let values = counters.iter().map(|c| c.load(Ordering::Relaxed));
            values.map(AtomicU64::new).collect()
        };
        install(Some(Arc::new(ArmedState {
            config: old.config.clone(),
            draws: copy(&old.draws),
            fired: copy(&old.fired),
            scope: Mutex::new(old.scope().clone()),
            observer: old.observer,
        })));
    }
}

/// RAII guard for [`scoped`]: restores the previous scope label on drop.
pub struct ScopeGuard {
    previous: String,
}

/// Set the label `point@scope` entries filter on, in this thread's fault
/// world, for the guard's lifetime. The suite runner sets it to the
/// executing kernel's name. A no-op on a disarmed thread.
pub fn scoped(scope: &str) -> ScopeGuard {
    let previous = match state() {
        Some(s) => std::mem::replace(&mut *s.scope(), scope.to_string()),
        None => String::new(),
    };
    ScopeGuard { previous }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if let Some(s) = state() {
            *s.scope() = std::mem::take(&mut self.previous);
        }
    }
}

/// Evaluate failpoint `name`: `Some(fault)` when an armed entry fires.
/// Costs one thread-local load when disarmed.
#[inline]
pub fn point(name: &str) -> Option<Fault> {
    if !armed() {
        return None;
    }
    evaluate(name)
}

#[cold]
fn evaluate(name: &str) -> Option<Fault> {
    let state = state()?;
    let scope = state.scope().clone();
    for (i, entry) in state.config.entries.iter().enumerate() {
        if entry.point != name {
            continue;
        }
        if let Some(filter) = &entry.scope {
            if *filter != scope {
                continue;
            }
        }
        let draw = state.draws[i].fetch_add(1, Ordering::Relaxed);
        let x = splitmix64(
            state
                .config
                .seed
                .wrapping_add(fnv1a(&entry.label()))
                .wrapping_add(draw.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        // Top 53 bits as a uniform fraction in [0, 1).
        let frac = (x >> 11) as f64 / (1u64 << 53) as f64;
        if frac < entry.rate {
            state.fired[i].fetch_add(1, Ordering::Relaxed);
            if let Some(observe) = state.observer {
                observe(name, entry.mode.name());
            }
            return Some(Fault {
                point: name.to_string(),
                mode: entry.mode,
                entropy: splitmix64(x),
            });
        }
    }
    None
}

/// Control-flow failpoint: panic, return an [`InjectedError`], or stall,
/// as the armed entry dictates. Data-fault modes (`flip`, `truncate`) are
/// inert here — they belong to [`corrupt_bytes`] / [`truncated_len`] sites.
///
/// # Panics
/// Panics (message prefixed `simfault:`) when a `panic`-mode entry fires.
#[inline]
pub fn fail_point(name: &str) -> Result<(), InjectedError> {
    if !armed() {
        return Ok(());
    }
    act(name)
}

#[cold]
fn act(name: &str) -> Result<(), InjectedError> {
    match evaluate(name) {
        Some(Fault {
            mode: FaultMode::Panic,
            point,
            ..
        }) => panic!("simfault: injected panic at failpoint '{point}'"),
        Some(Fault {
            mode: FaultMode::Err,
            point,
            ..
        }) => Err(InjectedError { point }),
        Some(Fault {
            mode: FaultMode::Stall(d),
            ..
        }) => {
            std::thread::sleep(d);
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Data-corruption failpoint: when a `flip`-mode entry fires, flip one
/// deterministically-chosen bit of `bytes`. Returns `true` when the buffer
/// was corrupted. One thread-local load when disarmed.
#[inline]
pub fn corrupt_bytes(name: &str, bytes: &mut [u8]) -> bool {
    if !armed() || bytes.is_empty() {
        return false;
    }
    corrupt_cold(name, bytes)
}

#[cold]
fn corrupt_cold(name: &str, bytes: &mut [u8]) -> bool {
    match evaluate(name) {
        Some(Fault {
            mode: FaultMode::Flip,
            entropy,
            ..
        }) => {
            let byte = (entropy as usize) % bytes.len();
            let bit = ((entropy >> 32) % 8) as u8;
            bytes[byte] ^= 1 << bit;
            true
        }
        _ => false,
    }
}

/// Torn-write failpoint: when a `truncate`-mode entry fires for a write of
/// `len` bytes, returns the (strictly shorter) length to actually write —
/// what a mid-write kill of a non-atomic writer would have left behind.
/// One thread-local load when disarmed.
#[inline]
pub fn truncated_len(name: &str, len: usize) -> Option<usize> {
    if !armed() {
        return None;
    }
    truncate_cold(name, len)
}

#[cold]
fn truncate_cold(name: &str, len: usize) -> Option<usize> {
    match evaluate(name) {
        Some(Fault {
            mode: FaultMode::Truncate,
            entropy,
            ..
        }) => {
            // Anywhere in the first half, so the tear is never mistakable
            // for a complete write.
            Some((entropy as usize) % (len / 2).max(1))
        }
        _ => None,
    }
}

/// Total faults fired in this thread's fault world since it was armed.
pub fn fired_total() -> u64 {
    fired_counts().iter().map(|(_, n)| n).sum()
}

/// Per-entry fired counts in this thread's fault world since it was armed,
/// labelled in spec syntax (`point[@scope]=mode:rate`).
pub fn fired_counts() -> Vec<(String, u64)> {
    let Some(s) = state() else { return Vec::new() };
    let entries = s.config.entries.iter().zip(&s.fired);
    entries
        .map(|(e, c)| (e.label(), c.load(Ordering::Relaxed)))
        .collect()
}

/// SplitMix64: the standard 64-bit finalizer-style mixer (public domain,
/// Sebastiano Vigna) — full avalanche, so consecutive counter values give
/// independent-looking draws.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over the entry label: stable, dependency-free string hash so each
/// entry draws an independent deterministic stream.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_issue_example() {
        let c = FaultConfig::parse("gpusim.launch=err:0.05,seed=42").unwrap();
        assert_eq!(c.seed, 42);
        assert_eq!(c.entries.len(), 1);
        assert_eq!(c.entries[0].point, "gpusim.launch");
        assert_eq!(c.entries[0].mode, FaultMode::Err);
        assert!((c.entries[0].rate - 0.05).abs() < 1e-12);
        assert!(c.unknown_points().is_empty());
    }

    #[test]
    fn parse_scope_stall_and_defaults() {
        let c = FaultConfig::parse(
            "gpusim.launch@Stream_TRIAD=panic, suite.kernel=stall(250):0.5, io.write=truncate",
        )
        .unwrap();
        assert_eq!(c.entries[0].scope.as_deref(), Some("Stream_TRIAD"));
        assert_eq!(c.entries[0].rate, 1.0);
        assert_eq!(
            c.entries[1].mode,
            FaultMode::Stall(Duration::from_millis(250))
        );
        assert_eq!(c.entries[2].mode, FaultMode::Truncate);
        let c = FaultConfig::parse("x=stall").unwrap();
        assert_eq!(c.entries[0].mode, FaultMode::Stall(DEFAULT_STALL));
        assert_eq!(c.unknown_points(), vec!["x"]);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultConfig::parse("").is_err());
        assert!(FaultConfig::parse("seed=7").is_err(), "arms nothing");
        assert!(FaultConfig::parse("p=warp").is_err(), "unknown mode");
        assert!(FaultConfig::parse("p=err:1.5").is_err(), "rate > 1");
        assert!(FaultConfig::parse("p=err:x").is_err());
        assert!(FaultConfig::parse("=err").is_err(), "empty point");
        assert!(FaultConfig::parse("seed=abc,p=err").is_err());
    }

    #[test]
    fn disarmed_points_are_inert() {
        assert!(!armed());
        assert!(point("gpusim.launch").is_none());
        assert!(fail_point("gpusim.launch").is_ok());
        let mut buf = [1u8, 2, 3];
        assert!(!corrupt_bytes("gpusim.ecc", &mut buf));
        assert_eq!(buf, [1, 2, 3]);
        assert!(truncated_len("io.write", 100).is_none());
        assert_eq!(fired_total(), 0);
    }

    #[test]
    fn rate_one_always_fires_and_rate_zero_never() {
        let _armed = arm_spec("a=err:1.0,b=err:0.0,seed=3").unwrap();
        for _ in 0..32 {
            assert!(fail_point("a").is_err());
            assert!(fail_point("b").is_ok());
        }
        assert_eq!(fired_total(), 32);
    }

    #[test]
    fn same_seed_replays_identical_decision_sequence() {
        let draw_seq = |spec: &str| -> Vec<bool> {
            let _armed = arm_spec(spec).unwrap();
            (0..200).map(|_| point("p").is_some()).collect()
        };
        let a = draw_seq("p=err:0.3,seed=42");
        let b = draw_seq("p=err:0.3,seed=42");
        let c = draw_seq("p=err:0.3,seed=43");
        assert_eq!(a, b, "same seed must replay the same sequence");
        assert_ne!(a, c, "different seed must diverge somewhere in 200 draws");
        let hits = a.iter().filter(|&&f| f).count();
        assert!(
            (20..=100).contains(&hits),
            "rate 0.3 over 200 draws fired {hits} times"
        );
    }

    #[test]
    fn scope_filter_gates_scoped_entries() {
        let _armed = arm_spec("p@K1=err:1.0").unwrap();
        assert!(fail_point("p").is_ok(), "no scope set: filtered entry inert");
        {
            let _s = scoped("K1");
            assert!(fail_point("p").is_err());
            {
                let _inner = scoped("K2");
                assert!(fail_point("p").is_ok());
            }
            assert!(fail_point("p").is_err(), "inner guard restored K1");
        }
        assert!(fail_point("p").is_ok(), "guard restored empty scope");
    }

    #[test]
    fn corrupt_bytes_flips_exactly_one_bit_deterministically() {
        let corrupted = || {
            let _armed = arm_spec("gpusim.ecc=flip:1.0,seed=9").unwrap();
            let mut buf = vec![0u8; 64];
            assert!(corrupt_bytes("gpusim.ecc", &mut buf));
            buf
        };
        let a = corrupted();
        let ones: u32 = a.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1, "exactly one bit flipped");
        // Armed afresh, the first corruption hits the same bit.
        assert_eq!(a, corrupted());
    }

    #[test]
    fn truncated_len_is_a_strict_prefix() {
        let _armed = arm_spec("io.write=truncate:1.0,seed=5").unwrap();
        for len in [1usize, 2, 10, 4096] {
            let keep = truncated_len("io.write", len).expect("rate 1.0 fires");
            assert!(keep < len, "torn write of {len} kept {keep}");
        }
    }

    #[test]
    fn panic_mode_panics_with_simfault_prefix() {
        let _armed = arm_spec("p=panic:1.0").unwrap();
        let err = std::panic::catch_unwind(|| {
            let _ = fail_point("p");
        })
        .expect_err("panic mode must unwind");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.starts_with("simfault: injected panic"), "{msg}");
    }

    #[test]
    fn threads_armed_at_once_see_only_their_own_faults() {
        // Both threads stay armed between the two barrier waits.
        let both_armed = std::sync::Barrier::new(2);
        let world = |mine: &str, theirs: &str| {
            let _armed = arm_spec(&format!("{mine}=err:1.0")).unwrap();
            both_armed.wait();
            let mine_fired = (0..8).all(|_| fail_point(mine).is_err());
            let theirs_fired = (0..8).any(|_| fail_point(theirs).is_err());
            let counts = fired_counts();
            both_armed.wait();
            // Asserted only past the second wait, so a failure cannot leave
            // the other thread parked on the barrier.
            assert!(mine_fired);
            assert!(!theirs_fired, "{theirs} is armed on the other thread");
            assert_eq!(counts, vec![(format!("{mine}=err:1"), 8)]);
        };
        std::thread::scope(|s| {
            s.spawn(|| world("a", "b"));
            s.spawn(|| world("b", "a"));
        });
    }

    #[test]
    fn entered_thread_shares_counters_and_scope_label() {
        let _armed = arm_spec("p@K=err:1.0").unwrap();
        let _kernel = scoped("K");
        assert!(fail_point("p").is_err());
        let handle = current();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _world = handle.enter();
                assert!(fail_point("p").is_err(), "sees the parent's label K");
                assert_eq!(fired_total(), 2, "parent's draw and this one");
            });
            s.spawn(|| {
                assert!(!armed(), "a thread that never entered is disarmed");
                assert!(fail_point("p").is_ok());
            });
        });
        assert_eq!(fired_total(), 2, "the entered thread's draw counts here");
    }

    #[test]
    fn guard_disarms_when_a_panic_unwinds_through_it() {
        let unwound = std::panic::catch_unwind(|| {
            let _armed = arm_spec("p=panic:1.0").unwrap();
            let _ = fail_point("p");
        });
        assert!(unwound.is_err());
        assert!(!armed(), "unwinding dropped the guard");
        assert!(fail_point("p").is_ok());
    }

    #[test]
    fn detached_world_is_not_perturbed_by_the_one_left_behind() {
        let spec = "p=err:0.5,seed=42";
        let draw = |n: usize| -> Vec<bool> { (0..n).map(|_| point("p").is_some()).collect() };
        let undisturbed = {
            let _armed = arm_spec(spec).unwrap();
            draw(40)
        };
        let _armed = arm_spec(spec).unwrap();
        let mut seq = draw(10);
        let abandoned = current();
        detach();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _world = abandoned.enter();
                draw(100);
            });
        });
        seq.extend(draw(30));
        assert_eq!(seq, undisturbed, "the abandoned holder drew from its own");
        assert_eq!(
            fired_total(),
            undisturbed.iter().filter(|&&f| f).count() as u64
        );
    }

    #[test]
    fn fired_counts_label_entries_in_spec_syntax() {
        let _armed = arm_spec("a=err:1.0,b@K=panic:0.5,seed=1").unwrap();
        let _ = fail_point("a");
        let counts = fired_counts();
        assert_eq!(counts.len(), 2);
        assert_eq!(counts[0], ("a=err:1".to_string(), 1));
        assert_eq!(counts[1].0, "b@K=panic:0.5");
        assert_eq!(counts[1].1, 0);
    }
}
