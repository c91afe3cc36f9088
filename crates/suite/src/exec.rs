//! Fault-tolerant kernel execution: per-kernel-variant isolation
//! (`catch_unwind`), a spawn-based watchdog timeout, and bounded
//! retry-with-backoff for transient failures — plus the process exit-code
//! taxonomy the `rajaperf` binaries share.
//!
//! On a cluster, one crashed kernel must not take down a campaign cell, and
//! one hung kernel must not stall it forever. [`execute_guarded`] gives the
//! runner that property: every kernel-variant execution is contained, its
//! fate recorded as a [`KernelOutcome`], and the rest of the selection
//! always completes.
//!
//! *Transient* failures — those injected by `simfault` (`err`-mode returns
//! and `simfault:`-prefixed panics, the moral equivalent of a recoverable
//! `cudaErrorLaunchFailure`) — are retried up to [`FaultPolicy::max_retries`]
//! times with linear backoff. Genuine panics are not retried: a real crash
//! is a bug, and rerunning it just crashes again. Timeouts are not retried
//! either: the hung thread cannot be killed (only detached), so retrying a
//! hang would stack abandoned threads.

use kernels::{KernelBase, RunResult, Tuning, VariantId};
use std::time::Duration;

/// How the runner contains kernel failures. `Default` is maximally
/// permissive: no timeout, no retries — every failure is recorded on first
/// occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Wall-clock budget per execution attempt. `None` runs the kernel on
    /// the calling thread with no deadline; `Some` runs it on a watchdog
    /// thread that is abandoned (detached, not killed) if the deadline
    /// passes.
    pub timeout: Option<Duration>,
    /// Retries allowed for *transient* failures (injected `Err` returns and
    /// `simfault:`-prefixed panics). 0 disables retry.
    pub max_retries: u32,
    /// Base backoff slept before retry `k` is `backoff × k` (linear).
    pub retry_backoff: Duration,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            timeout: None,
            max_retries: 0,
            retry_backoff: Duration::from_millis(50),
        }
    }
}

/// The fate of one kernel-variant execution under [`execute_guarded`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelOutcome {
    /// Execution completed (after `retries` transient failures).
    Passed {
        /// Transient failures absorbed before success.
        retries: u32,
    },
    /// Execution panicked (and, if transient, exhausted its retries).
    Failed {
        /// The panic message of the final attempt.
        message: String,
        /// Retries spent before giving up.
        retries: u32,
    },
    /// The watchdog deadline passed; the attempt thread was abandoned.
    TimedOut {
        /// The deadline that was exceeded.
        limit: Duration,
    },
    /// The kernel was not executed at all.
    Skipped {
        /// Why (e.g. "variant not supported").
        reason: String,
    },
}

impl KernelOutcome {
    /// True only for [`KernelOutcome::Passed`].
    pub fn is_pass(&self) -> bool {
        matches!(self, KernelOutcome::Passed { .. })
    }

    /// Short status label for reports: `PASSED`, `RETRIED(n)`, `FAILED`,
    /// `TIMEOUT`, or `SKIPPED`.
    pub fn label(&self) -> String {
        match self {
            KernelOutcome::Passed { retries: 0 } => "PASSED".to_string(),
            KernelOutcome::Passed { retries } => format!("RETRIED({retries})"),
            KernelOutcome::Failed { .. } => "FAILED".to_string(),
            KernelOutcome::TimedOut { .. } => "TIMEOUT".to_string(),
            KernelOutcome::Skipped { .. } => "SKIPPED".to_string(),
        }
    }

    /// One-line detail for reports (empty for a clean pass).
    pub fn detail(&self) -> String {
        match self {
            KernelOutcome::Passed { retries: 0 } => String::new(),
            KernelOutcome::Passed { retries } => {
                format!("succeeded after {retries} transient failure(s)")
            }
            KernelOutcome::Failed { message, retries: 0 } => message.clone(),
            KernelOutcome::Failed { message, retries } => {
                format!("{message} (after {retries} retries)")
            }
            KernelOutcome::TimedOut { limit } => {
                format!("exceeded {:.3}s watchdog deadline", limit.as_secs_f64())
            }
            KernelOutcome::Skipped { reason } => reason.clone(),
        }
    }
}

/// One kernel's outcome within a suite run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutcomeRecord {
    /// Full kernel name.
    pub kernel: String,
    /// Variant executed.
    pub variant: VariantId,
    /// What happened.
    pub outcome: KernelOutcome,
}

/// Extract a readable message from a `catch_unwind` payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Transient failures carry the `simfault:` message prefix — injected
/// faults the retry policy may absorb. Anything else is a genuine crash.
fn is_transient(message: &str) -> bool {
    message.starts_with("simfault:")
}

enum AttemptFailure {
    Panic(String),
    Timeout(Duration),
}

/// One contained execution attempt. The `suite.kernel` failpoint is
/// evaluated *inside* the containment, so its `panic`, `err`, and `stall`
/// modes exercise exactly the paths a real kernel failure would.
fn attempt(
    kernel: &'static dyn KernelBase,
    variant: VariantId,
    n: usize,
    reps: usize,
    tuning: Tuning,
    timeout: Option<Duration>,
) -> Result<RunResult, AttemptFailure> {
    // Besides the result, the attempt reports the communication counters it
    // accrued (`simcomm` stats are thread-local): when the watchdog runs it
    // on a spawned thread, the delta is relayed back so the runner thread's
    // totals — which the suite attributes to Caliper regions — still cover
    // comm-group kernels under `--timeout`.
    let guarded = move || {
        let comm_before = simcomm::thread_stats();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Err(e) = simfault::fail_point("suite.kernel") {
                panic!("simfault: {e}");
            }
            kernel.execute(variant, n, reps, &tuning)
        }))
        .map_err(|p| AttemptFailure::Panic(panic_message(&*p)));
        (result, simcomm::thread_stats().since(comm_before))
    };
    match timeout {
        // Calling-thread path: counters accrued directly on this thread;
        // the delta must not be folded in a second time.
        None => guarded().0,
        Some(limit) => {
            // Watchdog: run the attempt on its own thread and wait with a
            // deadline. A thread cannot be killed, so on timeout it is
            // abandoned — it keeps running detached, its eventual result
            // discarded (the channel send fails silently). The attempt
            // enters this thread's fault world, so it draws the runner's
            // sequence under the runner's per-kernel scope label.
            let (tx, rx) = std::sync::mpsc::channel();
            let faults = simfault::current();
            let spawned = std::thread::Builder::new()
                .name(format!("watchdog:{}", kernel.info().name))
                .spawn(move || {
                    let _faults = faults.enter();
                    let _ = tx.send(guarded());
                });
            // Spawn can genuinely fail under resource exhaustion (EAGAIN when
            // the process is out of threads) — exactly when a daemon is
            // under load. Contain it as this kernel's failure, not a
            // process-wide panic.
            if let Err(e) = spawned {
                return Err(AttemptFailure::Panic(format!(
                    "watchdog thread spawn failed: {e}"
                )));
            }
            match rx.recv_timeout(limit) {
                Ok((r, comm_delta)) => {
                    simcomm::add_thread_stats(comm_delta);
                    r
                }
                // An abandoned attempt's counters are lost with its thread;
                // the profile under-counts comm for timed-out kernels. It
                // keeps the fault world it was drawing from; the runner
                // continues in a copy, so whatever the attempt still draws
                // cannot shift the next kernel's sequence.
                Err(_) => {
                    simfault::detach();
                    Err(AttemptFailure::Timeout(limit))
                }
            }
        }
    }
}

/// Execute one kernel variant under the fault policy: contained
/// (`catch_unwind`), optionally deadlined (watchdog thread), with bounded
/// linear-backoff retry for transient failures. Returns the outcome and,
/// when the kernel passed, its result.
///
/// Suppressing a panic loses nothing here: kernels own their buffers per
/// execution, the device pool recovers per-job (a poisoned submission does
/// not poison the pool), and Caliper regions are unwind-safe since PR 4.
pub fn execute_guarded(
    kernel: &'static dyn KernelBase,
    variant: VariantId,
    n: usize,
    reps: usize,
    tuning: &Tuning,
    policy: &FaultPolicy,
) -> (KernelOutcome, Option<RunResult>) {
    let mut retries = 0u32;
    loop {
        match attempt(kernel, variant, n, reps, *tuning, policy.timeout) {
            Ok(result) => return (KernelOutcome::Passed { retries }, Some(result)),
            Err(AttemptFailure::Timeout(limit)) => {
                // Never retried: the abandoned thread cannot be reclaimed,
                // and a systematic hang would stack one per retry.
                return (KernelOutcome::TimedOut { limit }, None);
            }
            Err(AttemptFailure::Panic(message)) => {
                if is_transient(&message) && retries < policy.max_retries {
                    retries += 1;
                    std::thread::sleep(policy.retry_backoff * retries);
                    continue;
                }
                return (KernelOutcome::Failed { message, retries }, None);
            }
        }
    }
}

/// Process exit codes shared by the `rajaperf` binaries. One enum instead
/// of scattered `std::process::exit` literals, so every exit path is
/// nameable, documented, and testable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteExit {
    /// Everything requested completed cleanly.
    Success,
    /// An internal error (I/O failure, unreadable input).
    Internal,
    /// Bad command-line usage.
    Usage,
    /// Cross-variant checksum validation failed.
    ChecksumFailure,
    /// The sanitizer reported hazards.
    SanitizerFindings,
    /// One or more kernels failed or timed out (partial-failure: the rest
    /// of the selection still completed and reported).
    KernelFailures,
    /// The service refused the request — daemon queue full or shutting
    /// down. Retryable by the client; nothing was executed.
    Unavailable,
}

impl SuiteExit {
    /// The process exit code.
    pub fn code(self) -> i32 {
        match self {
            SuiteExit::Success => 0,
            SuiteExit::Internal => 1,
            SuiteExit::Usage => 2,
            SuiteExit::ChecksumFailure => 3,
            SuiteExit::SanitizerFindings => 4,
            SuiteExit::KernelFailures => 5,
            SuiteExit::Unavailable => 6,
        }
    }

    /// Exit the process with this code.
    pub fn exit(self) -> ! {
        std::process::exit(self.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(name: &str) -> &'static dyn KernelBase {
        use std::sync::OnceLock;
        static FIXTURES: OnceLock<Vec<Box<dyn KernelBase>>> = OnceLock::new();
        FIXTURES
            .get_or_init(kernels::faulty::all)
            .iter()
            .find(|k| k.info().name == name)
            .map(|k| k.as_ref())
            .unwrap_or_else(|| panic!("no fixture {name}"))
    }

    #[test]
    fn outcome_labels_and_pass_predicate() {
        assert_eq!(KernelOutcome::Passed { retries: 0 }.label(), "PASSED");
        assert_eq!(KernelOutcome::Passed { retries: 2 }.label(), "RETRIED(2)");
        assert!(KernelOutcome::Passed { retries: 2 }.is_pass());
        let failed = KernelOutcome::Failed {
            message: "boom".into(),
            retries: 0,
        };
        assert_eq!(failed.label(), "FAILED");
        assert!(!failed.is_pass());
        assert_eq!(
            KernelOutcome::TimedOut {
                limit: Duration::from_secs(1)
            }
            .label(),
            "TIMEOUT"
        );
        assert_eq!(
            KernelOutcome::Skipped {
                reason: "x".into()
            }
            .label(),
            "SKIPPED"
        );
    }

    #[test]
    fn exit_codes_are_stable() {
        assert_eq!(SuiteExit::Success.code(), 0);
        assert_eq!(SuiteExit::Internal.code(), 1);
        assert_eq!(SuiteExit::Usage.code(), 2);
        assert_eq!(SuiteExit::ChecksumFailure.code(), 3);
        assert_eq!(SuiteExit::SanitizerFindings.code(), 4);
        assert_eq!(SuiteExit::KernelFailures.code(), 5);
        assert_eq!(SuiteExit::Unavailable.code(), 6);
    }

    #[test]
    fn transient_classification_is_prefix_based() {
        assert!(is_transient("simfault: injected error at failpoint 'x'"));
        assert!(!is_transient("index out of bounds"));
        assert!(!is_transient("kernel mentions simfault: later"));
    }

    #[test]
    fn panicking_kernel_is_contained_not_fatal() {
        let (outcome, result) = execute_guarded(
            fixture("Fixture_PANIC"),
            VariantId::BaseSeq,
            64,
            1,
            &Tuning::default(),
            &FaultPolicy::default(),
        );
        assert!(result.is_none());
        match outcome {
            KernelOutcome::Failed { message, retries } => {
                assert!(message.contains("Fixture_PANIC"), "{message}");
                assert_eq!(retries, 0, "genuine crashes are never retried");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn genuine_panic_is_not_retried_even_with_retry_budget() {
        let policy = FaultPolicy {
            max_retries: 3,
            retry_backoff: Duration::from_millis(1),
            ..FaultPolicy::default()
        };
        let (outcome, _) = execute_guarded(
            fixture("Fixture_PANIC"),
            VariantId::BaseSeq,
            64,
            1,
            &Tuning::default(),
            &policy,
        );
        assert_eq!(
            outcome,
            KernelOutcome::Failed {
                message: "Fixture_PANIC crashed deliberately at n=64".into(),
                retries: 0,
            }
        );
    }

    #[test]
    fn watchdog_cuts_a_hung_kernel_loose() {
        let limit = Duration::from_millis(150);
        // Deliberately real wall-clock: the watchdog cuts hung kernels loose
        // in real time, so the bound below must be measured in real time.
        #[allow(clippy::disallowed_methods)]
        let started = std::time::Instant::now();
        let (outcome, result) = execute_guarded(
            fixture("Fixture_HANG"),
            VariantId::BaseSeq,
            64,
            1,
            &Tuning::default(),
            &FaultPolicy {
                timeout: Some(limit),
                ..FaultPolicy::default()
            },
        );
        let waited = started.elapsed();
        assert_eq!(outcome, KernelOutcome::TimedOut { limit });
        assert!(result.is_none());
        assert!(
            waited < kernels::faulty::HANG_TOTAL,
            "watchdog must not wait out the hang ({waited:?})"
        );
    }

    #[test]
    fn healthy_kernel_passes_under_watchdog() {
        let (outcome, result) = execute_guarded(
            kernels::find("Basic_DAXPY").unwrap(),
            VariantId::BaseSeq,
            1000,
            1,
            &Tuning::default(),
            &FaultPolicy {
                timeout: Some(Duration::from_secs(30)),
                ..FaultPolicy::default()
            },
        );
        assert_eq!(outcome, KernelOutcome::Passed { retries: 0 });
        assert!(result.unwrap().checksum.is_finite());
    }
}
