//! What carries a rank: the supervisor's only view of its ranks.
//!
//! The supervisor ([`super::supervisor`]) asks a [`Carrier`] to *start
//! incarnation `gen` of rank `r` and deliver its frames to my event
//! channel*, and holds the returned [`RankHandle`] to send the rank a
//! message, kill it if it can be killed, and reap it into a typed
//! [`RankExit`]. Two carriers exist:
//!
//! * [`ProcessCarrier`] — a spawned child `rajaperf --rank-worker R/N` on
//!   stdio pipes. Reader threads turn its stdout frames and stderr lines
//!   into events; it can be killed, so the supervisor polices its
//!   heartbeats; its wait status decodes into the exit taxonomy below.
//! * [`ThreadCarrier`] — a `catch_unwind`-wrapped thread in this process
//!   running the same worker loop on in-memory channels. Free to start and
//!   needs no worker binary, but cannot be killed (the per-kernel watchdog
//!   is what bounds a cell) and shares this process's fate on a hard fault
//!   (abort, OOM kill).
//!
//! # Exit taxonomy
//!
//! A signal death, panic (child exit 101 or a caught thread panic), or
//! internal error is a restartable event charged against the rank's
//! budget; a *usage* exit (2) means supervisor and worker disagree about
//! the command line — no restart can fix that, so the supervisor aborts
//! the campaign with [`io::ErrorKind::InvalidInput`].

use super::protocol::{FromRank, ToRank};
use super::{worker, SweepPlan};
use crate::exec::{panic_message, SuiteExit};
use crate::RunParams;
use serde_json::Value;
use simcomm::transport::{read_frame, write_frame};
use simsched::time::Instant;
use std::io::{self, BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, ExitStatus, Stdio};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// Test/daemon override for the worker binary; falls back to resolving a
/// `rajaperf` next to the current executable.
pub(crate) const WORKER_BIN_ENV: &str = "RAJAPERF_WORKER_BIN";

/// What a rank's carrier reports to the supervisor's event loop.
pub(crate) enum Event {
    /// A protocol frame from the rank, plus its size on the wire.
    Frame(Value, u64),
    /// The rank's frame stream ended (clean EOF, torn frame, or the rank's
    /// thread finished) — the rank is gone or going; reap it.
    Eof,
    /// One line of the rank's captured diagnostic output.
    Output(String),
}

/// The supervisor's event channel: `(rank, generation, event)`.
pub(crate) type Events = mpsc::Sender<(usize, u64, Event)>;

/// Starts ranks.
pub(crate) trait Carrier {
    /// Start incarnation `gen` of `rank`; everything it says arrives on
    /// `events` tagged `(rank, gen)`, ending with [`Event::Eof`].
    fn start(&self, rank: usize, gen: u64, events: &Events) -> io::Result<Box<dyn RankHandle>>;
}

/// One live rank incarnation. Dropping the handle never leaks the rank: a
/// child is killed and reaped, a thread is hung up on and joined.
pub(crate) trait RankHandle {
    /// Send one message; returns its encoded size in bytes.
    fn send(&mut self, msg: &ToRank) -> io::Result<u64>;
    /// Kill the rank if this carrier can; `false` means it cannot, and the
    /// supervisor must not treat the rank's silence as death.
    fn kill(&mut self) -> bool;
    /// Hang up on the rank (a worker that sees that exits), wait for it to
    /// end — at most `grace` where the carrier can force the matter — and
    /// say how it ended.
    fn reap(&mut self, grace: Duration) -> io::Result<RankExit>;
}

/// How a rank incarnation ended, decoded into what the supervisor (and the
/// suite's exit taxonomy) cares about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RankExit {
    /// Exit 0 / the worker loop returned success.
    Clean,
    /// Exit 2: the worker rejected its command line.
    Usage,
    /// A panic: child exit 101, or a caught thread panic with its message.
    Panic(String),
    /// Any other exit code.
    Internal(i32),
    /// Terminated by a signal (`kill -9`, SIGABRT, SIGSEGV, ...).
    Signal(i32),
}

/// Decode a child's `ExitStatus` (unix: exit code vs terminating signal).
pub(crate) fn decode_child_exit(status: ExitStatus) -> RankExit {
    use std::os::unix::process::ExitStatusExt;
    match status.code() {
        Some(0) => RankExit::Clean,
        Some(2) => RankExit::Usage,
        Some(101) => RankExit::Panic("exit 101".to_string()),
        Some(c) => RankExit::Internal(c),
        None => RankExit::Signal(status.signal().unwrap_or(-1)),
    }
}

impl RankExit {
    /// Human description for casualty reports and respawn annotations.
    pub(crate) fn describe(&self) -> String {
        match self {
            RankExit::Clean => "exited cleanly mid-campaign".to_string(),
            RankExit::Usage => "usage error (exit 2)".to_string(),
            RankExit::Panic(detail) => format!("panicked ({detail})"),
            RankExit::Internal(c) => format!("exited with internal error (exit {c})"),
            RankExit::Signal(s) => {
                let name = match *s {
                    6 => " (SIGABRT)",
                    9 => " (SIGKILL)",
                    11 => " (SIGSEGV)",
                    15 => " (SIGTERM)",
                    _ => "",
                };
                format!("killed by signal {s}{name}")
            }
        }
    }
}

/// Ranks as spawned child `rajaperf --rank-worker R/N` processes.
pub(crate) struct ProcessCarrier {
    bin: PathBuf,
    base: RunParams,
    nranks: usize,
}

impl ProcessCarrier {
    pub(crate) fn new(base: &RunParams, nranks: usize) -> io::Result<ProcessCarrier> {
        Ok(ProcessCarrier {
            bin: worker_binary()?,
            base: base.clone(),
            nranks,
        })
    }
}

/// Resolve the `rajaperf` binary to spawn workers from: the env override,
/// the current executable itself (when the supervisor *is* `rajaperf`), or
/// a `rajaperf` sibling of it (the daemon's layout, and — one level up —
/// cargo's `target/debug/deps/<test-bin>` layout).
fn worker_binary() -> io::Result<PathBuf> {
    if let Ok(p) = std::env::var(WORKER_BIN_ENV) {
        if !p.is_empty() {
            return Ok(PathBuf::from(p));
        }
    }
    let exe = std::env::current_exe()?;
    if exe.file_name().and_then(|n| n.to_str()) == Some("rajaperf") {
        return Ok(exe);
    }
    // A sibling of the executable, or of its directory.
    let siblings = exe.ancestors().skip(1).take(2);
    let found = siblings
        .map(|dir| dir.join("rajaperf"))
        .find(|c| c.is_file());
    found.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "cannot locate the rajaperf worker binary next to {} \
                 (set {WORKER_BIN_ENV} to override)",
                exe.display()
            ),
        )
    })
}

impl Carrier for ProcessCarrier {
    fn start(&self, rank: usize, gen: u64, events: &Events) -> io::Result<Box<dyn RankHandle>> {
        // The campaign's own command line, as this rank's worker.
        let worker = RunParams {
            rank_worker: Some((rank, self.nranks)),
            ..self.base.clone()
        };
        let mut child = Command::new(&self.bin)
            .args(worker.to_argv())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| {
                io::Error::new(
                    e.kind(),
                    format!(
                        "cannot spawn rank {rank} worker {}: {e}",
                        self.bin.display()
                    ),
                )
            })?;
        let stdout = child.stdout.take().expect("stdout piped");
        let stderr = child.stderr.take().expect("stderr piped");
        let stdin = child.stdin.take();
        // Own the child before spawning its readers: if a thread fails to
        // spawn, the error propagates and the handle's Drop reaps the child.
        let handle = ProcessRank { child, stdin };

        let tx = events.clone();
        std::thread::Builder::new()
            .name(format!("rank-{rank}-stdout"))
            .spawn(move || {
                let mut r = BufReader::new(stdout);
                // Clean EOF and a torn frame both mean the child is gone;
                // the distinction is recovered from the wait status.
                while let Ok(Some((v, n))) = read_frame(&mut r) {
                    if tx.send((rank, gen, Event::Frame(v, n))).is_err() {
                        return;
                    }
                }
                let _ = tx.send((rank, gen, Event::Eof));
            })?;
        let tx = events.clone();
        std::thread::Builder::new()
            .name(format!("rank-{rank}-stderr"))
            .spawn(move || {
                for line in BufReader::new(stderr).lines() {
                    let Ok(line) = line else { return };
                    if tx.send((rank, gen, Event::Output(line))).is_err() {
                        return;
                    }
                }
            })?;
        Ok(Box::new(handle))
    }
}

struct ProcessRank {
    child: Child,
    stdin: Option<ChildStdin>,
}

impl RankHandle for ProcessRank {
    fn send(&mut self, msg: &ToRank) -> io::Result<u64> {
        let stdin = self.stdin.as_mut().ok_or(io::ErrorKind::BrokenPipe)?;
        write_frame(stdin, &msg.encode())
    }

    fn kill(&mut self) -> bool {
        let _ = self.child.kill();
        true
    }

    /// Poll politely for `grace` (a cleanly-exiting child is milliseconds
    /// away), then SIGKILL — a child that will not exit is wedged, and
    /// blocking the supervisor forever on `wait()` is not an option.
    fn reap(&mut self, grace: Duration) -> io::Result<RankExit> {
        // Closing stdin is the EOF backstop for a worker that missed a
        // shutdown frame (and the orphan contract's trigger).
        drop(self.stdin.take());
        let start = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait()? {
                return Ok(decode_child_exit(status));
            }
            if start.elapsed() > grace {
                let _ = self.child.kill();
                return self.child.wait().map(decode_child_exit);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for ProcessRank {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Ranks as threads of this process on in-memory channels.
pub(crate) struct ThreadCarrier {
    base: Arc<RunParams>,
    plan: Arc<SweepPlan>,
    nranks: usize,
}

impl ThreadCarrier {
    pub(crate) fn new(base: &RunParams, plan: &Arc<SweepPlan>, nranks: usize) -> ThreadCarrier {
        ThreadCarrier {
            base: Arc::new(base.clone()),
            plan: Arc::clone(plan),
            nranks,
        }
    }
}

/// A frame's size as the pipe framing would count it, so thread ranks'
/// `rank_stats` mean what process ranks' do.
fn wire_len(frame: &Value) -> io::Result<u64> {
    write_frame(&mut io::sink(), frame)
}

impl Carrier for ThreadCarrier {
    fn start(&self, rank: usize, gen: u64, events: &Events) -> io::Result<Box<dyn RankHandle>> {
        let (tx, rx) = mpsc::channel::<Value>();
        let (base, plan) = (Arc::clone(&self.base), Arc::clone(&self.plan));
        let (nranks, events) = (self.nranks, events.clone());
        let thread = std::thread::Builder::new()
            .name(format!("sweep-rank-{rank}"))
            .spawn(move || {
                let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    worker::serve(
                        &base,
                        &plan,
                        (rank, nranks),
                        || Ok(rx.recv().ok()),
                        |msg: &FromRank| {
                            let frame = msg.encode();
                            let bytes = wire_len(&frame)?;
                            events
                                .send((rank, gen, Event::Frame(frame, bytes)))
                                .map_err(|_| io::Error::from(io::ErrorKind::BrokenPipe))
                        },
                    )
                }));
                let _ = events.send((rank, gen, Event::Eof));
                served
            })?;
        Ok(Box::new(ThreadRank {
            tx: Some(tx),
            thread: Some(thread),
        }))
    }
}

struct ThreadRank {
    tx: Option<mpsc::Sender<Value>>,
    /// Yields how the worker loop ended: its exit, or its panic payload.
    thread: Option<JoinHandle<std::thread::Result<SuiteExit>>>,
}

impl RankHandle for ThreadRank {
    fn send(&mut self, msg: &ToRank) -> io::Result<u64> {
        let frame = msg.encode();
        let bytes = wire_len(&frame)?;
        let tx = self.tx.as_ref().ok_or(io::ErrorKind::BrokenPipe)?;
        tx.send(frame).map_err(|_| io::ErrorKind::BrokenPipe)?;
        Ok(bytes)
    }

    fn kill(&mut self) -> bool {
        false
    }

    /// A join: the thread sent `Eof` as its last act, or sees the hang-up
    /// and returns after at most its current cell.
    fn reap(&mut self, _grace: Duration) -> io::Result<RankExit> {
        drop(self.tx.take());
        let Some(thread) = self.thread.take() else {
            return Ok(RankExit::Clean);
        };
        Ok(match thread.join().and_then(|served| served) {
            Ok(SuiteExit::Success) => RankExit::Clean,
            Ok(exit) => RankExit::Internal(exit.code()),
            Err(payload) => RankExit::Panic(panic_message(&*payload)),
        })
    }
}

impl Drop for ThreadRank {
    fn drop(&mut self) {
        let _ = self.reap(Duration::ZERO);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::process::ExitStatusExt;

    #[test]
    fn exit_status_decodes_to_the_taxonomy_and_names_common_signals() {
        // A raw wait status: `code << 8` for an exit, the bare signal
        // number for a signal death.
        let raw = ExitStatus::from_raw;
        let panic = RankExit::Panic("exit 101".to_string());
        for (status, exit, description) in [
            (raw(0), RankExit::Clean, "exited cleanly mid-campaign"),
            (raw(2 << 8), RankExit::Usage, "usage error (exit 2)"),
            (raw(101 << 8), panic, "panicked (exit 101)"),
            (
                raw(7 << 8),
                RankExit::Internal(7),
                "exited with internal error (exit 7)",
            ),
            (raw(9), RankExit::Signal(9), "killed by signal 9 (SIGKILL)"),
            (raw(6), RankExit::Signal(6), "killed by signal 6 (SIGABRT)"),
            (raw(42), RankExit::Signal(42), "killed by signal 42"),
        ] {
            assert_eq!(decode_child_exit(status), exit);
            assert_eq!(exit.describe(), description);
        }
    }
}
