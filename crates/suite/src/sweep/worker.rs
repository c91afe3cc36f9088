//! The rank side of a campaign: one worker loop ([`serve`]) for every
//! carrier, plus the `--rank-worker` process entry ([`run`]) that puts it
//! on stdio. The frames are [`super::protocol`]'s.
//!
//! # Cache discipline
//!
//! Each assignment first consults the cell cache: a hit is returned
//! without re-execution. This is what makes restarts cheap — a rank that
//! died *after* finishing a cell but *before* reporting it left an atomic
//! cache record behind, so the re-assigned cell is a cache load, never a
//! re-measurement, and completed cells are never executed twice.
//!
//! # The process entry
//!
//! stdout is protocol-only (the suite writes its human output to stderr in
//! worker mode — stderr is captured by the supervisor and prefixed
//! `[rank N]`). A dedicated thread heartbeats every [`HEARTBEAT_INTERVAL`]
//! so a long cell never looks dead. A worker whose supervisor dies sees
//! EOF on stdin and exits cleanly after at most the current cell — a
//! `kill -9` of the parent leaves no long-lived orphans. Protocol write
//! failures (`EPIPE` from a dead parent) likewise exit quietly.

use super::protocol::{CellFailure, CellResult, FromRank, ToRank};
use super::{execute_cell, load_cached_cell, CellLoad, SweepPlan};
use crate::exec::SuiteExit;
use crate::RunParams;
use serde_json::Value;
use simcomm::transport::{read_frame, write_frame};
use simsched::sync::atomic::{AtomicBool, Ordering};
use simsched::sync::Mutex;
use std::io::{self, BufReader};
use std::sync::{Arc, PoisonError};
use std::time::Duration;

/// Cadence of a process worker's heartbeat frames. The supervisor's
/// liveness deadline is many multiples of this, so a healthy-but-busy
/// worker can never be mistaken for a wedged one.
pub(crate) const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(500);

/// Test-only hook: a worker whose rank equals this env var's value panics
/// at boot, before its `ready` frame, every incarnation — a deterministic
/// stand-in for a rank whose node kills it on startup (child exit 101 / a
/// caught thread panic), used to exercise restart-budget exhaustion and
/// the casualty path under both carriers.
pub(crate) const TEST_ABORT_ENV: &str = "RAJAPERF_TEST_WORKER_ABORT_RANK";

/// The worker loop: announce `ready`, then answer each assigned cell with a
/// `result` (from the cell cache, or by executing it) or a `failed`, until
/// `shutdown` or the supervisor hangs up.
///
/// `recv` yields the next supervisor frame (`Ok(None)` once hung up);
/// `send` delivers one frame to it. Returns `Success` on shutdown, hang-up
/// or a vanished supervisor (`send` failing); `Internal` only when `recv`
/// itself fails.
pub(crate) fn serve(
    base: &RunParams,
    plan: &SweepPlan,
    (rank, nranks): (usize, usize),
    mut recv: impl FnMut() -> io::Result<Option<Value>>,
    send: impl Fn(&FromRank) -> io::Result<()>,
) -> SuiteExit {
    if std::env::var(TEST_ABORT_ENV).ok().as_deref() == Some(rank.to_string().as_str()) {
        panic!("rank {rank} aborting at boot ({TEST_ABORT_ENV})");
    }
    if send(&FromRank::Ready(rank)).is_err() {
        return SuiteExit::Success;
    }
    loop {
        let frame = match recv() {
            // Hung up: the supervisor shut down or died; either way the
            // orphan contract is "exit now".
            Ok(None) => return SuiteExit::Success,
            Ok(Some(frame)) => frame,
            Err(e) => {
                eprintln!("rank {rank}: protocol read failed: {e}");
                return SuiteExit::Internal;
            }
        };
        let cell = match ToRank::decode(&frame) {
            Ok(ToRank::Shutdown) => return SuiteExit::Success,
            Ok(ToRank::Cell(cell)) => cell,
            // Frames this build cannot read are ignored, not guessed at.
            Err(_) => continue,
        };
        let reply = match plan.specs.get(cell) {
            None => Err(format!(
                "cell index {cell} is outside the {}-cell grid",
                plan.specs.len()
            )),
            Some(spec) => match load_cached_cell(spec) {
                CellLoad::Hit(outcome) => Ok((true, outcome)),
                _ => execute_cell(base, spec, Some((rank, nranks)))
                    .map(|outcome| (false, outcome))
                    .map_err(|e| {
                        format!(
                            "cell {}.block_{}: {e}",
                            spec.variant.name(),
                            spec.block_size
                        )
                    }),
            },
        };
        let reply = match reply {
            Ok((cached, outcome)) => FromRank::Result(CellResult {
                cell,
                cached,
                outcome,
            }),
            Err(error) => FromRank::Failed(CellFailure { cell, error }),
        };
        if send(&reply).is_err() {
            return SuiteExit::Success;
        }
    }
}

/// The `--rank-worker R/N` process: re-plan the grid from this process's
/// own parameters (the supervisor's argv), then [`serve`] on stdio with a
/// heartbeat thread beside it. Returns the process exit status for `main`.
pub(crate) fn run(base: &RunParams) -> SuiteExit {
    let (rank, nranks) = base
        .rank_worker
        .expect("worker mode requires --rank-worker");
    let plan = match super::plan_sweep(base) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("rank {rank}: cannot plan sweep grid: {e}");
            return SuiteExit::Internal;
        }
    };

    // Shared by the worker loop and the heartbeat thread; frames are
    // line-atomic under the lock.
    let out = Arc::new(Mutex::labeled(io::stdout(), "sweep.worker_stdout"));
    let send = move |msg: &FromRank| {
        let mut out = out.lock().unwrap_or_else(PoisonError::into_inner);
        write_frame(&mut *out, &msg.encode()).map(drop)
    };

    // Liveness from a dedicated thread: beats keep flowing while a cell
    // (possibly stalled by injected faults) runs on the main thread. The
    // thread dies with the process; `stop` just quiets a clean shutdown.
    let stop = Arc::new(AtomicBool::new(false));
    {
        let (send, stop) = (send.clone(), Arc::clone(&stop));
        std::thread::Builder::new()
            .name(format!("rank-{rank}-heartbeat"))
            .spawn(move || {
                let mut seq: u64 = 0;
                loop {
                    std::thread::sleep(HEARTBEAT_INTERVAL);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    seq += 1;
                    if send(&FromRank::Heartbeat(seq)).is_err() {
                        // Parent is gone; nothing left to be alive *for*.
                        std::process::exit(SuiteExit::Success.code());
                    }
                }
            })
            .ok();
    }

    let mut stdin = BufReader::new(io::stdin());
    let recv = || read_frame(&mut stdin).map(|f| f.map(|(frame, _)| frame));
    let exit = serve(base, &plan, (rank, nranks), recv, send);
    stop.store(true, Ordering::Relaxed);
    exit
}
