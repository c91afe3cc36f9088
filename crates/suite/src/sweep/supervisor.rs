//! The campaign engine: one supervisor event loop for every ranked sweep.
//!
//! The supervisor owns the [`CellScheduler`] and a slot per rank, and knows
//! its ranks only through [`super::carrier`]: it never learns whether a
//! rank is a thread or a process. It assigns a cell to each ready, idle
//! rank; records each result once; and treats a rank that dies as a
//! restartable event.
//!
//! # State machine (per rank slot)
//!
//! ```text
//!            start            ready frame
//!   Started ───────▶ Booting ────────────▶ Ready ◀─────────┐
//!                       │                    │ assign       │ result
//!                       │ death              ▼              │
//!                       │                  Busy ────────────┘
//!                       │                    │ death (EOF / torn frame /
//!                       ▼                    ▼  missed heartbeat → kill)
//!                     Dead ◀─────────────────┘
//!                       │ restarts < budget: requeue cell, backoff,
//!                       │ restart (generation += 1)
//!                       ├──────────────────────────────▶ Booting
//!                       │ restarts == budget
//!                       ▼
//!                    Retired (casualty; queue drained by the survivors)
//! ```
//!
//! Death is an [`Event::Eof`] from the carrier: a child's stdout closed
//! (clean EOF or the torn frame of a `kill -9`), or a rank thread ended
//! (returned or panicked). For ranks that can be killed, the liveness scan
//! also notices no frame for [`HEARTBEAT_DEADLINE`] and kills the wedged
//! rank so its EOF *will* arrive. Every event is tagged with the slot's
//! generation, so a restarted rank never has its state corrupted by a
//! previous incarnation's late events.
//!
//! # Failure policy
//!
//! A cell that *reports* an `io::Error` (a `failed` frame) aborts the
//! campaign; finished cells are on disk for the resume. A rank that
//! *dies* is reaped into a [`RankExit`], its
//! in-flight cell is requeued, and it is restarted until `--rank-restarts`
//! is spent, then retired with a [`RankCasualty`]; only every rank
//! retiring fails the campaign. A usage exit is the exception — see the
//! carrier's exit taxonomy.
//!
//! # Deviations from real MPI/srun
//!
//! Real launchers (srun, mpiexec) place ranks across nodes and treat a
//! lost rank as fatal to the whole job step (`MPI_Abort`, absent
//! ULFM-style negotiation); restart-on-failure lives a level up, in the
//! scheduler's requeue of the entire job. This supervisor restarts
//! *within* the campaign, which only works because cells are idempotent
//! facts: the cell cache (atomic records, keyed by content, indifferent to
//! rank count and isolation mode) makes re-execution safe and re-reporting
//! cheap, so the manifest stays byte-identical to an undisturbed
//! `--ranks 1` run no matter how many ranks died on the way. There is no
//! rank-to-rank traffic, only rank ↔ supervisor; heartbeats and deadlines
//! are this supervisor's invention (MPI runtimes detect failure through
//! the fabric); and `mpi.rank` profile metadata records the *executing*
//! rank, which a later resume never rewrites on a cached profile.

use super::carrier::{Carrier, Event, Events, RankExit, RankHandle};
use super::protocol::{DecodeError, FromRank, ToRank};
use super::scheduler::CellScheduler;
use super::CellOutcome;
use simcomm::CommStats;
use simsched::time::Instant;
use std::io;
use std::sync::mpsc;
use std::time::Duration;

/// No frame (heartbeats included) for this long means a killable rank is
/// wedged and gets killed. Process workers heartbeat every 500ms from a
/// dedicated thread even while a cell runs, so 20× that cadence cannot
/// false-positive on a merely busy rank.
const HEARTBEAT_DEADLINE: Duration = Duration::from_secs(10);

/// Base of the linear restart backoff: restart `k` waits `k *` this.
const RESTART_BACKOFF: Duration = Duration::from_millis(100);

/// Event-loop poll granularity (drives the liveness scan cadence).
const POLL: Duration = Duration::from_millis(50);

/// How long a rank whose frame stream ended gets to actually exit before
/// the supervisor stops waiting politely and kills it.
const REAP_GRACE: Duration = Duration::from_secs(2);

/// How long clean shutdown waits for all ranks before force-killing.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// Captured output cap per rank: enough for real diagnostics, bounded
/// against a rank that floods.
const MAX_OUTPUT_LINES: usize = 200;

/// A rank that exhausted its restart budget and was retired from the
/// campaign; its unfinished cells were redistributed to surviving ranks.
#[derive(Debug, Clone, serde::Serialize)]
pub struct RankCasualty {
    /// The retired rank.
    pub rank: usize,
    /// Restarts consumed before retirement (the full budget).
    pub restarts: u32,
    /// Decoded description of the death that exhausted the budget.
    pub last_failure: String,
}

/// What a completed (possibly degraded) campaign produced.
#[derive(Default)]
pub(crate) struct Campaign {
    /// `(grid index, executing rank, outcome)` per executed cell.
    pub(crate) executed: Vec<(usize, usize, CellOutcome)>,
    /// Per-rank protocol traffic, from the rank's side, cumulative across
    /// that rank's restarts.
    pub(crate) stats: Vec<CommStats>,
    /// Restarts performed per rank.
    pub(crate) restarts: Vec<u32>,
    /// Ranks retired after exhausting the restart budget.
    pub(crate) casualties: Vec<RankCasualty>,
    /// Captured rank output and supervisor annotations, each prefixed
    /// `[rank N]`, in arrival order.
    pub(crate) output: Vec<String>,
}

/// Supervisor-side state of one rank.
struct RankSlot {
    /// The live incarnation; dropping it kills/joins and reaps the rank,
    /// so however the supervisor leaves scope, no rank outlives it.
    handle: Option<Box<dyn RankHandle>>,
    /// Incarnation counter: events tagged with an older generation are
    /// late arrivals from a previous (dead) incarnation and are discarded.
    gen: u64,
    /// The current incarnation sent its `ready` frame.
    ready: bool,
    /// Pending-index of the cell assigned and not yet reported.
    current: Option<usize>,
    retired: bool,
    last_seen: Instant,
    /// Set when the liveness scan killed this rank, to annotate the
    /// decoded (SIGKILL) exit with *why*.
    kill_note: Option<String>,
    output_lines: usize,
}

struct Supervisor<'a> {
    carrier: &'a dyn Carrier,
    /// Grid indices of the cells to execute, ascending; the scheduler and
    /// `done` speak positions in this list, the wire speaks grid indices.
    pending: &'a [usize],
    budget: u32,
    sched: CellScheduler,
    slots: Vec<RankSlot>,
    tx: Events,
    rx: mpsc::Receiver<(usize, u64, Event)>,
    done: Vec<bool>,
    out: Campaign,
}

/// Execute the `pending` grid cells across `nranks` ranks started by
/// `carrier`, restarting a dead rank up to `budget` times. See the module
/// docs for the full contract.
pub(crate) fn run_campaign(
    carrier: &dyn Carrier,
    pending: &[usize],
    nranks: usize,
    budget: u32,
) -> io::Result<Campaign> {
    let (tx, rx) = mpsc::channel();
    let mut sup = Supervisor {
        carrier,
        pending,
        budget,
        sched: CellScheduler::new(pending.len(), nranks),
        slots: (0..nranks)
            .map(|_| RankSlot {
                handle: None,
                gen: 0,
                ready: false,
                current: None,
                retired: false,
                last_seen: Instant::now(),
                kill_note: None,
                output_lines: 0,
            })
            .collect(),
        tx,
        rx,
        done: vec![false; pending.len()],
        out: Campaign {
            stats: vec![CommStats::new(); nranks],
            restarts: vec![0; nranks],
            ..Campaign::default()
        },
    };
    sup.run()?;
    Ok(std::mem::take(&mut sup.out))
}

impl Supervisor<'_> {
    fn run(&mut self) -> io::Result<()> {
        for rank in 0..self.slots.len() {
            self.start_rank(rank)?;
        }
        while self.out.executed.len() < self.pending.len() {
            if self.slots.iter().all(|s| s.retired) {
                let roster = self
                    .out
                    .casualties
                    .iter()
                    .map(|c| format!("rank {}: {}", c.rank, c.last_failure))
                    .collect::<Vec<_>>()
                    .join("; ");
                return Err(io::Error::other(format!(
                    "all {} ranks retired before campaign completion ({}/{} cells done): {roster}",
                    self.slots.len(),
                    self.out.executed.len(),
                    self.pending.len(),
                )));
            }
            // A timeout just paces the liveness scan (the channel cannot
            // disconnect: `self.tx` is a sender).
            if let Ok((rank, gen, ev)) = self.rx.recv_timeout(POLL) {
                self.handle(rank, gen, ev)?;
            }
            self.liveness_scan();
        }
        self.shutdown();
        Ok(())
    }

    /// Start (or restart) `rank` at the slot's current generation.
    fn start_rank(&mut self, rank: usize) -> io::Result<()> {
        let handle = self.carrier.start(rank, self.slots[rank].gen, &self.tx)?;
        let slot = &mut self.slots[rank];
        slot.handle = Some(handle);
        slot.ready = false;
        slot.last_seen = Instant::now();
        Ok(())
    }

    fn handle(&mut self, rank: usize, gen: u64, ev: Event) -> io::Result<()> {
        // Output is captured regardless of generation: a dead
        // incarnation's last words are diagnostics, not state.
        if let Event::Output(line) = ev {
            self.capture_output(rank, &line);
            return Ok(());
        }
        if gen != self.slots[rank].gen {
            return Ok(());
        }
        let Event::Frame(frame, bytes) = ev else {
            return self.on_rank_exit(rank);
        };
        let slot = &mut self.slots[rank];
        slot.last_seen = Instant::now();
        self.out.stats[rank].messages_sent += 1;
        self.out.stats[rank].bytes_sent += bytes;
        match FromRank::decode(&frame) {
            Ok(FromRank::Ready(_)) => {
                slot.ready = true;
                self.assign(rank);
                Ok(())
            }
            Ok(FromRank::Result(result)) => self.on_result(rank, result.cell, result.outcome),
            Ok(FromRank::Failed(failed)) => Err(io::Error::other(format!(
                "sweep rank {rank} failed: {}",
                failed.error
            ))),
            Ok(FromRank::Heartbeat(_)) | Err(DecodeError::Unknown) => Ok(()),
            Err(DecodeError::Malformed(what)) => Err(io::Error::other(format!(
                "sweep rank {rank} sent a malformed {what}"
            ))),
        }
    }

    fn on_result(&mut self, rank: usize, grid: usize, outcome: CellOutcome) -> io::Result<()> {
        let Ok(i) = self.pending.binary_search(&grid) else {
            return Err(io::Error::other(format!(
                "sweep rank {rank} reported cell {grid}, which is not pending"
            )));
        };
        // `done` guards the one legitimate double-report: a rank finished
        // a cell, died before we read the result frame, and the requeued
        // cell was answered again (from cache) by another rank.
        if !self.done[i] {
            self.done[i] = true;
            self.out.executed.push((grid, rank, outcome));
        }
        self.slots[rank].current = None;
        self.assign(rank);
        Ok(())
    }

    /// Reap a dead rank, decode why it died, requeue its in-flight cell,
    /// and either restart it (budget permitting) or retire it.
    fn on_rank_exit(&mut self, rank: usize) -> io::Result<()> {
        let slot = &mut self.slots[rank];
        let Some(mut handle) = slot.handle.take() else {
            return Ok(());
        };
        let exit = handle.reap(REAP_GRACE)?;
        slot.ready = false;
        if exit == RankExit::Usage {
            // The worker rejected the command line the carrier built;
            // restarting cannot fix a parameter disagreement. InvalidInput
            // maps to the suite's usage exit (2) in the binary.
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "rank {rank} worker rejected its command line (exit 2); \
                     supervisor and worker disagree on parameters"
                ),
            ));
        }
        let mut reason = exit.describe();
        if let Some(note) = slot.kill_note.take() {
            reason = format!("{reason} ({note})");
        }
        if let Some(i) = slot.current.take() {
            if !self.done[i] {
                self.sched.requeue(rank, i);
            }
        }
        let restarts = &mut self.out.restarts[rank];
        if *restarts < self.budget {
            *restarts += 1;
            slot.gen += 1;
            let backoff = RESTART_BACKOFF * *restarts;
            self.out.output.push(format!(
                "[rank {rank}] -- supervisor: {reason}; respawn {restarts}/{} after {}ms",
                self.budget,
                backoff.as_millis()
            ));
            // A blocking backoff is deliberate: it is bounded (≤ budget ×
            // base per rank over the whole campaign) and keeps the event
            // loop single-threaded; surviving ranks keep executing their
            // already-assigned cells meanwhile.
            std::thread::sleep(backoff);
            self.start_rank(rank)?;
        } else {
            slot.retired = true;
            self.out.output.push(format!(
                "[rank {rank}] -- supervisor: {reason}; restart budget ({}) exhausted, retiring rank",
                self.budget
            ));
            self.out.casualties.push(RankCasualty {
                rank,
                restarts: *restarts,
                last_failure: reason,
            });
            // The casualty's queued cells are stealable; nudge every idle
            // survivor so redistribution does not wait for their next
            // natural result.
            for survivor in 0..self.slots.len() {
                self.assign(survivor);
            }
        }
        Ok(())
    }

    /// Kill any killable rank that has not produced a frame within the
    /// heartbeat deadline; the kill surfaces as EOF → `on_rank_exit` with
    /// the note. Ranks that cannot be killed are not policed: their cells
    /// are bounded by the per-kernel watchdog instead.
    fn liveness_scan(&mut self) {
        for slot in &mut self.slots {
            let silent = slot.last_seen.elapsed();
            if silent <= HEARTBEAT_DEADLINE {
                continue;
            }
            // Reset so the kill is issued once; EOF follows shortly.
            slot.last_seen = Instant::now();
            if slot.handle.as_mut().is_some_and(|h| h.kill()) {
                slot.kill_note = Some(format!(
                    "supervisor: no frame for {:.1}s, presumed wedged",
                    silent.as_secs_f64()
                ));
            }
        }
    }

    /// Hand `rank` its next cell if it is ready and idle. Send failures are
    /// ignored here: a dying rank's EOF event will requeue the cell.
    fn assign(&mut self, rank: usize) {
        let slot = &self.slots[rank];
        if slot.retired || !slot.ready || slot.current.is_some() {
            return;
        }
        let Some(i) = self.sched.next(rank) else {
            return;
        };
        self.slots[rank].current = Some(i);
        self.send_to(rank, &ToRank::Cell(self.pending[i]));
    }

    /// Send one message to `rank`, counting it (as the rank's "received")
    /// on success. Errors are swallowed — a broken pipe means the rank is
    /// dead and its EOF event carries the consequences.
    fn send_to(&mut self, rank: usize, msg: &ToRank) {
        let slot = &mut self.slots[rank];
        if let Some(Ok(bytes)) = slot.handle.as_mut().map(|h| h.send(msg)) {
            self.out.stats[rank].messages_received += 1;
            self.out.stats[rank].bytes_received += bytes;
        }
    }

    fn capture_output(&mut self, rank: usize, line: &str) {
        let slot = &mut self.slots[rank];
        if slot.output_lines > MAX_OUTPUT_LINES {
            return;
        }
        slot.output_lines += 1;
        if slot.output_lines > MAX_OUTPUT_LINES {
            self.out
                .output
                .push(format!("[rank {rank}] -- supervisor: output truncated"));
        } else {
            self.out.output.push(format!("[rank {rank}] {line}"));
        }
    }

    /// Campaign complete: ask every surviving rank to exit, reap them all
    /// within [`SHUTDOWN_GRACE`] (stragglers that can be killed are), then
    /// drain any output still in flight so the report keeps the ranks'
    /// last words.
    fn shutdown(&mut self) {
        for rank in 0..self.slots.len() {
            self.send_to(rank, &ToRank::Shutdown);
        }
        let start = Instant::now();
        for slot in &mut self.slots {
            if let Some(mut handle) = slot.handle.take() {
                let _ = handle.reap(SHUTDOWN_GRACE.saturating_sub(start.elapsed()));
            }
        }
        while let Ok((rank, _gen, ev)) = self.rx.try_recv() {
            if let Event::Output(line) = ev {
                self.capture_output(rank, &line);
            }
        }
    }
}
