//! The campaign engine: one supervisor event loop for every ranked sweep.
//!
//! The supervisor owns one queue of pending grid indices and a slot per
//! rank, and knows its ranks only through [`super::carrier`]: it never
//! learns whether a rank is a thread or a process. It hands the front of
//! the queue to each idle rank, one cell at a time; records each result
//! once; and treats a rank that dies as a restartable event.
//!
//! # State machine (per rank slot, [`Phase`])
//!
//! ```text
//!     start           ready frame
//!   ───────▶ Booting ────────────▶ Idle ◀───────────┐
//!               │                    │ assign        │ result
//!               │ death              ▼               │
//!               │                Busy(cell) ─────────┘
//!               │                    │ death (EOF / torn frame /
//!               ▼                    ▼  missed heartbeat → kill)
//!             (dead) ◀───────────────┘
//!               │ restarts < budget: cell back to the queue's front,
//!               │ backoff, restart (generation += 1)
//!               ├──────────────────────────────▶ Booting
//!               │ restarts == budget
//!               ▼
//!            Retired (casualty; the survivors drain the queue)
//! ```
//!
//! Death is an [`Event::Eof`] from the carrier: a child's stdout closed
//! (clean EOF or the torn frame of a `kill -9`), or a rank thread ended
//! (returned or panicked). For ranks that can be killed, the liveness scan
//! also notices no frame for [`HEARTBEAT_DEADLINE`] and kills the rank so
//! its EOF *will* arrive. That catches a child that stops sending frames
//! altogether (stopped, frozen), not a hung kernel: a process worker
//! heartbeats from a dedicated thread whatever its cell is doing, so a rank
//! whose kernel hangs keeps beating and only `--timeout` bounds it. Every event is tagged with the slot's
//! generation, so a restarted rank never has its state corrupted by a
//! previous incarnation's late events.
//!
//! # Failure policy
//!
//! A cell that *reports* an `io::Error` (a `failed` frame) aborts the
//! campaign; finished cells are on disk for the resume. A rank that
//! *dies* is reaped into a [`RankExit`], its unfinished cell goes back to
//! the front of the queue, and it is restarted until `--rank-restarts` is
//! spent, then retired with a [`RankCasualty`]; only every rank retiring
//! fails the campaign. A usage exit is the exception — see the
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
use super::CellOutcome;
use simcomm::CommStats;
use simsched::time::Instant;
use std::collections::{HashSet, VecDeque};
use std::io;
use std::sync::mpsc;
use std::time::Duration;

/// No frame (heartbeats included) for this long means a killable rank has
/// stopped altogether and gets killed. Process workers heartbeat every 500ms from a
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

/// Where a rank slot is in the module-doc state machine.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Started; its `ready` frame has not arrived yet.
    Booting,
    /// Ready, and holding no cell.
    Idle,
    /// Executing this grid cell.
    Busy(usize),
    /// Restart budget spent; out of the campaign for good.
    Retired,
}

/// Supervisor-side state of one rank.
struct RankSlot {
    /// The live incarnation; dropping it kills/joins and reaps the rank,
    /// so however the supervisor leaves scope, no rank outlives it.
    handle: Option<Box<dyn RankHandle>>,
    /// Incarnation counter: events tagged with an older generation are
    /// late arrivals from a previous (dead) incarnation and are discarded.
    gen: u64,
    phase: Phase,
    last_seen: Instant,
    /// Set when the liveness scan killed this rank, to annotate the
    /// decoded (SIGKILL) exit with *why*.
    kill_note: Option<String>,
    output_lines: usize,
}

struct Supervisor<'a> {
    carrier: &'a dyn Carrier,
    /// Grid indices of the cells to execute, ascending; a report for any
    /// other cell aborts the campaign.
    pending: &'a [usize],
    budget: u32,
    /// Grid indices waiting for an idle rank, next first; a dead rank's
    /// cell goes back at the front.
    queue: VecDeque<usize>,
    slots: Vec<RankSlot>,
    tx: Events,
    rx: mpsc::Receiver<(usize, u64, Event)>,
    /// Grid indices already recorded.
    done: HashSet<usize>,
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
        queue: pending.iter().copied().collect(),
        slots: (0..nranks)
            .map(|_| RankSlot {
                handle: None,
                gen: 0,
                phase: Phase::Booting,
                last_seen: Instant::now(),
                kill_note: None,
                output_lines: 0,
            })
            .collect(),
        tx,
        rx,
        done: HashSet::new(),
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
            if self.slots.iter().all(|s| s.phase == Phase::Retired) {
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
        slot.phase = Phase::Booting;
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
            Ok(FromRank::Ready(_)) if slot.phase == Phase::Booting => {
                slot.phase = Phase::Idle;
                self.assign(rank);
                Ok(())
            }
            Ok(FromRank::Result(result)) => self.on_result(rank, result.cell, result.outcome),
            Ok(FromRank::Failed(failed)) => Err(io::Error::other(format!(
                "sweep rank {rank} failed: {}",
                failed.error
            ))),
            Ok(FromRank::Ready(_) | FromRank::Heartbeat(_)) | Err(DecodeError::Unknown) => Ok(()),
            Err(DecodeError::Malformed(what)) => Err(io::Error::other(format!(
                "sweep rank {rank} sent a malformed {what}"
            ))),
        }
    }

    fn on_result(&mut self, rank: usize, cell: usize, outcome: CellOutcome) -> io::Result<()> {
        if self.pending.binary_search(&cell).is_err() {
            return Err(io::Error::other(format!(
                "sweep rank {rank} reported cell {cell}, which is not pending"
            )));
        }
        // The first report wins; a repeat (a requeued cell answered again,
        // from cache) is dropped.
        if self.done.insert(cell) {
            self.out.executed.push((cell, rank, outcome));
        }
        // Only the answer to the cell it holds frees the rank.
        if self.slots[rank].phase == Phase::Busy(cell) {
            self.slots[rank].phase = Phase::Idle;
            self.assign(rank);
        }
        Ok(())
    }

    /// Reap a dead rank, decode why it died, put its unfinished cell back at
    /// the front of the queue, and either restart it (budget permitting) or
    /// retire it.
    fn on_rank_exit(&mut self, rank: usize) -> io::Result<()> {
        let slot = &mut self.slots[rank];
        let Some(mut handle) = slot.handle.take() else {
            return Ok(());
        };
        let exit = handle.reap(REAP_GRACE)?;
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
        if let Phase::Busy(cell) = slot.phase {
            self.queue.push_front(cell);
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
            slot.phase = Phase::Retired;
            self.out.output.push(format!(
                "[rank {rank}] -- supervisor: {reason}; restart budget ({}) exhausted, retiring rank",
                self.budget
            ));
            self.out.casualties.push(RankCasualty {
                rank,
                restarts: *restarts,
                last_failure: reason,
            });
        }
        // An idle survivor found the queue empty and waits for nothing; the
        // cell just put back must not wait for its next natural result.
        for survivor in 0..self.slots.len() {
            self.assign(survivor);
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

    /// Hand an idle `rank` the front of the queue. Send failures are
    /// ignored here: a dying rank's EOF event puts the cell back.
    fn assign(&mut self, rank: usize) {
        if self.slots[rank].phase != Phase::Idle {
            return;
        }
        let Some(cell) = self.queue.pop_front() else {
            return;
        };
        self.slots[rank].phase = Phase::Busy(cell);
        self.send_to(rank, &ToRank::Cell(cell));
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

#[cfg(test)]
mod tests {
    use super::super::protocol::CellResult;
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Grid indices with gaps, so a slip into queue positions shows.
    const PENDING: &[usize] = &[1, 2, 4, 7, 8, 11];

    /// How scripted ranks behave: `answer(rank, gen, cell)` is what
    /// incarnation `gen` of `rank` sends back when handed `cell`, and every
    /// reap returns `exit`.
    struct Script {
        answer: Box<dyn Fn(usize, u64, usize) -> Vec<Event>>,
        exit: RankExit,
        /// Every cell handed out, in order.
        handed_out: RefCell<Vec<usize>>,
    }

    /// A carrier whose ranks are scripts: a started rank says `ready` at
    /// once, and a rank handed a cell queues its script's answer.
    struct Scripted(Rc<Script>);

    struct ScriptedRank {
        script: Rc<Script>,
        rank: usize,
        gen: u64,
        events: Events,
    }

    impl Carrier for Scripted {
        fn start(&self, rank: usize, gen: u64, events: &Events) -> io::Result<Box<dyn RankHandle>> {
            let ready = FromRank::Ready(rank).encode();
            events.send((rank, gen, Event::Frame(ready, 0))).unwrap();
            Ok(Box::new(ScriptedRank {
                script: Rc::clone(&self.0),
                rank,
                gen,
                events: events.clone(),
            }))
        }
    }

    impl RankHandle for ScriptedRank {
        fn send(&mut self, msg: &ToRank) -> io::Result<u64> {
            if let ToRank::Cell(cell) = *msg {
                self.script.handed_out.borrow_mut().push(cell);
                for ev in (self.script.answer)(self.rank, self.gen, cell) {
                    self.events.send((self.rank, self.gen, ev)).unwrap();
                }
            }
            Ok(0)
        }

        fn kill(&mut self) -> bool {
            false
        }

        fn reap(&mut self, _grace: Duration) -> io::Result<RankExit> {
            Ok(self.script.exit.clone())
        }
    }

    /// A `result` frame for `cell`; `tag` rides in `kernels_run` so a test
    /// can tell which report was recorded.
    fn result(cell: usize, tag: usize) -> Event {
        let outcome = CellOutcome {
            kernels_run: tag,
            kernels_failed: 0,
            failed_kernels: Vec::new(),
            total_time_s: 0.0,
        };
        let frame = FromRank::Result(CellResult {
            cell,
            cached: false,
            outcome,
        });
        Event::Frame(frame.encode(), 0)
    }

    /// Run `pending` on `nranks` scripted ranks; the campaign and every
    /// cell handed out, in order.
    fn campaign(
        pending: &[usize],
        nranks: usize,
        budget: u32,
        exit: RankExit,
        answer: impl Fn(usize, u64, usize) -> Vec<Event> + 'static,
    ) -> (io::Result<Campaign>, Vec<usize>) {
        let script = Rc::new(Script {
            answer: Box::new(answer),
            exit,
            handed_out: RefCell::new(Vec::new()),
        });
        let out = run_campaign(&Scripted(Rc::clone(&script)), pending, nranks, budget);
        (out, script.handed_out.take())
    }

    /// The grid indices a campaign recorded, ascending.
    fn recorded(out: &Campaign) -> Vec<usize> {
        let mut cells: Vec<usize> = out.executed.iter().map(|&(cell, _, _)| cell).collect();
        cells.sort_unstable();
        cells
    }

    #[test]
    fn every_pending_cell_is_recorded_once_at_1_2_and_4_ranks() {
        for nranks in [1, 2, 4] {
            let (out, handed_out) = campaign(PENDING, nranks, 0, RankExit::Clean, |_, _, cell| {
                vec![result(cell, 0)]
            });
            assert_eq!(recorded(&out.unwrap()), PENDING, "{nranks} ranks");
            // One queue: with no deaths, cells leave it in grid order.
            assert_eq!(handed_out, PENDING, "{nranks} ranks");
        }
    }

    #[test]
    fn a_rank_that_dies_busy_has_its_cell_handed_out_next_and_recorded_once() {
        // Rank 0's first incarnation dies holding cell 1; rank 1, freed by
        // its first result, is the next idle rank and takes cell 1 back.
        let (out, handed_out) = campaign(PENDING, 2, 1, RankExit::Signal(9), |rank, gen, cell| {
            if (rank, gen) == (0, 0) {
                vec![Event::Eof]
            } else {
                vec![result(cell, 0)]
            }
        });
        let out = out.unwrap();
        assert_eq!(handed_out[..3], [1, 2, 1]);
        assert_eq!(handed_out.len(), PENDING.len() + 1);
        assert_eq!(recorded(&out), PENDING);
        assert_eq!(out.restarts, [1, 0]);
    }

    #[test]
    fn a_retired_rank_leaves_its_cell_to_an_idle_survivor() {
        // Rank 1 is up and idle (the queue is empty) when rank 0 retires.
        let (out, _) = campaign(
            &[5],
            2,
            0,
            RankExit::Panic("boom".into()),
            |rank, _, cell| {
                if rank == 0 {
                    vec![Event::Eof]
                } else {
                    vec![result(cell, 0)]
                }
            },
        );
        let out = out.unwrap();
        assert_eq!(out.executed.len(), 1);
        assert_eq!((out.executed[0].0, out.executed[0].1), (5, 1));
        assert_eq!(out.casualties.len(), 1);
        assert_eq!(out.casualties[0].last_failure, "panicked (boom)");
    }

    #[test]
    fn a_result_from_a_dead_generation_is_ignored() {
        // The first incarnation's frame arrives after its death.
        let (out, _) = campaign(
            PENDING,
            1,
            1,
            RankExit::Signal(9),
            |_, gen, cell| match gen {
                0 => vec![Event::Eof, result(cell, 99)],
                _ => vec![result(cell, 1)],
            },
        );
        let out = out.unwrap();
        assert_eq!(recorded(&out), PENDING);
        assert!(out.executed.iter().all(|(_, _, o)| o.kernels_run == 1));
    }

    #[test]
    fn a_duplicate_result_for_a_finished_cell_is_ignored() {
        let (out, handed_out) = campaign(PENDING, 2, 0, RankExit::Clean, |_, _, cell| {
            vec![result(cell, 1), result(cell, 2)]
        });
        let out = out.unwrap();
        assert_eq!(recorded(&out), PENDING);
        assert!(
            out.executed.iter().all(|(_, _, o)| o.kernels_run == 1),
            "the first report wins"
        );
        assert_eq!(handed_out, PENDING, "each cell is handed out once");
    }

    #[test]
    fn a_result_for_a_cell_that_is_not_pending_aborts_the_campaign() {
        let (out, _) = campaign(PENDING, 2, 0, RankExit::Clean, |_, _, _| vec![result(3, 0)]);
        let err = out.err().expect("cell 3 is not pending");
        assert!(
            err.to_string()
                .contains("reported cell 3, which is not pending"),
            "{err}"
        );
    }

    #[test]
    fn the_last_rank_retiring_fails_the_campaign() {
        let (out, _) = campaign(PENDING, 2, 0, RankExit::Signal(9), |_, _, _| {
            vec![Event::Eof]
        });
        let err = out.err().expect("no rank survives");
        let want =
            "all 2 ranks retired before campaign completion (0/6 cells done): rank 0: killed";
        assert!(err.to_string().starts_with(want), "{err}");
    }

    #[test]
    fn a_usage_exit_aborts_as_invalid_input() {
        // A restart budget is left, and still no restart is tried.
        let (out, handed_out) =
            campaign(PENDING, 2, 3, RankExit::Usage, |_, _, _| vec![Event::Eof]);
        let err = out.err().expect("a usage exit aborts");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert_eq!(handed_out, [1, 2]);
    }
}
