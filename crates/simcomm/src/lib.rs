//! A simulated message-passing substrate (the suite's MPI stand-in).
//!
//! RAJAPerf's Comm group (HALO_PACKING, HALO_EXCHANGE, HALO_SENDRECV and the
//! FUSED variants) exercises distributed-memory halo-exchange patterns:
//! packing boundary elements into per-neighbour buffers, exchanging them
//! with MPI point-to-point messages, and unpacking into ghost cells. The
//! paper also runs the *whole* suite under MPI (112 ranks on the CPU
//! systems, one rank per GPU on the others — Table III).
//!
//! This container has one core and no MPI, so this crate implements message
//! passing over OS threads: [`run`] spawns one thread per rank, and each
//! rank's [`Comm`] handle provides blocking send/recv with tag matching,
//! non-blocking isend/irecv with [`Request`]s, barriers, and allreduce —
//! the subset the halo kernels and the rank-sharded sweep orchestrator
//! need. Per-rank traffic counters (both directions) feed the performance
//! model's communication-cost term (`latency + bytes/BW` per message),
//! which is how the paper's "HALO kernels are dominated by MPI time"
//! observation is reproduced.
//!
//! # Hardened rank runtime
//!
//! A real `mpirun` kills the job when one rank dies; a naive thread
//! simulation instead deadlocks — peers block forever in `Barrier::wait`
//! or a channel `recv` that no one will ever satisfy. This runtime makes
//! rank death a *detectable, attributed* event:
//!
//! * the barrier is poison-aware ([`PoisonBarrier`]): the first rank to
//!   panic poisons it, waking every current and future waiter;
//! * blocked receivers are woken by an abort sentinel injected into every
//!   inbox when a rank dies;
//! * sends to a dead rank's dropped inbox abort the sender instead of
//!   cascading `expect("peer rank hung up")` panics.
//!
//! Secondary casualties unwind with a private [`RankAbort`] payload that
//! the runtime recognizes and discards; [`try_run`] reports the *original*
//! failure as a rank-attributed [`RankPanic`].
//!
//! # Tag discipline
//!
//! User-facing tags must be `>= 0`. The negative tag space is reserved for
//! the runtime (collectives, abort sentinels), so user traffic can never
//! collide with an in-flight `allreduce_sum` again.
//!
//! # Transports
//!
//! The in-memory channels here are one carrier of the sweep's gather
//! protocol; [`transport`] is the carrier-independent other half — line-
//! delimited JSON framing with [`CommStats`] accounting over any
//! `Read`/`Write` pair — used by process-isolated campaigns to speak the
//! same protocol over child-process pipes.
//!
//! [`halo`] builds the 3-D domain-decomposition geometry: neighbour ranks
//! and pack/unpack index lists for all 26 adjacencies of a box with ghost
//! layers — the same lists RAJAPerf's halo kernels compute.

use crossbeam::channel::{unbounded, Receiver, Sender};
use simsched::sync::{Condvar, Mutex};
use std::cell::Cell;
use std::sync::{Arc, PoisonError};

pub mod halo;
pub mod transport;

/// Tags below zero belong to the runtime; user-facing operations must use
/// tags `>= 0`.
pub const FIRST_USER_TAG: i32 = 0;
/// Reserved tag: gather leg of [`Comm::allreduce_sum`].
const REDUCE_UP_TAG: i32 = -101;
/// Reserved tag: broadcast leg of [`Comm::allreduce_sum`].
const REDUCE_BCAST_TAG: i32 = -100;
/// Reserved tag: abort sentinel waking receivers blocked on a dead peer.
const ABORT_TAG: i32 = i32::MIN;

/// A message payload: numeric halo data or opaque bytes (the rank-sharded
/// sweep gathers its per-cell results as serialized JSON bytes).
#[derive(Debug, Clone)]
enum Payload {
    F64(Vec<f64>),
    Bytes(Vec<u8>),
}

impl Payload {
    fn len_bytes(&self) -> u64 {
        match self {
            Payload::F64(v) => (v.len() * std::mem::size_of::<f64>()) as u64,
            Payload::Bytes(b) => b.len() as u64,
        }
    }
}

/// A tagged message in flight.
#[derive(Debug)]
struct Message {
    src: usize,
    tag: i32,
    payload: Payload,
}

/// Per-rank traffic statistics, counted on both sides of the wire: a rank
/// that receives 26 halo faces is distinguishable from one that receives
/// none, which the perfmodel communication-cost term needs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Messages sent by this rank.
    pub messages_sent: u64,
    /// Total payload bytes sent by this rank.
    pub bytes_sent: u64,
    /// Messages received (delivered to the application) by this rank.
    pub messages_received: u64,
    /// Total payload bytes received by this rank.
    pub bytes_received: u64,
}

impl CommStats {
    /// The all-zero counter set (`const`, for static initializers).
    pub const fn new() -> CommStats {
        CommStats {
            messages_sent: 0,
            bytes_sent: 0,
            messages_received: 0,
            bytes_received: 0,
        }
    }

    /// Counters accumulated since `earlier` (saturating per field).
    pub fn since(self, earlier: CommStats) -> CommStats {
        CommStats {
            messages_sent: self.messages_sent.saturating_sub(earlier.messages_sent),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            messages_received: self
                .messages_received
                .saturating_sub(earlier.messages_received),
            bytes_received: self.bytes_received.saturating_sub(earlier.bytes_received),
        }
    }

    /// Fold another counter set into this one.
    pub fn add(&mut self, other: CommStats) {
        self.messages_sent += other.messages_sent;
        self.bytes_sent += other.bytes_sent;
        self.messages_received += other.messages_received;
        self.bytes_received += other.bytes_received;
    }

    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == CommStats::new()
    }
}

thread_local! {
    /// Cumulative per-thread communication counters: every [`run`] /
    /// [`try_run`] completed *from this thread* folds its ranks' totals in.
    /// The suite snapshots this around each kernel execution to attribute
    /// measured `comm.*` metrics to the kernel's Caliper region.
    static THREAD_STATS: Cell<CommStats> = const { Cell::new(CommStats::new()) };
}

/// Cumulative communication counters of every communicator run completed
/// from the calling thread. Take a snapshot before and after a region and
/// subtract ([`CommStats::since`]) to attribute traffic to it.
pub fn thread_stats() -> CommStats {
    THREAD_STATS.with(|s| s.get())
}

/// Fold externally measured counters into the calling thread's cumulative
/// stats. The suite's watchdog relays a spawned attempt's delta back to the
/// runner thread with this.
pub fn add_thread_stats(delta: CommStats) {
    THREAD_STATS.with(|s| {
        let mut v = s.get();
        v.add(delta);
        s.set(v);
    });
}

/// A rank-attributed failure from [`try_run`]: the first rank that
/// panicked, with its panic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankPanic {
    /// The rank whose panic killed the run.
    pub rank: usize,
    /// Its panic message.
    pub message: String,
}

impl std::fmt::Display for RankPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} panicked: {}", self.rank, self.message)
    }
}

impl std::error::Error for RankPanic {}

/// Private unwind payload for secondary casualties: a rank aborted because
/// a *peer* died (poisoned barrier, abort sentinel, dead inbox). The
/// runtime discards these instead of reporting them as the root failure.
struct RankAbort(String);

fn abort(cause: String) -> ! {
    std::panic::panic_any(RankAbort(cause))
}

/// A barrier whose waiters can be woken by rank death. `std::sync::Barrier`
/// has no such escape hatch: a waiter whose peer panicked blocks forever.
struct PoisonBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
}

struct BarrierState {
    nranks: usize,
    arrived: usize,
    generation: u64,
    poisoned: bool,
}

impl PoisonBarrier {
    fn new(nranks: usize) -> PoisonBarrier {
        PoisonBarrier {
            state: Mutex::labeled(
                BarrierState {
                    nranks,
                    arrived: 0,
                    generation: 0,
                    poisoned: false,
                },
                "simcomm.barrier",
            ),
            cv: Condvar::new(),
        }
    }

    /// Wait for all ranks. `Err` means a rank died while anyone was (or
    /// will be) waiting; the barrier never completes again.
    fn wait(&self) -> Result<(), ()> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.poisoned {
            return Err(());
        }
        st.arrived += 1;
        if st.arrived == st.nranks {
            st.arrived = 0;
            st.generation += 1;
            self.cv.notify_all();
            return Ok(());
        }
        let gen = st.generation;
        while st.generation == gen && !st.poisoned {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        if st.poisoned && st.generation == gen {
            Err(())
        } else {
            Ok(())
        }
    }

    /// Mark the barrier dead and wake every waiter.
    fn poison(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.poisoned = true;
        self.cv.notify_all();
    }
}

/// Runtime state shared by all ranks of one [`run`]: the poison machinery
/// and the per-rank stats board the runtime reads back after the join.
struct RunShared {
    barrier: PoisonBarrier,
    /// First rank to panic wins; secondary aborts never overwrite it.
    panic_slot: Mutex<Option<RankPanic>>,
    /// The runtime's own sender clones, used to inject abort sentinels into
    /// every inbox when a rank dies (a dead rank's own clones are gone).
    abort_senders: Mutex<Vec<Sender<Message>>>,
    /// Final per-rank stats, written by `Comm::drop` (normal return *and*
    /// unwind both drop the handle).
    stats: Mutex<Vec<CommStats>>,
}

/// A rank's endpoint within a communicator.
pub struct Comm {
    rank: usize,
    size: usize,
    /// Sender to every rank (index = destination).
    senders: Vec<Sender<Message>>,
    /// This rank's inbox.
    inbox: Receiver<Message>,
    /// Out-of-order messages awaiting a matching recv.
    pending: Vec<Message>,
    shared: Arc<RunShared>,
    stats: CommStats,
}

/// Handle for a non-blocking operation, completed by [`Comm::wait`].
#[derive(Debug)]
pub enum Request {
    /// A send; completes immediately (buffered sends, like `MPI_Ibsend`).
    Send,
    /// A receive of a message from `src` with matching `tag`.
    Recv {
        /// Source rank.
        src: usize,
        /// Message tag.
        tag: i32,
    },
}

impl Comm {
    /// This rank's id (`MPI_Comm_rank`).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks (`MPI_Comm_size`).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Traffic counters accumulated so far.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    fn assert_user_tag(tag: i32) {
        assert!(
            tag >= FIRST_USER_TAG,
            "tag {tag} is reserved: negative tags belong to simcomm \
             collectives and runtime control traffic"
        );
    }

    /// Internal send, reserved tags allowed. A dead destination (its inbox
    /// dropped mid-unwind) aborts this rank instead of panicking opaquely.
    fn send_raw(&mut self, dest: usize, tag: i32, payload: Payload) {
        assert!(dest < self.size, "send to invalid rank {dest}");
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += payload.len_bytes();
        if self.senders[dest]
            .send(Message {
                src: self.rank,
                tag,
                payload,
            })
            .is_err()
        {
            abort(format!("rank {dest} hung up (inbox dropped)"));
        }
    }

    /// Internal receive, reserved tags allowed. Wakes on abort sentinels.
    fn recv_raw(&mut self, src: usize, tag: i32) -> Payload {
        assert!(src < self.size, "recv from invalid rank {src}");
        if let Some(pos) = self
            .pending
            .iter()
            .position(|m| m.src == src && m.tag == tag)
        {
            let payload = self.pending.swap_remove(pos).payload;
            self.stats.messages_received += 1;
            self.stats.bytes_received += payload.len_bytes();
            return payload;
        }
        loop {
            let msg = match self.inbox.recv() {
                Ok(m) => m,
                Err(_) => abort("all peer ranks hung up".to_string()),
            };
            if msg.tag == ABORT_TAG {
                abort(format!("rank {} aborted the run", msg.src));
            }
            if msg.src == src && msg.tag == tag {
                self.stats.messages_received += 1;
                self.stats.bytes_received += msg.payload.len_bytes();
                return msg.payload;
            }
            self.pending.push(msg);
        }
    }

    /// Blocking tagged send (buffered; cannot deadlock on itself). The tag
    /// must be `>= 0`; negative tags are reserved for the runtime.
    pub fn send(&mut self, dest: usize, tag: i32, payload: &[f64]) {
        Self::assert_user_tag(tag);
        self.send_raw(dest, tag, Payload::F64(payload.to_vec()));
    }

    /// Blocking tagged receive from a specific source (tag `>= 0`).
    pub fn recv(&mut self, src: usize, tag: i32) -> Vec<f64> {
        Self::assert_user_tag(tag);
        match self.recv_raw(src, tag) {
            Payload::F64(v) => v,
            Payload::Bytes(_) => panic!(
                "payload type mismatch: rank {src} sent bytes on tag {tag}, \
                 receiver expected f64"
            ),
        }
    }

    /// Blocking tagged byte send (tag `>= 0`). The rank-sharded sweep
    /// gathers per-cell results as serialized JSON with this.
    pub fn send_bytes(&mut self, dest: usize, tag: i32, payload: &[u8]) {
        Self::assert_user_tag(tag);
        self.send_raw(dest, tag, Payload::Bytes(payload.to_vec()));
    }

    /// Blocking tagged byte receive from a specific source (tag `>= 0`).
    pub fn recv_bytes(&mut self, src: usize, tag: i32) -> Vec<u8> {
        Self::assert_user_tag(tag);
        match self.recv_raw(src, tag) {
            Payload::Bytes(b) => b,
            Payload::F64(_) => panic!(
                "payload type mismatch: rank {src} sent f64 on tag {tag}, \
                 receiver expected bytes"
            ),
        }
    }

    /// Non-blocking send (`MPI_Isend` with buffering; tag `>= 0`).
    pub fn isend(&mut self, dest: usize, tag: i32, payload: &[f64]) -> Request {
        self.send(dest, tag, payload);
        Request::Send
    }

    /// Post a non-blocking receive (`MPI_Irecv`, tag `>= 0`); complete it
    /// with [`Comm::wait`].
    pub fn irecv(&mut self, src: usize, tag: i32) -> Request {
        Self::assert_user_tag(tag);
        Request::Recv { src, tag }
    }

    /// Complete a request, returning the payload for receives.
    pub fn wait(&mut self, req: Request) -> Option<Vec<f64>> {
        match req {
            Request::Send => None,
            Request::Recv { src, tag } => Some(self.recv(src, tag)),
        }
    }

    /// Complete a batch of requests, returning received payloads in request
    /// order (`MPI_Waitall`).
    pub fn wait_all(&mut self, reqs: Vec<Request>) -> Vec<Option<Vec<f64>>> {
        reqs.into_iter().map(|r| self.wait(r)).collect()
    }

    /// Synchronize all ranks (`MPI_Barrier`). If any rank dies, every
    /// waiter aborts instead of blocking forever.
    pub fn barrier(&self) {
        if self.shared.barrier.wait().is_err() {
            abort("barrier poisoned by a peer rank's panic".to_string());
        }
    }

    /// Sum-allreduce a scalar across ranks (`MPI_Allreduce(..., MPI_SUM)`).
    /// Runs entirely on reserved negative tags, so it can never be satisfied
    /// by (or swallow) user traffic.
    pub fn allreduce_sum(&mut self, value: f64) -> f64 {
        if self.size == 1 {
            return value;
        }
        if self.rank == 0 {
            let mut acc = value;
            for src in 1..self.size {
                acc += match self.recv_raw(src, REDUCE_UP_TAG) {
                    Payload::F64(v) => v[0],
                    Payload::Bytes(_) => unreachable!("collectives carry f64"),
                };
            }
            for dest in 1..self.size {
                self.send_raw(dest, REDUCE_BCAST_TAG, Payload::F64(vec![acc]));
            }
            acc
        } else {
            self.send_raw(0, REDUCE_UP_TAG, Payload::F64(vec![value]));
            match self.recv_raw(0, REDUCE_BCAST_TAG) {
                Payload::F64(v) => v[0],
                Payload::Bytes(_) => unreachable!("collectives carry f64"),
            }
        }
    }
}

impl Drop for Comm {
    fn drop(&mut self) {
        // Publish final counters whether the rank returned or unwound; the
        // runtime reads the board after the join.
        let mut board = self
            .shared
            .stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        board[self.rank] = self.stats;
    }
}

/// Record a failure as the run's root cause (first writer wins — poisoning
/// happens *after* the slot write, so secondary casualties always find it
/// occupied; a secondary abort that finds it empty is a genuine protocol
/// bug like sending to a rank that already returned), then wake everyone:
/// poison the barrier and inject an abort sentinel into every inbox so
/// blocked receivers unwind too.
fn poison_run(shared: &RunShared, rank: usize, message: String) {
    {
        let mut slot = shared
            .panic_slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(RankPanic { rank, message });
        }
    }
    shared.barrier.poison();
    let senders = shared
        .abort_senders
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    for s in senders.iter() {
        let _ = s.send(Message {
            src: rank,
            tag: ABORT_TAG,
            payload: Payload::Bytes(Vec::new()),
        });
    }
}

/// Run `body` once per rank on `nranks` threads, collecting each rank's
/// return value in rank order along with each rank's final [`CommStats`].
/// This is the `mpirun -np N` equivalent, hardened: a panicking rank can
/// no longer hang the run — peers blocked in [`Comm::barrier`] or
/// [`Comm::recv`] are woken and the first failure comes back as a
/// rank-attributed [`RankPanic`].
///
/// The ranks' summed traffic is also folded into the calling thread's
/// cumulative [`thread_stats`] so callers can attribute communication to
/// enclosing regions.
pub fn try_run_with_stats<T, F>(nranks: usize, body: F) -> Result<(Vec<T>, Vec<CommStats>), RankPanic>
where
    T: Send,
    F: Fn(Comm) -> T + Sync,
{
    assert!(nranks > 0, "need at least one rank");
    let mut senders = Vec::with_capacity(nranks);
    let mut receivers = Vec::with_capacity(nranks);
    for _ in 0..nranks {
        let (tx, rx) = unbounded();
        senders.push(tx);
        receivers.push(rx);
    }
    let shared = Arc::new(RunShared {
        barrier: PoisonBarrier::new(nranks),
        panic_slot: Mutex::labeled(None, "simcomm.panic_slot"),
        abort_senders: Mutex::labeled(senders.clone(), "simcomm.abort_senders"),
        stats: Mutex::labeled(vec![CommStats::new(); nranks], "simcomm.stats"),
    });
    let mut comms: Vec<Comm> = receivers
        .into_iter()
        .enumerate()
        .map(|(rank, inbox)| Comm {
            rank,
            size: nranks,
            senders: senders.clone(),
            inbox,
            pending: Vec::new(),
            shared: shared.clone(),
            stats: CommStats::new(),
        })
        .collect();
    drop(senders);

    let values: Vec<Option<T>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(nranks);
        for comm in comms.drain(..) {
            let body = &body;
            let shared = &shared;
            let rank = comm.rank;
            let handle = std::thread::Builder::new()
                .name(format!("simcomm-rank-{rank}"))
                .spawn_scoped(scope, move || {
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(comm))) {
                        Ok(v) => Some(v),
                        Err(payload) => {
                            if let Some(a) = payload.downcast_ref::<RankAbort>() {
                                // Secondary casualty: re-poison (idempotent)
                                // so propagation chains across ranks.
                                poison_run(shared, rank, format!("aborted: {}", a.0));
                            } else {
                                let msg = message_of(&*payload);
                                poison_run(shared, rank, msg);
                            }
                            None
                        }
                    }
                })
                .expect("spawn simcomm rank thread");
            handles.push(handle);
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or(None))
            .collect()
    });

    // Drop the runtime's sender clones before reading results: the run is
    // over, nothing may inject further.
    shared
        .abort_senders
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();

    let stats = shared
        .stats
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    let mut total = CommStats::new();
    for s in &stats {
        total.add(*s);
    }
    add_thread_stats(total);

    let root = shared
        .panic_slot
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    if let Some(p) = root {
        return Err(p);
    }
    let mut out = Vec::with_capacity(nranks);
    for (rank, v) in values.into_iter().enumerate() {
        match v {
            Some(v) => out.push(v),
            None => {
                return Err(RankPanic {
                    rank,
                    message: "rank produced no value".to_string(),
                })
            }
        }
    }
    Ok((out, stats))
}

/// [`try_run_with_stats`] without the stats board.
pub fn try_run<T, F>(nranks: usize, body: F) -> Result<Vec<T>, RankPanic>
where
    T: Send,
    F: Fn(Comm) -> T + Sync,
{
    try_run_with_stats(nranks, body).map(|(v, _)| v)
}

/// Run `body` once per rank on `nranks` threads, collecting each rank's
/// return value in rank order. This is the `mpirun -np N` equivalent.
///
/// # Panics
/// Re-panics with the first failing rank's original message if any rank
/// panicked (like `mpirun` aborting the job). The message is deliberately
/// *not* decorated with the rank number: when a seeded fault fells several
/// ranks symmetrically, which one loses the race is nondeterministic, and
/// callers (the suite's retry classifier, seeded-determinism checks)
/// depend on the propagated text being stable — and on `simfault:`-style
/// prefixes staying at the front. Use [`try_run`] for rank attribution.
pub fn run<T, F>(nranks: usize, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(Comm) -> T + Sync,
{
    try_run(nranks, body).unwrap_or_else(|p| panic!("{}", p.message))
}

/// Extract a readable message from an unwind payload.
fn message_of(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn single_rank_runs() {
        let out = run(1, |comm| comm.rank() + comm.size());
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn ring_pass_delivers_in_rank_order() {
        let n = 4;
        let out = run(n, |mut comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 7, &[comm.rank() as f64]);
            comm.recv(prev, 7)[0]
        });
        assert_eq!(out, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn tag_matching_reorders_messages() {
        let out = run(2, |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[1.0]);
                comm.send(1, 2, &[2.0]);
                0.0
            } else {
                // Receive in the opposite order they were sent.
                let b = comm.recv(0, 2)[0];
                let a = comm.recv(0, 1)[0];
                a * 10.0 + b
            }
        });
        assert_eq!(out[1], 12.0);
    }

    #[test]
    fn isend_irecv_waitall() {
        let out = run(2, |mut comm| {
            let peer = 1 - comm.rank();
            let payload = vec![comm.rank() as f64; 8];
            let s = comm.isend(peer, 0, &payload);
            let r = comm.irecv(peer, 0);
            let results = comm.wait_all(vec![s, r]);
            results[1].as_ref().unwrap()[0]
        });
        assert_eq!(out, vec![1.0, 0.0]);
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let out = run(5, |mut comm| comm.allreduce_sum(comm.rank() as f64 + 1.0));
        assert!(out.iter().all(|&v| v == 15.0));
    }

    #[test]
    fn allreduce_coexists_with_user_tag_traffic() {
        // User messages on tag 0 in flight *around* an allreduce: with the
        // collectives on reserved tags, neither can swallow the other.
        let out = run(3, |mut comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 0, &[100.0 + comm.rank() as f64]);
            let red = comm.allreduce_sum(1.0);
            let ring = comm.recv(prev, 0)[0];
            (red, ring)
        });
        for (rank, (red, ring)) in out.iter().enumerate() {
            assert_eq!(*red, 3.0);
            assert_eq!(*ring, 100.0 + ((rank + 2) % 3) as f64);
        }
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let before = AtomicUsize::new(0);
        run(4, |comm| {
            before.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier every rank must observe all arrivals.
            assert_eq!(before.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn stats_count_messages_and_bytes_in_both_directions() {
        let out = run(2, |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, &[0.0; 10]);
                comm.stats()
            } else {
                comm.recv(0, 0);
                comm.stats()
            }
        });
        assert_eq!(out[0].messages_sent, 1);
        assert_eq!(out[0].bytes_sent, 80);
        assert_eq!(out[0].messages_received, 0);
        assert_eq!(out[1].messages_sent, 0);
        assert_eq!(out[1].messages_received, 1);
        assert_eq!(out[1].bytes_received, 80);
    }

    #[test]
    fn bytes_roundtrip_and_are_counted() {
        let (out, stats) = try_run_with_stats(2, |mut comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 3, b"gather me");
                Vec::new()
            } else {
                comm.recv_bytes(0, 3)
            }
        })
        .unwrap();
        assert_eq!(out[1], b"gather me");
        assert_eq!(stats[0].bytes_sent, 9);
        assert_eq!(stats[1].bytes_received, 9);
        assert_eq!(stats[1].messages_received, 1);
    }

    #[test]
    fn thread_stats_accumulate_run_totals() {
        let before = thread_stats();
        run(2, |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, &[0.0; 4]);
            } else {
                comm.recv(0, 0);
            }
        });
        let delta = thread_stats().since(before);
        assert_eq!(delta.messages_sent, 1);
        assert_eq!(delta.bytes_sent, 32);
        assert_eq!(delta.messages_received, 1);
        assert_eq!(delta.bytes_received, 32);
    }

    #[test]
    #[should_panic(expected = "send to invalid rank")]
    fn send_to_invalid_rank_panics() {
        // The offending rank panics with "send to invalid rank"; `run`
        // re-panics with that original message (rank attribution lives on
        // `try_run`'s `RankPanic`).
        run(1, |mut comm| comm.send(5, 0, &[1.0]));
    }

    #[test]
    fn user_negative_tag_is_rejected_not_swallowed() {
        // Tag -101 collides with the allreduce gather leg; it must be
        // rejected at the send site, never silently matched.
        let err = try_run(2, |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, -101, &[1.0]);
            }
        })
        .unwrap_err();
        assert_eq!(err.rank, 0);
        assert!(err.message.contains("reserved"), "{}", err.message);

        let err = try_run(1, |mut comm| {
            comm.irecv(0, -1);
        })
        .unwrap_err();
        assert!(err.message.contains("reserved"), "{}", err.message);
    }

    #[test]
    fn rank_panic_mid_barrier_returns_rank_attributed_error() {
        // Regression: rank 1 of 4 dies before the barrier while the other
        // three are blocked in `wait`. The old std::sync::Barrier hung
        // forever; the poisoned barrier must surface the failure within
        // the watchdog budget.
        // Deliberately real wall-clock: the property under test is "returns
        // promptly in real time", same as the exec watchdog tests.
        #[allow(clippy::disallowed_methods)]
        let started = std::time::Instant::now();
        let err = try_run(4, |comm| {
            if comm.rank() == 1 {
                panic!("rank 1 exploded");
            }
            comm.barrier();
        })
        .unwrap_err();
        assert_eq!(err.rank, 1);
        assert!(err.message.contains("rank 1 exploded"), "{}", err.message);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "poisoned barrier must wake waiters promptly, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn rank_panic_unblocks_peers_in_recv() {
        // Peers blocked in recv on the dead rank are woken by the abort
        // sentinel instead of waiting for a message that will never come.
        #[allow(clippy::disallowed_methods)]
        let started = std::time::Instant::now();
        let err = try_run(3, |mut comm| {
            match comm.rank() {
                1 => panic!("rank 1 died before sending"),
                _ => {
                    let _ = comm.recv(1, 0);
                }
            };
        })
        .unwrap_err();
        assert_eq!(err.rank, 1);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "blocked receivers must be woken promptly, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn try_run_returns_values_and_stats_on_success() {
        let (values, stats) = try_run_with_stats(2, |mut comm| {
            let peer = 1 - comm.rank();
            comm.send(peer, 0, &[comm.rank() as f64]);
            comm.recv(peer, 0)[0]
        })
        .unwrap();
        assert_eq!(values, vec![1.0, 0.0]);
        assert!(stats.iter().all(|s| s.messages_sent == 1));
        assert!(stats.iter().all(|s| s.messages_received == 1));
    }
}
