//! Cell-granularity work stealing for ranked campaigns.
//!
//! [`CellScheduler`] reuses the shared pool's deterministic-chunk
//! discipline (`vendor/rayon/src/pool.rs`) at cell granularity: one deque
//! of contiguous `[lo, hi)` segments per rank, owner pops at the *back*
//! (LIFO, locality), thieves pop at the *front* (FIFO — largest segments
//! first, since splits push progressively smaller halves), scanning peers
//! round-robin from `me + 1`. Taking a segment repeatedly gives away its
//! back half (`mid = lo + (hi-lo)/2 + (hi-lo)%2`) until one cell remains,
//! which the taker executes. Which rank runs which cell is scheduling-
//! dependent; *what the cell computes* is not, so the gathered results are
//! order-independent facts. The supervisor ([`super::supervisor`]) is the
//! only caller: it claims a cell on a rank's behalf when that rank goes
//! idle, and hands a dead rank's in-flight cell back with
//! [`CellScheduler::requeue`].

use std::collections::VecDeque;

/// A contiguous range of pending-cell indices `lo..hi`.
#[derive(Debug, Clone, Copy)]
struct Segment {
    lo: usize,
    hi: usize,
}

/// Cell-granularity work-stealing scheduler over `ncells` pending cells,
/// mirroring the pool's segment discipline (see module docs). Owned by the
/// supervisor's single event-loop thread, so it needs no locks.
pub(crate) struct CellScheduler {
    queues: Vec<VecDeque<Segment>>,
}

impl CellScheduler {
    /// Pre-shard `ncells` into one contiguous segment per rank (the same
    /// block decomposition an MPI campaign would use), empty for ranks
    /// beyond the cell count.
    pub(crate) fn new(ncells: usize, nranks: usize) -> CellScheduler {
        let queues = (0..nranks)
            .map(|r| {
                let lo = r * ncells / nranks;
                let hi = (r + 1) * ncells / nranks;
                let mut q = VecDeque::new();
                if hi > lo {
                    q.push_back(Segment { lo, hi });
                }
                q
            })
            .collect();
        CellScheduler { queues }
    }

    /// Claim the next cell for `me`: own queue from the back, then steal
    /// peers' fronts round-robin from `me + 1`. A multi-cell segment is
    /// split like the pool splits chunks — back halves go on `me`'s queue
    /// for thieves, the front cell is returned.
    pub(crate) fn next(&mut self, me: usize) -> Option<usize> {
        let Segment { lo, mut hi } = self.find(me)?;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2 + (hi - lo) % 2;
            self.queues[me].push_back(Segment { lo: mid, hi });
            hi = mid;
        }
        Some(lo)
    }

    /// Hand a claimed cell back to `rank`'s queue. The supervisor
    /// re-enqueues a dead rank's in-flight cell here: pushed at the
    /// *front*, so a thief (or the respawned rank) picks it up before any
    /// untouched segment behind it.
    pub(crate) fn requeue(&mut self, rank: usize, cell: usize) {
        self.queues[rank].push_front(Segment {
            lo: cell,
            hi: cell + 1,
        });
    }

    fn find(&mut self, me: usize) -> Option<Segment> {
        if let Some(seg) = self.queues[me].pop_back() {
            return Some(seg);
        }
        let n = self.queues.len();
        (1..n).find_map(|k| self.queues[(me + k) % n].pop_front())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Claim cells for `ranks` round-robin until all run dry; how often
    /// each cell was handed out.
    fn drain(sched: &mut CellScheduler, ncells: usize, ranks: &[usize]) -> Vec<usize> {
        let mut seen = vec![0usize; ncells];
        loop {
            let claimed: Vec<usize> = ranks.iter().filter_map(|&r| sched.next(r)).collect();
            if claimed.is_empty() {
                return seen;
            }
            for i in claimed {
                seen[i] += 1;
            }
        }
    }

    #[test]
    fn scheduler_hands_out_every_cell_exactly_once() {
        // A single consumer draining all queues exercises both the own
        // pop-back path and the steal path; four ranks claiming round-robin
        // (the supervisor's view of a busy campaign) interleave splits and
        // steals.
        for (ncells, nranks) in [(12, 4), (7, 3), (5, 8), (1, 1), (0, 4), (37, 4)] {
            for ranks in [&[0][..], &(0..nranks).collect::<Vec<_>>()] {
                let seen = drain(&mut CellScheduler::new(ncells, nranks), ncells, ranks);
                assert!(
                    seen.iter().all(|&c| c == 1),
                    "ncells={ncells} nranks={nranks} {ranks:?}: {seen:?}"
                );
            }
        }
    }

    #[test]
    fn scheduler_initial_shards_are_contiguous_blocks() {
        // Rank 1 of 4 over 12 cells owns [3, 6); untouched by rank 1's own
        // pops, rank 0 steals that whole block front-first.
        let mut sched = CellScheduler::new(12, 4);
        // Drain rank 0's own shard first.
        for _ in 0..3 {
            let i = sched.next(0).unwrap();
            assert!(i < 3, "rank 0 owns [0,3), got {i}");
        }
        // Next claim steals from rank 1's queue: cell 3 first (front).
        assert_eq!(sched.next(0), Some(3));
    }

    #[test]
    fn requeue_hands_a_cell_back_exactly_once() {
        // Claim a cell (as the supervisor does for a rank), pretend its
        // executor died, and hand it back: a full drain must still see
        // every cell once.
        let mut sched = CellScheduler::new(6, 2);
        let first = sched.next(0).unwrap();
        sched.requeue(0, first);
        let seen = drain(&mut sched, 6, &[1]);
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }
}
