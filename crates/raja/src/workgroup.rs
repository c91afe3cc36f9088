//! Workgroup (fused-loop) construct.
//!
//! RAJA's `WorkPool`/`WorkGroup`/`WorkSite` lets an application enqueue
//! many small loops and run them as **one** fused kernel — on GPUs this
//! collapses dozens of tiny launches (e.g. one per halo direction) into a
//! single launch, which is precisely the `HALO_*_FUSED` vs unfused
//! comparison in the suite's Comm group.
//!
//! The Rust shape: [`WorkPool::enqueue`] collects `(range, body)` pairs;
//! [`WorkPool::instantiate`] freezes them into a [`WorkGroup`]; and
//! [`WorkGroup::run`] executes the enqueued loops as one ragged set of
//! loops under a policy ([`ExecPolicy::forall_ragged`]): back to back on
//! `SeqExec`, one pooled call on `ParExec`, one simulated-device launch on
//! `SimGpuExec`. Each body is type-erased once, when it is enqueued.
//!
//! # Example
//! ```
//! use raja::policy::SeqExec;
//! use raja::workgroup::WorkPool;
//! use raja::DevicePtr;
//!
//! let mut a = vec![0.0f64; 10];
//! let mut b = vec![0.0f64; 20];
//! let (ap, bp) = (DevicePtr::new(&mut a), DevicePtr::new(&mut b));
//! let mut pool = WorkPool::new();
//! pool.enqueue(0..10, move |i| unsafe { ap.write(i, 1.0) });
//! pool.enqueue(0..20, move |i| unsafe { bp.write(i, 2.0) });
//! let group = pool.instantiate();
//! assert_eq!(group.total_iterations(), 30);
//! group.run(SeqExec); // the two loops, back to back
//! assert!(a.iter().all(|&v| v == 1.0));
//! assert!(b.iter().all(|&v| v == 2.0));
//! ```

use crate::policy::ExecPolicy;
use std::ops::Range;

/// An enqueued loop's body, type-erased as a runner of strided index
/// ranges: one dynamic call per part of the loop, not per iteration.
type Runner<'a> = Box<dyn Fn(Range<usize>, usize) + Sync + 'a>;

/// Collects loops to be fused (RAJA `WorkPool`).
#[derive(Default)]
pub struct WorkPool<'a> {
    /// Each loop's iteration count, the ragged shape the policy runs.
    lens: Vec<usize>,
    runs: Vec<Runner<'a>>,
}

impl<'a> WorkPool<'a> {
    /// An empty pool.
    pub fn new() -> WorkPool<'a> {
        WorkPool::default()
    }

    /// Enqueue a loop over `range` with `body`. Bodies must tolerate
    /// unordered, concurrent invocation — both across a single loop's
    /// iterations *and* across enqueued loops (the fused execution
    /// interleaves them).
    pub fn enqueue(&mut self, range: Range<usize>, body: impl Fn(usize) + Sync + 'a) {
        let start = range.start;
        self.lens.push(range.len());
        // Shift the part, not each index: an offset added per iteration
        // cost the halo bodies about half their speed.
        self.runs.push(Box::new(move |r: Range<usize>, step| {
            (start + r.start..start + r.end)
                .step_by(step)
                .for_each(&body)
        }));
    }

    /// Number of loops enqueued so far.
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// True when nothing has been enqueued.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// Freeze the pool into an executable [`WorkGroup`] (RAJA
    /// `WorkPool::instantiate`), reusable across runs.
    pub fn instantiate(self) -> WorkGroup<'a> {
        WorkGroup { pool: self }
    }
}

/// An instantiated set of fused loops (RAJA `WorkGroup`).
pub struct WorkGroup<'a> {
    pool: WorkPool<'a>,
}

impl WorkGroup<'_> {
    /// Total iterations across all fused loops.
    pub fn total_iterations(&self) -> usize {
        self.pool.lens.iter().sum()
    }

    /// Number of fused loops.
    pub fn num_loops(&self) -> usize {
        self.pool.len()
    }

    /// Execute every enqueued loop under `policy` as one fused run — a
    /// single launch on the simulated device (RAJA `WorkGroup::run`,
    /// returning the `WorkSite` upstream; here the run is synchronous so no
    /// site handle is needed).
    pub fn run(&self, policy: impl ExecPolicy) {
        let runs = &self.pool.runs;
        policy.forall_ragged(&self.pool.lens, &|l, r, step| runs[l](r, step));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ParExec, SeqExec, SimGpuExec};
    use crate::DevicePtr;

    #[test]
    fn fused_loops_cover_all_ranges() {
        cover_all_ranges(SeqExec);
        cover_all_ranges(ParExec);
        cover_all_ranges(SimGpuExec::new(32));
    }

    fn cover_all_ranges<P: ExecPolicy>(policy: P) {
        let mut a = vec![0u32; 7];
        let mut b = vec![0u32; 13];
        let mut c = vec![0u32; 129];
        {
            let (ap, bp, cp) = (
                DevicePtr::new(&mut a),
                DevicePtr::new(&mut b),
                DevicePtr::new(&mut c),
            );
            let mut pool = WorkPool::new();
            // SAFETY: the index is in bounds of the allocation the pointer was built
            // from, and each parallel iterate writes a distinct element, so writes
            // never alias.
            pool.enqueue(0..7, move |i| unsafe { ap.write(i, ap.read(i) + 1) });
            // SAFETY: the index is in bounds of the allocation the pointer was built
            // from, and each parallel iterate writes a distinct element, so writes
            // never alias.
            pool.enqueue(0..13, move |i| unsafe { bp.write(i, bp.read(i) + 1) });
            // SAFETY: the index is in bounds of the allocation the pointer was built
            // from, and each parallel iterate writes a distinct element, so writes
            // never alias.
            pool.enqueue(0..129, move |i| unsafe { cp.write(i, cp.read(i) + 1) });
            let group = pool.instantiate();
            assert_eq!(group.total_iterations(), 149);
            assert_eq!(group.num_loops(), 3);
            group.run(policy);
        }
        assert!(a.iter().all(|&v| v == 1), "{}", P::NAME);
        assert!(b.iter().all(|&v| v == 1), "{}", P::NAME);
        assert!(c.iter().all(|&v| v == 1), "{}", P::NAME);
    }

    #[test]
    fn nonzero_range_starts_are_respected() {
        let mut data = vec![0u32; 10];
        {
            let p = DevicePtr::new(&mut data);
            let mut pool = WorkPool::new();
            // SAFETY: the index is in bounds of the allocation the pointer was built
            // from, and each parallel iterate writes a distinct element, so writes
            // never alias.
            pool.enqueue(3..6, move |i| unsafe { p.write(i, 7) });
            // SAFETY: the index is in bounds of the allocation the pointer was built
            // from, and each parallel iterate writes a distinct element, so writes
            // never alias.
            pool.enqueue(8..10, move |i| unsafe { p.write(i, 9) });
            pool.instantiate().run(SeqExec);
        }
        assert_eq!(data, vec![0, 0, 0, 7, 7, 7, 0, 0, 9, 9]);
    }

    #[test]
    fn empty_pool_and_empty_ranges() {
        let pool = WorkPool::new();
        let group = pool.instantiate();
        assert_eq!(group.total_iterations(), 0);
        group.run(SeqExec); // no-op

        let mut hit = false;
        {
            let p = DevicePtr::new(std::slice::from_mut(&mut hit));
            let mut pool = WorkPool::new();
            // SAFETY: the index is in bounds of the allocation the pointer was built
            // from, and each parallel iterate writes a distinct element, so writes
            // never alias.
            pool.enqueue(5..5, move |_| unsafe { p.write(0, true) });
            // SAFETY: the index is in bounds of the allocation the pointer was built
            // from, and each parallel iterate writes a distinct element, so writes
            // never alias.
            pool.enqueue(0..1, move |_| unsafe { p.write(0, true) });
            pool.instantiate().run(SeqExec);
        }
        assert!(hit, "the non-empty range still ran");
    }

    #[test]
    fn group_is_reusable() {
        let mut count = vec![0u32; 4];
        {
            let p = DevicePtr::new(&mut count);
            let mut pool = WorkPool::new();
            // SAFETY: the index is in bounds of the allocation the pointer was built
            // from, and each parallel iterate writes a distinct element, so writes
            // never alias.
            pool.enqueue(0..4, move |i| unsafe { p.write(i, p.read(i) + 1) });
            let group = pool.instantiate();
            group.run(SeqExec);
            group.run(SeqExec);
        }
        assert!(count.iter().all(|&c| c == 2));
    }
}
