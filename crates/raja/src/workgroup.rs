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
//! [`WorkGroup::run`] executes *all* enqueued iterations as a single
//! policy-level loop over a flattened index space (one `forall` — one
//! simulated-device launch).
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
//! group.run::<SeqExec>(); // a single fused loop
//! assert!(a.iter().all(|&v| v == 1.0));
//! assert!(b.iter().all(|&v| v == 2.0));
//! ```

use crate::policy::ExecPolicy;
use std::ops::Range;

/// One enqueued loop: an iteration range and its body.
struct WorkItem<'a> {
    range: Range<usize>,
    body: Box<dyn Fn(usize) + Sync + 'a>,
}

/// Collects loops to be fused (RAJA `WorkPool`).
#[derive(Default)]
pub struct WorkPool<'a> {
    items: Vec<WorkItem<'a>>,
}

impl<'a> WorkPool<'a> {
    /// An empty pool.
    pub fn new() -> WorkPool<'a> {
        WorkPool { items: Vec::new() }
    }

    /// Enqueue a loop over `range` with `body`. Bodies must tolerate
    /// unordered, concurrent invocation — both across a single loop's
    /// iterations *and* across enqueued loops (the fused execution
    /// interleaves them).
    pub fn enqueue(&mut self, range: Range<usize>, body: impl Fn(usize) + Sync + 'a) {
        self.items.push(WorkItem {
            range,
            body: Box::new(body),
        });
    }

    /// Number of loops enqueued so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing has been enqueued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Freeze the pool into an executable [`WorkGroup`] (RAJA
    /// `WorkPool::instantiate`). Consumes the pool; the flattened segment
    /// table is built once and reused across runs.
    pub fn instantiate(self) -> WorkGroup<'a> {
        let mut offsets = Vec::with_capacity(self.items.len());
        let mut total = 0usize;
        for item in &self.items {
            offsets.push(total);
            total += item.range.len();
        }
        WorkGroup {
            items: self.items,
            offsets,
            total,
        }
    }
}

/// An instantiated set of fused loops (RAJA `WorkGroup`).
pub struct WorkGroup<'a> {
    items: Vec<WorkItem<'a>>,
    /// Prefix offsets of each loop within the fused index space.
    offsets: Vec<usize>,
    total: usize,
}

impl WorkGroup<'_> {
    /// Total iterations across all fused loops.
    pub fn total_iterations(&self) -> usize {
        self.total
    }

    /// Number of fused loops.
    pub fn num_loops(&self) -> usize {
        self.items.len()
    }

    /// Execute every enqueued iteration under policy `P` as one fused
    /// loop — a single launch on the simulated device (RAJA
    /// `WorkGroup::run`, returning the `WorkSite` upstream; here the run
    /// is synchronous so no site handle is needed).
    pub fn run<P: ExecPolicy>(&self) {
        let total = self.total;
        if total == 0 {
            return;
        }
        crate::forall::<P>(0..total, |flat| {
            // Binary-search the segment table for the owning loop.
            let idx = match self.offsets.binary_search(&flat) {
                Ok(exact) => exact,
                Err(insert) => insert - 1,
            };
            let item = &self.items[idx];
            let local = flat - self.offsets[idx];
            (item.body)(item.range.start + local);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ParExec, SeqExec};
    use crate::DevicePtr;

    #[test]
    fn fused_loops_cover_all_ranges() {
        let mut a = vec![0u32; 7];
        let mut b = vec![0u32; 13];
        let mut c = vec![0u32; 29];
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
            pool.enqueue(0..29, move |i| unsafe { cp.write(i, cp.read(i) + 1) });
            let group = pool.instantiate();
            assert_eq!(group.total_iterations(), 49);
            assert_eq!(group.num_loops(), 3);
            group.run::<ParExec>();
        }
        assert!(a.iter().all(|&v| v == 1));
        assert!(b.iter().all(|&v| v == 1));
        assert!(c.iter().all(|&v| v == 1));
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
            pool.instantiate().run::<SeqExec>();
        }
        assert_eq!(data, vec![0, 0, 0, 7, 7, 7, 0, 0, 9, 9]);
    }

    #[test]
    fn empty_pool_and_empty_ranges() {
        let pool = WorkPool::new();
        let group = pool.instantiate();
        assert_eq!(group.total_iterations(), 0);
        group.run::<SeqExec>(); // no-op

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
            pool.instantiate().run::<SeqExec>();
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
            group.run::<SeqExec>();
            group.run::<SeqExec>();
        }
        assert!(count.iter().all(|&c| c == 2));
    }
}
