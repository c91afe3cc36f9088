//! A RAJA-style performance-portability layer for Rust.
//!
//! [RAJA](https://github.com/LLNL/RAJA) lets C++ applications write each
//! loop kernel once against policy-generic execution templates (`forall`,
//! `kernel`, reducers, scans, sorts, `View`s) and select the execution
//! back-end (sequential, OpenMP, CUDA, HIP, ...) at compile time. The RAJA
//! Performance Suite compares kernels written through this layer ("RAJA
//! variants") against direct implementations ("Base variants").
//!
//! This crate reproduces that abstraction boundary in Rust:
//!
//! * [`policy`] — execution policies, passed as values:
//!   [`policy::SeqExec`] (sequential), [`policy::ParExec`] (host threads
//!   via rayon, the stand-in for OpenMP), and [`policy::SimGpuExec`] (the
//!   simulated GPU device from [`gpusim`], the stand-in for CUDA/HIP/SYCL
//!   back-ends), whose block size is a run-time value.
//! * [`ExecPolicy::forall`] / [`ExecPolicy::forall_2d`] /
//!   [`ExecPolicy::forall_3d`] — policy-generic loop execution templates;
//!   [`forall`] is the shorthand for a policy's default value.
//! * [`reduce`] — policy-generic reductions, including multi-value
//!   reductions, min/max-with-location, and multi-reduces that sum into
//!   many bins ([`reduce::multi_reduce_sum`], RAJA's `MultiReduceSum`).
//! * [`scan`] — inclusive/exclusive scans.
//! * [`sort`] — sorts and key/value pair sorts.
//! * [`atomic`] — portable atomic operations ([`atomic::AtomicF64`]).
//! * [`views`] — multi-dimensional [`views::View`]s with permutable
//!   [`views::Layout`]s and offset layouts.
//!
//! Kernel bodies receive plain indices and perform their own indexing, as in
//! RAJA. Mutable aliasing across loop iterations is expressed through
//! [`DevicePtr`] (re-exported from `gpusim`), the moral equivalent of the
//! raw pointers RAJA kernels capture; safety obligations (disjoint writes)
//! sit with the kernel author exactly as they do in C++.
//!
//! # Example
//! ```
//! use raja::policy::{ExecPolicy, SeqExec, SimGpuExec};
//! use raja::DevicePtr;
//!
//! let n = 100;
//! let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
//! let mut y = vec![1.0f64; n];
//! let a = 2.0;
//! let yp = DevicePtr::new(&mut y);
//! // DAXPY through the portability layer:
//! raja::forall::<SeqExec>(0..n, |i| unsafe { yp.write(i, a * x[i] + yp.read(i)) });
//! assert_eq!(y[3], 7.0);
//! // The same loop on the simulated device, in 128-thread blocks:
//! SimGpuExec::new(128).forall(0..n, &|i| unsafe { yp.write(i, yp.read(i) - 1.0) });
//! assert_eq!(y[3], 6.0);
//! let total = raja::reduce::reduce_sum(SeqExec, 0..n, |i| y[i]);
//! assert!(total > 0.0);
//! ```

pub mod atomic;
pub mod policy;
pub mod reduce;
pub mod scan;
pub mod sort;
pub mod views;
pub mod workgroup;

pub use gpusim::DevicePtr;
pub use policy::{ExecPolicy, ParExec, SeqExec, SimGpuExec};

/// Execute `body(i)` for every `i` in `range` under the default value of
/// execution policy `P` (for [`SimGpuExec`], [`gpusim::DEFAULT_BLOCK_SIZE`]
/// threads per block; call [`ExecPolicy::forall`] on a policy value to
/// choose another).
///
/// This is RAJA's `RAJA::forall<ExecPolicy>(RAJA::RangeSegment(b, e), body)`.
/// The body must tolerate unordered and concurrent invocation (it receives
/// each index exactly once).
#[inline]
pub fn forall<P: ExecPolicy + Default>(range: std::ops::Range<usize>, body: impl Fn(usize) + Sync) {
    P::default().forall(range, &body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ParExec, SeqExec, SimGpuExec};

    fn check_forall<P: ExecPolicy + Default>() {
        let n = 1000;
        let mut hits = vec![0u32; n];
        let p = DevicePtr::new(&mut hits);
        // SAFETY: the index is in bounds of the allocation the pointer was built
        // from, and each parallel iterate writes a distinct element, so writes
        // never alias.
        forall::<P>(0..n, |i| unsafe { p.write(i, p.read(i) + 1) });
        assert!(hits.iter().all(|&h| h == 1), "every index hit exactly once");
    }

    #[test]
    fn forall_seq_visits_all() {
        check_forall::<SeqExec>();
    }

    #[test]
    fn forall_par_visits_all() {
        check_forall::<ParExec>();
    }

    #[test]
    fn forall_simgpu_visits_all() {
        check_forall::<SimGpuExec>();
    }

    fn check_forall_2d(policy: impl ExecPolicy) {
        let (ni, nj) = (37, 53);
        let mut hits = vec![0u32; ni * nj];
        let p = DevicePtr::new(&mut hits);
        // SAFETY: indices stay within the extents the device pointers/views were
        // built from, and each parallel iterate touches a disjoint set of output
        // elements, so writes never alias.
        policy.forall_2d(0..ni, 0..nj, &|i, j| unsafe {
            p.write(i * nj + j, p.read(i * nj + j) + 1)
        });
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn forall_2d_all_policies() {
        check_forall_2d(SeqExec);
        check_forall_2d(ParExec);
        check_forall_2d(SimGpuExec::new(64));
    }

    fn check_forall_3d(policy: impl ExecPolicy) {
        let (ni, nj, nk) = (11, 13, 17);
        let mut hits = vec![0u32; ni * nj * nk];
        let p = DevicePtr::new(&mut hits);
        // SAFETY: indices stay within the extents the device pointers/views were
        // built from, and each parallel iterate touches a disjoint set of output
        // elements, so writes never alias.
        policy.forall_3d(0..ni, 0..nj, 0..nk, &|i, j, k| unsafe {
            let idx = (i * nj + j) * nk + k;
            p.write(idx, p.read(idx) + 1)
        });
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn forall_3d_all_policies() {
        check_forall_3d(SeqExec);
        check_forall_3d(ParExec);
        check_forall_3d(SimGpuExec::new(64));
    }

    #[test]
    fn empty_range_is_noop() {
        let mut touched = false;
        let p = DevicePtr::new(std::slice::from_mut(&mut touched));
        // SAFETY: the index is in bounds of the allocation the pointer was built
        // from, and each parallel iterate writes a distinct element, so writes
        // never alias.
        forall::<SeqExec>(5..5, |_| unsafe { p.write(0, true) });
        // SAFETY: the index is in bounds of the allocation the pointer was built
        // from, and each parallel iterate writes a distinct element, so writes
        // never alias.
        forall::<ParExec>(5..5, |_| unsafe { p.write(0, true) });
        // SAFETY: the index is in bounds of the allocation the pointer was built
        // from, and each parallel iterate writes a distinct element, so writes
        // never alias.
        SimGpuExec::new(128).forall(0..0, &|_| unsafe { p.write(0, true) });
        assert!(!touched);
    }

    #[test]
    fn nonzero_range_start_offsets_indices() {
        // SeqExec is ordered, so collecting is deterministic.
        let seen = simsched::sync::Mutex::new(Vec::new());
        forall::<SeqExec>(10..15, |i| seen.lock().unwrap().push(i));
        assert_eq!(seen.into_inner().unwrap(), vec![10, 11, 12, 13, 14]);
    }
}
