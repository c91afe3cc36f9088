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
//! * [`policy`] — execution policies: [`policy::SeqExec`] (sequential),
//!   [`policy::ParExec`] (host threads via rayon, the stand-in for OpenMP),
//!   and [`policy::SimGpuExec`] (the simulated GPU device from [`gpusim`],
//!   the stand-in for CUDA/HIP/SYCL back-ends).
//! * [`forall`] / [`forall_2d`] / [`forall_3d`] — policy-generic loop
//!   execution templates.
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
//! use raja::policy::SeqExec;
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
//! let total = raja::reduce::reduce_sum::<SeqExec, _>(0..n, |i| y[i]);
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

/// Execute `body(i)` for every `i` in `range` under execution policy `P`.
///
/// This is RAJA's `RAJA::forall<ExecPolicy>(RAJA::RangeSegment(b, e), body)`.
/// The body must tolerate unordered and concurrent invocation (it receives
/// each index exactly once).
#[inline]
pub fn forall<P: ExecPolicy>(range: std::ops::Range<usize>, body: impl Fn(usize) + Sync) {
    P::forall(range, &body);
}

/// Execute `body(i, j)` over the outer×inner iteration space under policy
/// `P` (RAJA's `kernel` with a two-level nested policy). The outer dimension
/// is parallelized; the inner is the contiguous/fast dimension.
#[inline]
pub fn forall_2d<P: ExecPolicy>(
    outer: std::ops::Range<usize>,
    inner: std::ops::Range<usize>,
    body: impl Fn(usize, usize) + Sync,
) {
    P::forall_2d(outer, inner, &body);
}

/// Execute `body(i, j, k)` over a three-level nested iteration space under
/// policy `P`; `i` is the outermost (parallel) dimension, `k` the innermost.
#[inline]
pub fn forall_3d<P: ExecPolicy>(
    outer: std::ops::Range<usize>,
    mid: std::ops::Range<usize>,
    inner: std::ops::Range<usize>,
    body: impl Fn(usize, usize, usize) + Sync,
) {
    P::forall_3d(outer, mid, inner, &body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ParExec, SeqExec, SimGpuExec};

    fn check_forall<P: ExecPolicy>() {
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
        check_forall::<SimGpuExec<256>>();
    }

    fn check_forall_2d<P: ExecPolicy>() {
        let (ni, nj) = (37, 53);
        let mut hits = vec![0u32; ni * nj];
        let p = DevicePtr::new(&mut hits);
        // SAFETY: indices stay within the extents the device pointers/views were
        // built from, and each parallel iterate touches a disjoint set of output
        // elements, so writes never alias.
        forall_2d::<P>(0..ni, 0..nj, |i, j| unsafe {
            p.write(i * nj + j, p.read(i * nj + j) + 1)
        });
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn forall_2d_all_policies() {
        check_forall_2d::<SeqExec>();
        check_forall_2d::<ParExec>();
        check_forall_2d::<SimGpuExec<64>>();
    }

    fn check_forall_3d<P: ExecPolicy>() {
        let (ni, nj, nk) = (11, 13, 17);
        let mut hits = vec![0u32; ni * nj * nk];
        let p = DevicePtr::new(&mut hits);
        // SAFETY: indices stay within the extents the device pointers/views were
        // built from, and each parallel iterate touches a disjoint set of output
        // elements, so writes never alias.
        forall_3d::<P>(0..ni, 0..nj, 0..nk, |i, j, k| unsafe {
            let idx = (i * nj + j) * nk + k;
            p.write(idx, p.read(idx) + 1)
        });
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn forall_3d_all_policies() {
        check_forall_3d::<SeqExec>();
        check_forall_3d::<ParExec>();
        check_forall_3d::<SimGpuExec<64>>();
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
        forall::<SimGpuExec<128>>(0..0, |_| unsafe { p.write(0, true) });
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
