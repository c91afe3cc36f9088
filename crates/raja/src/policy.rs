//! Execution policies: the compile-time back-end selectors.
//!
//! RAJA's execution policies (`seq_exec`, `omp_parallel_for_exec`,
//! `cuda_exec<BLOCK_SIZE>`, ...) are empty types threaded through execution
//! templates. The Rust equivalents here follow the same shape: zero-sized
//! types implementing [`ExecPolicy`], with the simulated-GPU policy carrying
//! its block size as a const generic exactly like `RAJA::cuda_exec<256>`.

use rayon::prelude::*;
use std::ops::Range;

/// A loop execution back-end.
///
/// The three entry points mirror RAJA's `forall` and the two- and
/// three-level `RAJA::kernel` nestings the Performance Suite uses. Bodies
/// must be safe to invoke in any order and concurrently; each index tuple is
/// delivered exactly once.
pub trait ExecPolicy {
    /// Human-readable policy name (used in reports).
    const NAME: &'static str;

    /// Execute `body` for each index in `range`.
    fn forall(range: Range<usize>, body: &(impl Fn(usize) + Sync));

    /// Execute `body` over a 2-D nested iteration space (outer × inner).
    fn forall_2d(outer: Range<usize>, inner: Range<usize>, body: &(impl Fn(usize, usize) + Sync));

    /// Execute `body` over a 3-D nested iteration space.
    fn forall_3d(
        outer: Range<usize>,
        mid: Range<usize>,
        inner: Range<usize>,
        body: &(impl Fn(usize, usize, usize) + Sync),
    );

    /// Run the fused loops of a [`crate::workgroup::WorkGroup`] as loops
    /// (upstream's work runners): `body(l, range, step)` is called with
    /// parts `range.step_by(step)` of loop `l` that together cover every
    /// `i < lens[l]` once.
    /// Spans of different loops may run in any order, and concurrently.
    fn forall_ragged(lens: &[usize], body: &(impl Fn(usize, Range<usize>, usize) + Sync));
}

/// Sequential execution (RAJA `seq_exec`): iterates in index order on the
/// calling thread. The reference policy — every other back-end must produce
/// results equivalent to this one.
pub struct SeqExec;

impl ExecPolicy for SeqExec {
    const NAME: &'static str = "seq";

    #[inline]
    fn forall(range: Range<usize>, body: &(impl Fn(usize) + Sync)) {
        for i in range {
            body(i);
        }
    }

    #[inline]
    fn forall_2d(outer: Range<usize>, inner: Range<usize>, body: &(impl Fn(usize, usize) + Sync)) {
        for i in outer {
            for j in inner.clone() {
                body(i, j);
            }
        }
    }

    #[inline]
    fn forall_3d(
        outer: Range<usize>,
        mid: Range<usize>,
        inner: Range<usize>,
        body: &(impl Fn(usize, usize, usize) + Sync),
    ) {
        for i in outer {
            for j in mid.clone() {
                for k in inner.clone() {
                    body(i, j, k);
                }
            }
        }
    }

    /// The loops back to back, each in index order.
    #[inline]
    fn forall_ragged(lens: &[usize], body: &(impl Fn(usize, Range<usize>, usize) + Sync)) {
        for (l, &n) in lens.iter().enumerate() {
            body(l, 0..n, 1);
        }
    }
}

/// Host-parallel execution via rayon (the stand-in for RAJA's
/// `omp_parallel_for_exec`): the outermost dimension is distributed across
/// the host thread pool.
pub struct ParExec;

impl ExecPolicy for ParExec {
    const NAME: &'static str = "par";

    #[inline]
    fn forall(range: Range<usize>, body: &(impl Fn(usize) + Sync)) {
        range.into_par_iter().for_each(body);
    }

    #[inline]
    fn forall_2d(outer: Range<usize>, inner: Range<usize>, body: &(impl Fn(usize, usize) + Sync)) {
        outer.into_par_iter().for_each(|i| {
            for j in inner.clone() {
                body(i, j);
            }
        });
    }

    #[inline]
    fn forall_3d(
        outer: Range<usize>,
        mid: Range<usize>,
        inner: Range<usize>,
        body: &(impl Fn(usize, usize, usize) + Sync),
    ) {
        outer.into_par_iter().for_each(|i| {
            for j in mid.clone() {
                for k in inner.clone() {
                    body(i, j, k);
                }
            }
        });
    }

    /// One pooled call of pool-width tasks, each running its static share
    /// of every loop (upstream's `omp for nowait` loops inside one parallel
    /// region): one pool job however many loops there are.
    #[inline]
    fn forall_ragged(lens: &[usize], body: &(impl Fn(usize, Range<usize>, usize) + Sync)) {
        let w = rayon::current_num_threads();
        (0..w).into_par_iter().for_each(|t| {
            for (l, &n) in lens.iter().enumerate() {
                body(l, n * t / w..n * (t + 1) / w, 1);
            }
        });
    }
}

/// Simulated-device execution (the stand-in for `RAJA::cuda_exec<B>` /
/// `hip_exec<B>`): indices are mapped onto a grid of `B`-thread blocks on
/// the [`gpusim`] device, with the standard `blockIdx * blockDim + threadIdx`
/// global-thread mapping and a bounds guard.
pub struct SimGpuExec<const BLOCK_SIZE: usize = { gpusim::DEFAULT_BLOCK_SIZE }>;

impl<const B: usize> ExecPolicy for SimGpuExec<B> {
    const NAME: &'static str = "simgpu";

    #[inline]
    fn forall(range: Range<usize>, body: &(impl Fn(usize) + Sync)) {
        let start = range.start;
        let n = range.len();
        if n == 0 {
            return;
        }
        // Label accesses for the simulated-device sanitizer, so findings
        // report which RAJA abstraction the hazardous launch ran under.
        let _region = gpusim::sanitizer::region("raja::forall<SimGpu>");
        gpusim::launch_1d(n, B, |i| body(start + i));
    }

    #[inline]
    fn forall_2d(outer: Range<usize>, inner: Range<usize>, body: &(impl Fn(usize, usize) + Sync)) {
        let (o0, n_outer) = (outer.start, outer.len());
        let (i0, n_inner) = (inner.start, inner.len());
        if n_outer == 0 || n_inner == 0 {
            return;
        }
        let _region = gpusim::sanitizer::region("raja::forall_2d<SimGpu>");
        // Inner dimension along thread x (coalesced on a real device),
        // outer dimension along grid y — RAJAPerf's usual 2-D GPU mapping.
        let cfg = gpusim::LaunchConfig::grid_block(
            gpusim::Dim3::d2(n_inner.div_ceil(B), n_outer),
            gpusim::Dim3::d1(B),
        );
        gpusim::launch(&cfg, |block| {
            let i = o0 + block.block_idx.y;
            block.threads(|t, _| {
                let j = t.global_id_x();
                if j < n_inner {
                    body(i, i0 + j);
                }
            });
        });
    }

    #[inline]
    fn forall_3d(
        outer: Range<usize>,
        mid: Range<usize>,
        inner: Range<usize>,
        body: &(impl Fn(usize, usize, usize) + Sync),
    ) {
        let (o0, n_outer) = (outer.start, outer.len());
        let (m0, n_mid) = (mid.start, mid.len());
        let (i0, n_inner) = (inner.start, inner.len());
        if n_outer == 0 || n_mid == 0 || n_inner == 0 {
            return;
        }
        let _region = gpusim::sanitizer::region("raja::forall_3d<SimGpu>");
        let cfg = gpusim::LaunchConfig::grid_block(
            gpusim::Dim3::d3(n_inner.div_ceil(B), n_mid, n_outer),
            gpusim::Dim3::d1(B),
        );
        gpusim::launch(&cfg, |block| {
            let i = o0 + block.block_idx.z;
            let j = m0 + block.block_idx.y;
            block.threads(|t, _| {
                let k = t.global_id_x();
                if k < n_inner {
                    body(i, j, i0 + k);
                }
            });
        });
    }

    /// One ragged launch ([`gpusim::launch_ragged`]): grid y is the loop,
    /// and each thread's part is its grid-stride loop.
    #[inline]
    fn forall_ragged(lens: &[usize], body: &(impl Fn(usize, Range<usize>, usize) + Sync)) {
        if lens.iter().all(|&n| n == 0) {
            return;
        }
        let _region = gpusim::sanitizer::region("raja::workgroup<SimGpu>");
        gpusim::launch_ragged(lens, B, body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::DevicePtr;

    #[test]
    fn policy_names() {
        assert_eq!(SeqExec::NAME, "seq");
        assert_eq!(ParExec::NAME, "par");
        assert_eq!(<SimGpuExec<256>>::NAME, "simgpu");
    }

    #[test]
    fn simgpu_2d_maps_full_space() {
        let (ni, nj) = (5, 300);
        let mut hits = vec![0u32; ni * nj];
        let p = DevicePtr::new(&mut hits);
        // SAFETY: indices stay within the extents the device pointers/views were
        // built from, and each parallel iterate touches a disjoint set of output
        // elements, so writes never alias.
        <SimGpuExec<128>>::forall_2d(0..ni, 0..nj, &|i, j| unsafe {
            p.write(i * nj + j, p.read(i * nj + j) + 1)
        });
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn offset_ranges_respected_in_2d_and_3d() {
        let collected = parking_lot_free_collect_2d::<SeqExec>(2..4, 7..9);
        assert_eq!(collected, vec![(2, 7), (2, 8), (3, 7), (3, 8)]);
    }

    fn parking_lot_free_collect_2d<P: ExecPolicy>(
        o: Range<usize>,
        i: Range<usize>,
    ) -> Vec<(usize, usize)> {
        let out = simsched::sync::Mutex::new(Vec::new());
        P::forall_2d(o, i, &|a, b| out.lock().unwrap().push((a, b)));
        let mut v = out.into_inner().unwrap();
        v.sort_unstable();
        v
    }
}
