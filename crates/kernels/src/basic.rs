//! Basic group: 19 small kernels that challenge compiler optimization
//! (Table I "Basic Patterns").
//!
//! These cover the suite's breadth of RAJA features: plain `forall` maps
//! (DAXPY, INIT3, MULADDSUB), atomics (DAXPY_ATOMIC, PI_ATOMIC), data
//! views (INIT_VIEW1D*, ARRAY_OF_PTRS), scans (INDEXLIST*), reductions
//! (PI_REDUCE, REDUCE3_INT, REDUCE_STRUCT, TRAP_INT, MULTI_REDUCE), nested
//! loops (NESTED_INIT), and the shared-memory tiled matrix multiply
//! (MAT_MAT_SHARED) that serves as the paper's FLOPS yardstick in Table II.

use crate::common::{checksum, cube_edge, init_signed, init_unit, square_edge};
use crate::{
    time_reps, AnalyticMetrics, Feature, Group, KernelBase, KernelInfo, PaperModel, Tuning,
    VariantId, ALL_VARIANTS,
};
use perfmodel::{Complexity, ExecSignature};
use raja::atomic::{as_atomic_slice, AtomicF64};
use raja::policy::{ParExec, SeqExec};
use raja::views::{Layout, MultiView, View};
use raja::DevicePtr;
use rayon::prelude::*;
use std::time::Duration;

/// Register the Basic kernels in Table I order.
pub fn register(v: &mut Vec<Box<dyn KernelBase>>) {
    v.push(Box::new(ArrayOfPtrs));
    v.push(Box::new(Copy8));
    v.push(Box::new(Daxpy));
    v.push(Box::new(DaxpyAtomic));
    v.push(Box::new(IfQuad));
    v.push(Box::new(IndexList));
    v.push(Box::new(IndexList3Loop));
    v.push(Box::new(Init3));
    v.push(Box::new(InitView1d));
    v.push(Box::new(InitView1dOffset));
    v.push(Box::new(MatMatShared));
    v.push(Box::new(MulAddSub));
    v.push(Box::new(MultiReduce));
    v.push(Box::new(NestedInit));
    v.push(Box::new(PiAtomic));
    v.push(Box::new(PiReduce));
    v.push(Box::new(Reduce3Int));
    v.push(Box::new(ReduceStruct));
    v.push(Box::new(TrapInt));
}

const FULL: &[PaperModel] = &[
    PaperModel::Seq,
    PaperModel::OpenMp,
    PaperModel::OmpTarget,
    PaperModel::Cuda,
    PaperModel::Hip,
    PaperModel::Sycl,
];

fn info(
    name: &'static str,
    features: &'static [Feature],
    default_size: usize,
    default_reps: usize,
) -> KernelInfo {
    KernelInfo {
        name,
        group: Group::Basic,
        features,
        complexity: Complexity::N,
        default_size,
        default_reps,
        paper_models: FULL,
        variants: ALL_VARIANTS,
    }
}

// ---------------------------------------------------------------------------
// ARRAY_OF_PTRS
// ---------------------------------------------------------------------------

/// Number of independent buffers in `ARRAY_OF_PTRS`.
pub const NUM_PTRS: usize = 8;

/// `Basic_ARRAY_OF_PTRS`: sum across an array of separately-allocated
/// buffers — `out[i] = Σ_a ptrs[a][i]` (exercises RAJA `MultiView`).
pub struct ArrayOfPtrs;

impl KernelBase for ArrayOfPtrs {
    fn info(&self) -> KernelInfo {
        info(
            "Basic_ARRAY_OF_PTRS",
            &[Feature::Forall, Feature::View],
            1_000_000,
            20,
        )
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: (NUM_PTRS as f64) * 8.0 * n as f64,
            bytes_written: 8.0 * n as f64,
            flops: (NUM_PTRS - 1) as f64 * n as f64,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        s.int_ops_per_iter = NUM_PTRS as f64; // pointer chases
        s.flop_efficiency = 0.2;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let mut bufs: Vec<Vec<f64>> = (0..NUM_PTRS)
            .map(|a| init_unit(n, 200 + a as u64))
            .collect();
        let mut out = vec![0.0f64; n];
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let mut it = bufs.iter_mut();
            let mv: MultiView<f64, NUM_PTRS> = MultiView::new(std::array::from_fn(|_| {
                it.next().expect("NUM_PTRS buffers").as_mut_slice()
            }));
            let op = DevicePtr::new(&mut out);
            crate::run_elementwise(variant, n, bs, |i| {
                let mut acc = 0.0;
                for a in 0..NUM_PTRS {
                    // SAFETY: the index is in bounds of the allocation the pointer was built
                    // from; concurrent accesses to it are reads.
                    acc += unsafe { mv.get(a, i) };
                }
                // SAFETY: the index is in bounds of the allocation the pointer was built
                // from, and each parallel iterate writes a distinct element, so writes
                // never alias.
                unsafe { op.write(i, acc) };
            });
        });
        (time, checksum(&out))
    }
}

// ---------------------------------------------------------------------------
// COPY8
// ---------------------------------------------------------------------------

/// `Basic_COPY8`: eight independent array copies in one loop — stresses
/// load/store ports and register pressure.
pub struct Copy8;

impl KernelBase for Copy8 {
    fn info(&self) -> KernelInfo {
        info("Basic_COPY8", &[Feature::Forall], 1_000_000, 20)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 64.0 * n as f64,
            bytes_written: 64.0 * n as f64,
            flops: 0.0,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        s.int_ops_per_iter = 8.0;
        s.flop_efficiency = 0.25;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let xs: [Vec<f64>; 8] = std::array::from_fn(|a| init_unit(n, 210 + a as u64));
        let mut ys: Vec<Vec<f64>> = (0..8).map(|_| vec![0.0; n]).collect();
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let mut it = ys.iter_mut();
            let yv: MultiView<f64, 8> = MultiView::new(std::array::from_fn(|_| {
                it.next().expect("8 buffers").as_mut_slice()
            }));
            crate::run_elementwise(variant, n, bs, |i| {
                for (a, x) in xs.iter().enumerate() {
                    // SAFETY: the index is in bounds of the allocation the pointer was built
                    // from, and each parallel iterate writes a distinct element, so writes
                    // never alias.
                    unsafe { yv.set(a, i, x[i]) };
                }
            });
        });
        let cs = ys.iter().map(|y| checksum(y)).sum();
        (time, cs)
    }
}

// ---------------------------------------------------------------------------
// DAXPY / DAXPY_ATOMIC
// ---------------------------------------------------------------------------

/// `Basic_DAXPY`: `y[i] += a * x[i]`.
pub struct Daxpy;

impl KernelBase for Daxpy {
    fn info(&self) -> KernelInfo {
        info("Basic_DAXPY", &[Feature::Forall], 1_000_000, 50)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 16.0 * n as f64,
            bytes_written: 8.0 * n as f64,
            flops: 2.0 * n as f64,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        s.flop_efficiency = 0.3;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let x = init_unit(n, 220);
        let mut y = init_unit(n, 221);
        let a = 0.5;
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let yp = DevicePtr::new(&mut y);
            // SAFETY: indices stay within the extents the device pointers/views were
            // built from, and each parallel iterate touches a disjoint set of output
            // elements, so writes never alias.
            crate::run_elementwise(variant, n, bs, |i| unsafe {
                yp.write(i, yp.read(i) + a * x[i])
            });
        });
        (time, checksum(&y))
    }
}

/// `Basic_DAXPY_ATOMIC`: DAXPY performed through atomic adds (measures the
/// cost of uncontended atomics vs plain stores).
pub struct DaxpyAtomic;

impl KernelBase for DaxpyAtomic {
    fn info(&self) -> KernelInfo {
        info(
            "Basic_DAXPY_ATOMIC",
            &[Feature::Forall, Feature::Atomic],
            1_000_000,
            50,
        )
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        Daxpy.metrics(n)
    }

    fn shape(&self, n: usize, s: &mut ExecSignature) {
        s.atomics = n as f64;
        s.atomic_contention = 0.0; // every element owns its own address
        s.flop_efficiency = 0.1;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let x = init_unit(n, 230);
        let mut y = init_unit(n, 231);
        let a = 0.5;
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let atoms = as_atomic_slice(&mut y);
            crate::run_elementwise(variant, n, bs, |i| {
                atoms[i].fetch_add(a * x[i]);
            });
        });
        (time, checksum(&y))
    }
}

// ---------------------------------------------------------------------------
// IF_QUAD
// ---------------------------------------------------------------------------

/// `Basic_IF_QUAD`: quadratic-root computation guarded by a data-dependent
/// branch on the discriminant.
pub struct IfQuad;

impl KernelBase for IfQuad {
    fn info(&self) -> KernelInfo {
        info("Basic_IF_QUAD", &[Feature::Forall], 1_000_000, 30)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 24.0 * n as f64,
            bytes_written: 16.0 * n as f64,
            // ~11 flops on the taken path (counting sqrt as 1).
            flops: 11.0 * n as f64,
        }
    }

    fn shape(&self, n: usize, s: &mut ExecSignature) {
        s.branches = n as f64;
        s.branch_mispredict_rate = 0.25; // data-dependent discriminant sign
        s.flop_efficiency = 0.15;
        s.gpu_coalescing = 0.7; // warp divergence on the discriminant
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let a: Vec<f64> = init_unit(n, 240).iter().map(|v| v + 0.1).collect();
        let b = init_signed(n, 241);
        let c = init_signed(n, 242);
        let mut x1 = vec![0.0f64; n];
        let mut x2 = vec![0.0f64; n];
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let p1 = DevicePtr::new(&mut x1);
            let p2 = DevicePtr::new(&mut x2);
            crate::run_elementwise(variant, n, bs, |i| {
                let s = b[i] * b[i] - 4.0 * a[i] * c[i];
                if s >= 0.0 {
                    let s = s.sqrt();
                    let den = 0.5 / a[i];
                    // SAFETY: indices stay within the extents the device pointers/views were
                    // built from, and each parallel iterate touches a disjoint set of output
                    // elements, so writes never alias.
                    unsafe {
                        p1.write(i, (-b[i] + s) * den);
                        p2.write(i, (-b[i] - s) * den);
                    }
                } else {
                    // SAFETY: indices stay within the extents the device pointers/views were
                    // built from, and each parallel iterate touches a disjoint set of output
                    // elements, so writes never alias.
                    unsafe {
                        p1.write(i, 0.0);
                        p2.write(i, 0.0);
                    }
                }
            });
        });
        (time, checksum(&x1) + checksum(&x2))
    }
}

// ---------------------------------------------------------------------------
// INDEXLIST / INDEXLIST_3LOOP
// ---------------------------------------------------------------------------

fn indexlist_scan_based<P>(x: &[f64], list: &mut [i32]) -> usize
where
    P: raja::scan::ScanPolicy,
{
    let n = x.len();
    let mut pos = vec![0.0f64; n];
    let total =
        raja::scan::exclusive_scan::<P>(0..n, &mut pos, |i| if x[i] < 0.0 { 1.0 } else { 0.0 });
    let lp = DevicePtr::new(list);
    raja::forall::<P>(0..n, |i| {
        if x[i] < 0.0 {
            // SAFETY: the index is in bounds of the allocation the pointer was built
            // from, and each parallel iterate writes a distinct element, so writes
            // never alias.
            unsafe { lp.write(pos[i] as usize, i as i32) };
        }
    });
    total as usize
}

/// `Basic_INDEXLIST`: build the list of indices whose value is negative.
/// The sequential variants use the natural dependent counter; the parallel
/// and device variants use the scan-based construction (as RAJAPerf's GPU
/// variants do).
pub struct IndexList;

impl KernelBase for IndexList {
    fn info(&self) -> KernelInfo {
        info(
            "Basic_INDEXLIST",
            &[Feature::Forall, Feature::Scan],
            1_000_000,
            20,
        )
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 8.0 * n as f64,
            bytes_written: 2.0 * n as f64, // ~half the indices written as i32
            flops: 0.0,
        }
    }

    fn shape(&self, n: usize, s: &mut ExecSignature) {
        s.branches = n as f64;
        s.branch_mispredict_rate = 0.3;
        s.kernel_launches = 5.0; // scan (3) + flags + gather
        s.flop_efficiency = 0.05;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let x = init_signed(n, 250);
        let mut list = vec![0i32; n];
        let mut count = 0usize;
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            count = match variant {
                VariantId::BaseSeq | VariantId::RajaSeq => {
                    // Natural dependent-counter formulation.
                    let mut cnt = 0usize;
                    for (i, &v) in x.iter().enumerate() {
                        if v < 0.0 {
                            list[cnt] = i as i32;
                            cnt += 1;
                        }
                    }
                    cnt
                }
                VariantId::BasePar | VariantId::RajaPar => {
                    indexlist_scan_based::<ParExec>(&x, &mut list)
                }
                VariantId::BaseSimGpu | VariantId::RajaSimGpu => {
                    crate::dispatch_gpu_block!(bs, P, { indexlist_scan_based::<P>(&x, &mut list) })
                }
            };
        });
        let cs: f64 = list[..count].iter().map(|&v| v as f64).sum::<f64>() + count as f64;
        (time, cs)
    }
}

/// `Basic_INDEXLIST_3LOOP`: the same list built with three explicit loops —
/// flag, exclusive scan, gather.
pub struct IndexList3Loop;

impl KernelBase for IndexList3Loop {
    fn info(&self) -> KernelInfo {
        info(
            "Basic_INDEXLIST_3LOOP",
            &[Feature::Forall, Feature::Scan],
            1_000_000,
            20,
        )
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 24.0 * n as f64, // x + flag/scan traffic
            bytes_written: 10.0 * n as f64,
            flops: n as f64, // scan additions
        }
    }

    fn shape(&self, n: usize, s: &mut ExecSignature) {
        s.branches = n as f64;
        s.branch_mispredict_rate = 0.3;
        s.kernel_launches = 5.0;
        s.flop_efficiency = 0.05;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let x = init_signed(n, 260);
        let mut list = vec![0i32; n];
        let mut count = 0usize;
        let bs = tuning.gpu_block_size;

        fn three_loop<P>(x: &[f64], list: &mut [i32]) -> usize
        where
            P: raja::scan::ScanPolicy,
        {
            let n = x.len();
            // Loop 1: flags.
            let mut flags = vec![0.0f64; n];
            let fp = DevicePtr::new(&mut flags);
            // SAFETY: indices stay within the extents the device pointers/views were
            // built from, and each parallel iterate touches a disjoint set of output
            // elements, so writes never alias.
            raja::forall::<P>(0..n, |i| unsafe {
                fp.write(i, if x[i] < 0.0 { 1.0 } else { 0.0 })
            });
            // Loop 2: exclusive scan of the flags.
            let mut pos = vec![0.0f64; n];
            let total = raja::scan::exclusive_scan::<P>(0..n, &mut pos, |i| flags[i]);
            // Loop 3: gather.
            let lp = DevicePtr::new(list);
            raja::forall::<P>(0..n, |i| {
                if flags[i] != 0.0 {
                    // SAFETY: the index is in bounds of the allocation the pointer was built
                    // from, and each parallel iterate writes a distinct element, so writes
                    // never alias.
                    unsafe { lp.write(pos[i] as usize, i as i32) };
                }
            });
            total as usize
        }

        let time = time_reps(reps, || {
            count = match variant {
                VariantId::BaseSeq | VariantId::RajaSeq => three_loop::<SeqExec>(&x, &mut list),
                VariantId::BasePar | VariantId::RajaPar => three_loop::<ParExec>(&x, &mut list),
                VariantId::BaseSimGpu | VariantId::RajaSimGpu => {
                    crate::dispatch_gpu_block!(bs, P, { three_loop::<P>(&x, &mut list) })
                }
            };
        });
        let cs: f64 = list[..count].iter().map(|&v| v as f64).sum::<f64>() + count as f64;
        (time, cs)
    }
}

// ---------------------------------------------------------------------------
// INIT3 / MULADDSUB
// ---------------------------------------------------------------------------

/// `Basic_INIT3`: three outputs initialized from two inputs.
pub struct Init3;

impl KernelBase for Init3 {
    fn info(&self) -> KernelInfo {
        info("Basic_INIT3", &[Feature::Forall], 1_000_000, 50)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 16.0 * n as f64,
            bytes_written: 24.0 * n as f64,
            flops: 2.0 * n as f64,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        s.flop_efficiency = 0.3;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let in1 = init_unit(n, 270);
        let in2 = init_unit(n, 271);
        let mut o1 = vec![0.0f64; n];
        let mut o2 = vec![0.0f64; n];
        let mut o3 = vec![0.0f64; n];
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let (p1, p2, p3) = (
                DevicePtr::new(&mut o1),
                DevicePtr::new(&mut o2),
                DevicePtr::new(&mut o3),
            );
            crate::run_elementwise(variant, n, bs, |i| {
                let v = -in1[i] - in2[i];
                // SAFETY: indices stay within the extents the device pointers/views were
                // built from, and each parallel iterate touches a disjoint set of output
                // elements, so writes never alias.
                unsafe {
                    p1.write(i, v);
                    p2.write(i, v);
                    p3.write(i, v);
                }
            });
        });
        (time, checksum(&o1) + checksum(&o2) + checksum(&o3))
    }
}

/// `Basic_MULADDSUB`: `out1 = in1*in2; out2 = in1+in2; out3 = in1-in2`.
pub struct MulAddSub;

impl KernelBase for MulAddSub {
    fn info(&self) -> KernelInfo {
        info("Basic_MULADDSUB", &[Feature::Forall], 1_000_000, 50)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 16.0 * n as f64,
            bytes_written: 24.0 * n as f64,
            flops: 3.0 * n as f64,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        s.flop_efficiency = 0.3;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let in1 = init_unit(n, 280);
        let in2 = init_unit(n, 281);
        let mut o1 = vec![0.0f64; n];
        let mut o2 = vec![0.0f64; n];
        let mut o3 = vec![0.0f64; n];
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let (p1, p2, p3) = (
                DevicePtr::new(&mut o1),
                DevicePtr::new(&mut o2),
                DevicePtr::new(&mut o3),
            );
            // SAFETY: indices stay within the extents the device pointers/views were
            // built from, and each parallel iterate touches a disjoint set of output
            // elements, so writes never alias.
            crate::run_elementwise(variant, n, bs, |i| unsafe {
                p1.write(i, in1[i] * in2[i]);
                p2.write(i, in1[i] + in2[i]);
                p3.write(i, in1[i] - in2[i]);
            });
        });
        (time, checksum(&o1) + checksum(&o2) + checksum(&o3))
    }
}

// ---------------------------------------------------------------------------
// INIT_VIEW1D / INIT_VIEW1D_OFFSET
// ---------------------------------------------------------------------------

/// `Basic_INIT_VIEW1D`: initialize through a 1-D RAJA view.
pub struct InitView1d;

impl KernelBase for InitView1d {
    fn info(&self) -> KernelInfo {
        info(
            "Basic_INIT_VIEW1D",
            &[Feature::Forall, Feature::View],
            1_000_000,
            50,
        )
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 0.0,
            bytes_written: 8.0 * n as f64,
            flops: n as f64,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        // Write-only streaming with trivial compute: the paper finds these
        // retiring-bound ("no specific bottleneck") on both CPU systems.
        s.flop_efficiency = 0.35;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        const V: f64 = 0.00000123;
        let mut a = vec![0.0f64; n];
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let view = View::new(&mut a, Layout::new([n]));
            // SAFETY: indices stay within the extents the device pointers/views were
            // built from, and each parallel iterate touches a disjoint set of output
            // elements, so writes never alias.
            crate::run_elementwise(variant, n, bs, |i| unsafe {
                view.set([i as isize], (i + 1) as f64 * V);
            });
        });
        (time, checksum(&a))
    }
}

/// `Basic_INIT_VIEW1D_OFFSET`: the same initialization through an
/// offset-layout view indexed `1..=n`.
pub struct InitView1dOffset;

impl KernelBase for InitView1dOffset {
    fn info(&self) -> KernelInfo {
        info(
            "Basic_INIT_VIEW1D_OFFSET",
            &[Feature::Forall, Feature::View],
            1_000_000,
            50,
        )
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        InitView1d.metrics(n)
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        s.flop_efficiency = 0.35;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        const V: f64 = 0.00000123;
        let mut a = vec![0.0f64; n];
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let view = View::new(&mut a, Layout::offset([1], [n as isize + 1]));
            // Iteration space 1..=n, exactly as the offset variant upstream.
            // SAFETY: indices stay within the extents the device pointers/views were
            // built from, and each parallel iterate touches a disjoint set of output
            // elements, so writes never alias.
            let body = |i: usize| unsafe {
                view.set([i as isize], i as f64 * V);
            };
            match variant {
                VariantId::BaseSeq => (1..=n).for_each(body),
                VariantId::BasePar => (1..=n).into_par_iter().for_each(body),
                VariantId::BaseSimGpu => {
                    gpusim::launch_1d(n, bs, |i| body(i + 1));
                }
                VariantId::RajaSeq => raja::forall::<SeqExec>(1..n + 1, body),
                VariantId::RajaPar => raja::forall::<ParExec>(1..n + 1, body),
                VariantId::RajaSimGpu => {
                    crate::dispatch_gpu_block!(bs, P, { raja::forall::<P>(1..n + 1, body) })
                }
            }
        });
        (time, checksum(&a))
    }
}

// ---------------------------------------------------------------------------
// MAT_MAT_SHARED
// ---------------------------------------------------------------------------

/// Tile edge for the shared-memory matrix multiply.
pub const TILE: usize = 16;

/// `Basic_MAT_MAT_SHARED`: tiled dense matrix multiply with per-block
/// shared-memory staging — the FLOPS-ceiling kernel of Table II. The
/// problem size `n` is the matrix storage; the matrix edge is `√n`.
pub struct MatMatShared;

impl MatMatShared {
    fn edge(n: usize) -> usize {
        square_edge(n).max(TILE)
    }

    /// Host tiled multiply (cache-blocked; the CPU analogue of the
    /// shared-memory algorithm).
    fn host_tiled<P: raja::ExecPolicy>(c: &mut [f64], a: &[f64], b: &[f64], ne: usize) {
        let cp = DevicePtr::new(c);
        let tiles = ne.div_ceil(TILE);
        raja::forall_2d::<P>(0..tiles, 0..tiles, |ti, tj| {
            let (i0, j0) = (ti * TILE, tj * TILE);
            for kt in 0..tiles {
                let k0 = kt * TILE;
                for i in i0..(i0 + TILE).min(ne) {
                    for j in j0..(j0 + TILE).min(ne) {
                        let mut acc = 0.0;
                        for k in k0..(k0 + TILE).min(ne) {
                            acc += a[i * ne + k] * b[k * ne + j];
                        }
                        // SAFETY: the index is in bounds of the allocation the pointer was built
                        // from, and each parallel iterate writes a distinct element, so writes
                        // never alias.
                        unsafe { cp.write(i * ne + j, cp.read(i * ne + j) + acc) };
                    }
                }
            }
        });
    }

    /// Device shared-memory tile algorithm: stage A/B tiles into shared
    /// memory, barrier, multiply-accumulate, barrier — exactly the CUDA
    /// MAT_MAT_SHARED structure.
    fn device_shared(c: &mut [f64], a: &[f64], b: &[f64], ne: usize) {
        let tiles = ne.div_ceil(TILE);
        let cfg = gpusim::LaunchConfig::grid_block(
            gpusim::Dim3::d2(tiles, tiles),
            gpusim::Dim3::d2(TILE, TILE),
        )
        .with_shared_f64(3 * TILE * TILE);
        let cp = DevicePtr::new(c);
        gpusim::launch(&cfg, |block| {
            let (tj, ti) = (block.block_idx.x, block.block_idx.y);
            let (i0, j0) = (ti * TILE, tj * TILE);
            // Accumulator tile lives in shared-memory slot 2.
            block.threads(|t, shared| {
                let idx = t.thread_idx.y * TILE + t.thread_idx.x;
                shared[2 * TILE * TILE + idx] = 0.0;
            });
            for kt in 0..ne.div_ceil(TILE) {
                let k0 = kt * TILE;
                // Phase: stage A and B tiles.
                block.threads(|t, shared| {
                    let (ty, tx) = (t.thread_idx.y, t.thread_idx.x);
                    let (gi, gk) = (i0 + ty, k0 + tx);
                    shared[ty * TILE + tx] = if gi < ne && gk < ne {
                        a[gi * ne + gk]
                    } else {
                        0.0
                    };
                    let (gk2, gj) = (k0 + ty, j0 + tx);
                    shared[TILE * TILE + ty * TILE + tx] = if gk2 < ne && gj < ne {
                        b[gk2 * ne + gj]
                    } else {
                        0.0
                    };
                });
                // Phase: multiply-accumulate from the staged tiles.
                block.threads(|t, shared| {
                    let (ty, tx) = (t.thread_idx.y, t.thread_idx.x);
                    let mut acc = shared[2 * TILE * TILE + ty * TILE + tx];
                    for k in 0..TILE {
                        acc += shared[ty * TILE + k] * shared[TILE * TILE + k * TILE + tx];
                    }
                    shared[2 * TILE * TILE + ty * TILE + tx] = acc;
                });
            }
            // Phase: write back.
            block.threads(|t, shared| {
                let (ty, tx) = (t.thread_idx.y, t.thread_idx.x);
                let (gi, gj) = (i0 + ty, j0 + tx);
                if gi < ne && gj < ne {
                    // SAFETY: the index is in bounds of the allocation the pointer was built
                    // from, and each parallel iterate writes a distinct element, so writes
                    // never alias.
                    unsafe { cp.write(gi * ne + gj, shared[2 * TILE * TILE + ty * TILE + tx]) };
                }
            });
        });
    }
}

impl KernelBase for MatMatShared {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            complexity: Complexity::NSqrtN,
            ..info(
                "Basic_MAT_MAT_SHARED",
                &[Feature::Kernel, Feature::View],
                1 << 16, // 256×256 matrices by default
                4,
            )
        }
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        let ne = Self::edge(n) as f64;
        AnalyticMetrics {
            bytes_read: 16.0 * ne * ne,
            bytes_written: 8.0 * ne * ne,
            flops: 2.0 * ne * ne * ne,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        s.cache_reuse = 0.95; // tiles stay resident
        s.flop_efficiency = 1.0; // this kernel *defines* the achieved ceiling
        s.icache_pressure = 0.1;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, _tuning: &Tuning) -> (Duration, f64) {
        let ne = Self::edge(n);
        let a = init_unit(ne * ne, 290);
        let b = init_unit(ne * ne, 291);
        let mut c = vec![0.0f64; ne * ne];
        let time = time_reps(reps, || {
            c.fill(0.0);
            match variant {
                VariantId::BaseSeq => {
                    for i in 0..ne {
                        for j in 0..ne {
                            let mut acc = 0.0;
                            for k in 0..ne {
                                acc += a[i * ne + k] * b[k * ne + j];
                            }
                            c[i * ne + j] = acc;
                        }
                    }
                }
                VariantId::BasePar => {
                    c.par_chunks_mut(ne).enumerate().for_each(|(i, row)| {
                        for (j, cij) in row.iter_mut().enumerate() {
                            let mut acc = 0.0;
                            for k in 0..ne {
                                acc += a[i * ne + k] * b[k * ne + j];
                            }
                            *cij = acc;
                        }
                    });
                }
                VariantId::BaseSimGpu => Self::device_shared(&mut c, &a, &b, ne),
                VariantId::RajaSeq => Self::host_tiled::<SeqExec>(&mut c, &a, &b, ne),
                VariantId::RajaPar => Self::host_tiled::<ParExec>(&mut c, &a, &b, ne),
                // The RAJA device path uses the same shared-tile algorithm
                // (upstream it goes through RAJA teams, which our layer
                // represents with the device kernel directly).
                VariantId::RajaSimGpu => Self::device_shared(&mut c, &a, &b, ne),
            }
        });
        (time, checksum(&c))
    }
}

// ---------------------------------------------------------------------------
// MULTI_REDUCE
// ---------------------------------------------------------------------------

/// Bin count for `MULTI_REDUCE`.
pub const MULTI_REDUCE_BINS: usize = 10;

/// `Basic_MULTI_REDUCE`: sum values into one of several bins selected per
/// element (a small-histogram reduction) — atomic adds in the parallel
/// Base variants, a multi-reduce in the RAJA ones.
pub struct MultiReduce;

impl KernelBase for MultiReduce {
    fn info(&self) -> KernelInfo {
        info(
            "Basic_MULTI_REDUCE",
            &[Feature::Forall, Feature::Reduction, Feature::Atomic],
            1_000_000,
            20,
        )
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 12.0 * n as f64, // data f64 + bin i32
            bytes_written: 8.0 * MULTI_REDUCE_BINS as f64,
            flops: n as f64,
        }
    }

    fn shape(&self, n: usize, s: &mut ExecSignature) {
        s.atomics = n as f64;
        s.atomic_contention = 0.6; // ten bins: heavy collisions
        s.int_ops_per_iter = 2.0;
        s.flop_efficiency = 0.08;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let data = init_unit(n, 300);
        let bins = crate::common::init_ints(n, 301, MULTI_REDUCE_BINS);
        let mut sums = vec![0.0f64; MULTI_REDUCE_BINS];
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            sums.fill(0.0);
            match variant {
                VariantId::BaseSeq => {
                    for i in 0..n {
                        sums[bins[i] as usize] += data[i];
                    }
                }
                VariantId::BasePar | VariantId::BaseSimGpu => {
                    let atoms = as_atomic_slice(&mut sums);
                    let body = |i: usize| {
                        atoms[bins[i] as usize].fetch_add(data[i]);
                    };
                    if variant == VariantId::BasePar {
                        (0..n).into_par_iter().for_each(body);
                    } else {
                        gpusim::launch_1d(n, bs, body);
                    }
                }
                _ => crate::run_multi_reduce_raja(variant, n, bs, &mut sums, |i| {
                    (bins[i] as usize, data[i])
                }),
            }
        });
        (time, checksum(&sums))
    }
}

// ---------------------------------------------------------------------------
// NESTED_INIT
// ---------------------------------------------------------------------------

/// `Basic_NESTED_INIT`: `array[i][j][k] = i*j*k` over a cube — the nested
/// `RAJA::kernel` exercise. Another "no specific bottleneck" kernel (§V-B).
pub struct NestedInit;

impl KernelBase for NestedInit {
    fn info(&self) -> KernelInfo {
        info("Basic_NESTED_INIT", &[Feature::Kernel], 1_000_000, 30)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        let e = cube_edge(n) as f64;
        AnalyticMetrics {
            bytes_read: 0.0,
            bytes_written: 8.0 * e * e * e,
            flops: 2.0 * e * e * e,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        s.flop_efficiency = 0.35;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let e = cube_edge(n);
        let mut a = vec![0.0f64; e * e * e];
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let ap = DevicePtr::new(&mut a);
            // SAFETY: indices stay within the extents the device pointers/views were
            // built from, and each parallel iterate touches a disjoint set of output
            // elements, so writes never alias.
            let body3 = |i: usize, j: usize, k: usize| unsafe {
                ap.write((i * e + j) * e + k, (i * j * k) as f64);
            };
            match variant {
                VariantId::BaseSeq => {
                    for i in 0..e {
                        for j in 0..e {
                            for k in 0..e {
                                body3(i, j, k);
                            }
                        }
                    }
                }
                VariantId::BasePar => (0..e).into_par_iter().for_each(|i| {
                    for j in 0..e {
                        for k in 0..e {
                            body3(i, j, k);
                        }
                    }
                }),
                VariantId::BaseSimGpu => {
                    let cfg = gpusim::LaunchConfig::grid_block(
                        gpusim::Dim3::d3(e.div_ceil(bs), e, e),
                        gpusim::Dim3::d1(bs),
                    );
                    gpusim::launch(&cfg, |block| {
                        let (i, j) = (block.block_idx.z, block.block_idx.y);
                        block.threads(|t, _| {
                            let k = t.global_id_x();
                            if k < e {
                                body3(i, j, k);
                            }
                        });
                    });
                }
                VariantId::RajaSeq => raja::forall_3d::<SeqExec>(0..e, 0..e, 0..e, body3),
                VariantId::RajaPar => raja::forall_3d::<ParExec>(0..e, 0..e, 0..e, body3),
                VariantId::RajaSimGpu => crate::dispatch_gpu_block!(bs, P, {
                    raja::forall_3d::<P>(0..e, 0..e, 0..e, body3)
                }),
            }
        });
        (time, checksum(&a))
    }
}

// ---------------------------------------------------------------------------
// PI_ATOMIC / PI_REDUCE / TRAP_INT
// ---------------------------------------------------------------------------

/// `Basic_PI_ATOMIC`: π by midpoint quadrature with every contribution
/// atomically added to a single accumulator — the pathological atomic
/// kernel the paper singles out (§V-B/D: extremely retiring-bound, no GPU
/// speedup).
pub struct PiAtomic;

impl KernelBase for PiAtomic {
    fn info(&self) -> KernelInfo {
        info(
            "Basic_PI_ATOMIC",
            &[Feature::Forall, Feature::Atomic],
            1_000_000,
            20,
        )
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 0.0,
            bytes_written: 8.0,
            flops: 6.0 * n as f64,
        }
    }

    fn shape(&self, n: usize, s: &mut ExecSignature) {
        s.atomics = n as f64; // every iteration hits ONE address
        s.flop_efficiency = 0.05;
        s.gpu_flop_efficiency = Some(0.02);
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let dx = 1.0 / n as f64;
        let mut pi = 0.0f64;
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let acc = AtomicF64::new(0.0);
            crate::run_elementwise(variant, n, bs, |i| {
                let x = (i as f64 + 0.5) * dx;
                acc.fetch_add(dx / (1.0 + x * x));
            });
            pi = 4.0 * acc.load();
        });
        (time, pi)
    }
}

/// `Basic_PI_REDUCE`: the same quadrature via a proper reduction.
pub struct PiReduce;

impl KernelBase for PiReduce {
    fn info(&self) -> KernelInfo {
        info(
            "Basic_PI_REDUCE",
            &[Feature::Forall, Feature::Reduction],
            1_000_000,
            20,
        )
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 0.0,
            bytes_written: 8.0,
            flops: 6.0 * n as f64,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        // Compute-only reduction: FLOP-heavy per byte (one of the 17 in
        // §V-D) but the division chain saturates the FP divider — the
        // paper's core-bound cluster.
        s.flop_efficiency = 0.1;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let dx = 1.0 / n as f64;
        let mut pi = 0.0f64;
        let bs = tuning.gpu_block_size;
        let f = |i: usize| {
            let x = (i as f64 + 0.5) * dx;
            dx / (1.0 + x * x)
        };
        let time = time_reps(reps, || {
            let sum = match variant {
                VariantId::BaseSeq => (0..n).map(f).sum::<f64>(),
                VariantId::BasePar => (0..n).into_par_iter().map(f).sum::<f64>(),
                VariantId::RajaSeq => raja::reduce::reduce_sum::<SeqExec, f64>(0..n, f),
                VariantId::RajaPar => raja::reduce::reduce_sum::<ParExec, f64>(0..n, f),
                VariantId::BaseSimGpu | VariantId::RajaSimGpu => {
                    crate::dispatch_gpu_block!(bs, P, {
                        raja::reduce::reduce_sum::<P, f64>(0..n, f)
                    })
                }
            };
            pi = 4.0 * sum;
        });
        (time, pi)
    }
}

/// `Basic_TRAP_INT`: trapezoid-rule integration of a polynomial (another of
/// §V-D's FLOP-heavy kernels).
pub struct TrapInt;

impl KernelBase for TrapInt {
    fn info(&self) -> KernelInfo {
        info(
            "Basic_TRAP_INT",
            &[Feature::Forall, Feature::Reduction],
            1_000_000,
            20,
        )
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 0.0,
            bytes_written: 8.0,
            flops: 7.0 * n as f64,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        // Polynomial + division per point: divider-port bound (core bound).
        s.flop_efficiency = 0.1;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let (x0, x1) = (0.0f64, 1.0f64);
        let h = (x1 - x0) / n as f64;
        let mut total = 0.0f64;
        let bs = tuning.gpu_block_size;
        // Integrand: 3x² + 2x + 1 (exact integral over [0,1] is 3).
        let f = |i: usize| {
            let x = x0 + (i as f64 + 0.5) * h;
            (3.0 * x * x + 2.0 * x + 1.0) * h
        };
        let time = time_reps(reps, || {
            total = match variant {
                VariantId::BaseSeq => (0..n).map(f).sum::<f64>(),
                VariantId::BasePar => (0..n).into_par_iter().map(f).sum::<f64>(),
                VariantId::RajaSeq => raja::reduce::reduce_sum::<SeqExec, f64>(0..n, f),
                VariantId::RajaPar => raja::reduce::reduce_sum::<ParExec, f64>(0..n, f),
                VariantId::BaseSimGpu | VariantId::RajaSimGpu => {
                    crate::dispatch_gpu_block!(bs, P, {
                        raja::reduce::reduce_sum::<P, f64>(0..n, f)
                    })
                }
            };
        });
        (time, total)
    }
}

// ---------------------------------------------------------------------------
// REDUCE3_INT / REDUCE_STRUCT
// ---------------------------------------------------------------------------

/// `Basic_REDUCE3_INT`: sum, min and max of an integer array in one pass.
pub struct Reduce3Int;

impl KernelBase for Reduce3Int {
    fn info(&self) -> KernelInfo {
        info(
            "Basic_REDUCE3_INT",
            &[Feature::Forall, Feature::Reduction],
            1_000_000,
            30,
        )
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 4.0 * n as f64,
            bytes_written: 12.0,
            flops: 0.0,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        s.int_ops_per_iter = 3.0;
        // The paper notes reduction kernels like REDUCE_SUM are not
        // primarily memory-bandwidth limited: dependency chains bound
        // retire instead.
        s.flop_efficiency = 0.2;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let vals: Vec<i64> = crate::common::init_ints(n, 310, 2001)
            .into_iter()
            .map(|v| v as i64 - 1000)
            .collect();
        type T3 = (i64, i64, i64);
        let identity: T3 = (0, i64::MAX, i64::MIN);
        let combine = |a: T3, b: T3| (a.0 + b.0, a.1.min(b.1), a.2.max(b.2));
        let mut out = identity;
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let map = |i: usize| (vals[i], vals[i], vals[i]);
            out = match variant {
                VariantId::BaseSeq => {
                    let mut acc = identity;
                    for i in 0..n {
                        acc = combine(acc, map(i));
                    }
                    acc
                }
                VariantId::BasePar => (0..n)
                    .into_par_iter()
                    .fold(|| identity, |acc, i| combine(acc, map(i)))
                    .reduce(|| identity, combine),
                VariantId::RajaSeq => {
                    raja::reduce::forall_reduce::<SeqExec, T3>(0..n, identity, map, combine)
                }
                VariantId::RajaPar => {
                    raja::reduce::forall_reduce::<ParExec, T3>(0..n, identity, map, combine)
                }
                VariantId::BaseSimGpu | VariantId::RajaSimGpu => {
                    crate::dispatch_gpu_block!(bs, P, {
                        raja::reduce::forall_reduce::<P, T3>(0..n, identity, map, combine)
                    })
                }
            };
        });
        (time, out.0 as f64 + out.1 as f64 * 2.0 + out.2 as f64 * 3.0)
    }
}

/// `Basic_REDUCE_STRUCT`: centroid and bounds of a 2-D point set — six
/// simultaneous reductions over a struct-of-arrays layout.
pub struct ReduceStruct;

impl KernelBase for ReduceStruct {
    fn info(&self) -> KernelInfo {
        info(
            "Basic_REDUCE_STRUCT",
            &[Feature::Forall, Feature::Reduction],
            1_000_000,
            30,
        )
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 16.0 * n as f64,
            bytes_written: 48.0,
            flops: 2.0 * n as f64,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        s.flop_efficiency = 0.2;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let xs = init_unit(n, 320);
        let ys = init_unit(n, 321);
        type T6 = ((f64, f64), (f64, f64), (f64, f64)); // (sums, mins, maxs)
        let identity: T6 = (
            (0.0, 0.0),
            (f64::INFINITY, f64::INFINITY),
            (f64::NEG_INFINITY, f64::NEG_INFINITY),
        );
        let combine = |a: T6, b: T6| {
            (
                (a.0 .0 + b.0 .0, a.0 .1 + b.0 .1),
                (a.1 .0.min(b.1 .0), a.1 .1.min(b.1 .1)),
                (a.2 .0.max(b.2 .0), a.2 .1.max(b.2 .1)),
            )
        };
        let mut out = identity;
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let map = |i: usize| ((xs[i], ys[i]), (xs[i], ys[i]), (xs[i], ys[i]));
            out = match variant {
                VariantId::BaseSeq => {
                    let mut acc = identity;
                    for i in 0..n {
                        acc = combine(acc, map(i));
                    }
                    acc
                }
                VariantId::BasePar => (0..n)
                    .into_par_iter()
                    .fold(|| identity, |acc, i| combine(acc, map(i)))
                    .reduce(|| identity, combine),
                VariantId::RajaSeq => {
                    raja::reduce::forall_reduce::<SeqExec, T6>(0..n, identity, map, combine)
                }
                VariantId::RajaPar => {
                    raja::reduce::forall_reduce::<ParExec, T6>(0..n, identity, map, combine)
                }
                VariantId::BaseSimGpu | VariantId::RajaSimGpu => {
                    crate::dispatch_gpu_block!(bs, P, {
                        raja::reduce::forall_reduce::<P, T6>(0..n, identity, map, combine)
                    })
                }
            };
        });
        let (sums, mins, maxs) = out;
        let xc = sums.0 / n as f64;
        let yc = sums.1 / n as f64;
        (time, xc + yc + mins.0 + mins.1 + maxs.0 + maxs.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_variants;

    const N: usize = 4000;

    #[test]
    fn elementwise_kernels_agree_exactly() {
        verify_variants(&ArrayOfPtrs, N, 1e-12);
        verify_variants(&Copy8, N, 1e-12);
        verify_variants(&Daxpy, N, 1e-12);
        verify_variants(&IfQuad, N, 1e-12);
        verify_variants(&Init3, N, 1e-12);
        verify_variants(&InitView1d, N, 1e-12);
        verify_variants(&InitView1dOffset, N, 1e-12);
        verify_variants(&MulAddSub, N, 1e-12);
        verify_variants(&NestedInit, N, 1e-12);
    }

    #[test]
    fn atomic_kernels_agree_within_reassociation() {
        verify_variants(&DaxpyAtomic, N, 1e-10);
        verify_variants(&MultiReduce, N, 1e-9);
        verify_variants(&PiAtomic, N, 1e-9);
    }

    #[test]
    fn reduction_kernels_agree() {
        verify_variants(&PiReduce, N, 1e-10);
        verify_variants(&Reduce3Int, N, 1e-12); // integer reductions are exact
        verify_variants(&ReduceStruct, N, 1e-10);
        verify_variants(&TrapInt, N, 1e-10);
    }

    #[test]
    fn indexlist_kernels_agree() {
        verify_variants(&IndexList, N, 1e-12);
        verify_variants(&IndexList3Loop, N, 1e-12);
    }

    #[test]
    fn matmul_variants_agree() {
        // 64×64 matrices: checksum differences come only from tiled
        // summation order.
        verify_variants(&MatMatShared, 64 * 64, 1e-9);
    }

    #[test]
    fn pi_kernels_approximate_pi() {
        let t = Tuning::default();
        let r = PiReduce.execute(VariantId::RajaPar, 100_000, 1, &t);
        assert!(
            (r.checksum - std::f64::consts::PI).abs() < 1e-8,
            "{}",
            r.checksum
        );
        let r = PiAtomic.execute(VariantId::RajaSimGpu, 100_000, 1, &t);
        assert!((r.checksum - std::f64::consts::PI).abs() < 1e-8);
    }

    #[test]
    fn trap_int_integrates_polynomial() {
        // ∫₀¹ 3x² + 2x + 1 dx = 3.
        let r = TrapInt.execute(VariantId::BasePar, 200_000, 1, &Tuning::default());
        assert!((r.checksum - 3.0).abs() < 1e-6, "{}", r.checksum);
    }

    #[test]
    fn indexlist_counts_negative_entries() {
        let n = 10_000;
        let x = init_signed(n, 250);
        let expect = x.iter().filter(|&&v| v < 0.0).count();
        let expect_sum: f64 = x
            .iter()
            .enumerate()
            .filter(|(_, &v)| v < 0.0)
            .map(|(i, _)| i as f64)
            .sum();
        let r = IndexList.execute(VariantId::RajaSimGpu, n, 1, &Tuning::default());
        assert_eq!(r.checksum, expect_sum + expect as f64);
    }

    #[test]
    fn matmul_device_matches_naive_reference() {
        let n = TILE * TILE * 4; // edge = 2*TILE
        let r_gpu = MatMatShared.execute(VariantId::BaseSimGpu, n, 1, &Tuning::default());
        let r_ref = MatMatShared.execute(VariantId::BaseSeq, n, 1, &Tuning::default());
        assert!(crate::common::close(r_gpu.checksum, r_ref.checksum, 1e-10));
    }

    #[test]
    fn reduce3_finds_extrema() {
        let n = 50_000;
        let vals: Vec<i64> = crate::common::init_ints(n, 310, 2001)
            .into_iter()
            .map(|v| v as i64 - 1000)
            .collect();
        let sum: i64 = vals.iter().sum();
        let min = *vals.iter().min().unwrap();
        let max = *vals.iter().max().unwrap();
        let r = Reduce3Int.execute(VariantId::RajaPar, n, 1, &Tuning::default());
        assert_eq!(r.checksum, sum as f64 + min as f64 * 2.0 + max as f64 * 3.0);
    }

    #[test]
    fn pi_atomic_signature_is_atomic_dominated() {
        let s = PiAtomic.signature(100_000);
        assert_eq!(s.atomics, 100_000.0);
        assert!(s.bytes_read == 0.0);
    }
}
