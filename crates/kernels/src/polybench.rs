//! Polybench group: 13 kernels from the Polyhedral Benchmark suite
//! (Table I "Polybench"), used upstream to study polyhedral compiler
//! optimization.
//!
//! The group spans both extremes of the paper's analysis: the matrix-matrix
//! kernels (2MM, 3MM, GEMM, FLOYD_WARSHALL) are O(N^{3/2}) and land in the
//! core-bound cluster, gaining on GPUs but not on HBM; the matrix-vector
//! kernels (ATAX, GEMVER, GESUMMV, MVT) and the sweep kernel ADI are the
//! paper's exception list — memory-bound on the CPUs yet showing *no* GPU
//! speedup because their column-strided/sweep access defeats coalescing
//! (§V-B/C).
//!
//! Problem sizing follows RAJAPerf: `n` is the total array storage; matrix
//! edges are derived from it (e.g. GEMM holds 3 N×N matrices, so
//! N = √(n/3)).

use crate::common::{checksum, init_unit};
use crate::{
    run_elementwise, time_reps, AnalyticMetrics, Feature, Group, KernelBase, KernelInfo,
    PaperModel, Tuning, VariantId, ALL_VARIANTS,
};
use perfmodel::{Complexity, ExecSignature};
use raja::DevicePtr;
use std::time::Duration;

/// Register the Polybench kernels in Table I order.
pub fn register(v: &mut Vec<Box<dyn KernelBase>>) {
    v.push(Box::new(TwoMM));
    v.push(Box::new(ThreeMM));
    v.push(Box::new(Adi));
    v.push(Box::new(Atax));
    v.push(Box::new(Fdtd2d));
    v.push(Box::new(FloydWarshall));
    v.push(Box::new(Gemm));
    v.push(Box::new(Gemver));
    v.push(Box::new(Gesummv));
    v.push(Box::new(Heat3d));
    v.push(Box::new(Jacobi1d));
    v.push(Box::new(Jacobi2d));
    v.push(Box::new(Mvt));
}

const MODELS: &[PaperModel] = &[
    PaperModel::Seq,
    PaperModel::OpenMp,
    PaperModel::OmpTarget,
    PaperModel::Cuda,
    PaperModel::Hip,
    PaperModel::Sycl,
];

fn info(name: &'static str, complexity: Complexity, default_size: usize) -> KernelInfo {
    KernelInfo {
        name,
        group: Group::Polybench,
        features: &[Feature::Kernel, Feature::View],
        complexity,
        default_size,
        default_reps: 4,
        paper_models: MODELS,
        variants: ALL_VARIANTS,
    }
}

/// Matrix edge when the kernel stores `mats` square matrices in `n` slots.
fn edge(n: usize, mats: usize) -> usize {
    ((n / mats) as f64).sqrt().floor().max(4.0) as usize
}

/// Dense-matmul signature profile (2MM/3MM/GEMM): high tile reuse, FP-port
/// saturation, super-linear work.
fn matmul_sig(s: &mut ExecSignature) {
    s.cache_reuse = 0.92;
    s.flop_efficiency = 0.5; // untiled triple loop: below the MAT_MAT ceiling
    s.icache_pressure = 0.08;
}

/// Matrix-vector signature profile (ATAX/GEMVER/MVT): transposed access —
/// poorly vectorized on the CPU, uncoalesced on the device.
fn matvec_transposed_sig(s: &mut ExecSignature) {
    s.cache_reuse = 0.45;
    // Column-strided FP accumulations cannot vectorize at all: FP-port
    // latency dominates (the paper's most core-bound cluster).
    s.flop_efficiency = 0.035;
    s.int_ops_per_iter = 2.0;
    // 8 useful bytes per 64-byte line on the column sweeps, compounded by
    // latency-bound dependent accumulations (each load feeds the next
    // FMA): effectively well under 1% of device bandwidth — the paper's
    // no-GPU-speedup exceptions on both the V100 and the MI250X.
    s.gpu_coalescing = 0.006;
}

// ---------------------------------------------------------------------------
// 2MM / 3MM / GEMM — dense multiply family sharing one inner routine
// ---------------------------------------------------------------------------

/// Dense multiply `C += A·B` over every variant (row-parallel).
fn mm_accumulate(variant: VariantId, bs: usize, ne: usize, c: &mut [f64], a: &[f64], b: &[f64]) {
    let cp = DevicePtr::new(c);
    run_elementwise(variant, ne * ne, bs, |f| {
        let (i, j) = (f / ne, f % ne);
        let mut acc = 0.0;
        for k in 0..ne {
            acc += a[i * ne + k] * b[k * ne + j];
        }
        // SAFETY: the index is in bounds of the allocation the pointer was built
        // from, and each parallel iterate writes a distinct element, so writes
        // never alias.
        unsafe { cp.write(i * ne + j, cp.read(i * ne + j) + acc) };
    });
}

/// `Polybench_2MM`: `D = α·A·B·C + β·D` (two chained multiplies).
pub struct TwoMM;

impl KernelBase for TwoMM {
    fn info(&self) -> KernelInfo {
        info("Polybench_2MM", Complexity::NSqrtN, 5 * 128 * 128)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        let ne = edge(n, 5) as f64;
        AnalyticMetrics {
            bytes_read: 8.0 * 5.0 * ne * ne,
            bytes_written: 8.0 * 2.0 * ne * ne,
            flops: 4.0 * ne * ne * ne + 2.0 * ne * ne,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        matmul_sig(s);
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let ne = edge(n, 5);
        let (alpha, beta) = (1.5, 1.2);
        let a = init_unit(ne * ne, 600);
        let b = init_unit(ne * ne, 601);
        let c = init_unit(ne * ne, 602);
        let d0 = init_unit(ne * ne, 603);
        let mut tmp = vec![0.0f64; ne * ne];
        let mut d = vec![0.0f64; ne * ne];
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            tmp.fill(0.0);
            // tmp = alpha * A * B
            mm_accumulate(variant, bs, ne, &mut tmp, &a, &b);
            for v in tmp.iter_mut() {
                *v *= alpha;
            }
            // D = tmp * C + beta * D0
            d.iter_mut().zip(&d0).for_each(|(x, &y)| *x = beta * y);
            mm_accumulate(variant, bs, ne, &mut d, &tmp, &c);
        });
        (time, checksum(&d))
    }
}

/// `Polybench_3MM`: `G = (A·B)·(C·D)` (three multiplies).
pub struct ThreeMM;

impl KernelBase for ThreeMM {
    fn info(&self) -> KernelInfo {
        info("Polybench_3MM", Complexity::NSqrtN, 7 * 128 * 128)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        let ne = edge(n, 7) as f64;
        AnalyticMetrics {
            bytes_read: 8.0 * 6.0 * ne * ne,
            bytes_written: 8.0 * 3.0 * ne * ne,
            flops: 6.0 * ne * ne * ne,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        matmul_sig(s);
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let ne = edge(n, 7);
        let a = init_unit(ne * ne, 610);
        let b = init_unit(ne * ne, 611);
        let c = init_unit(ne * ne, 612);
        let d = init_unit(ne * ne, 613);
        let mut e = vec![0.0f64; ne * ne];
        let mut f = vec![0.0f64; ne * ne];
        let mut g = vec![0.0f64; ne * ne];
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            e.fill(0.0);
            f.fill(0.0);
            g.fill(0.0);
            mm_accumulate(variant, bs, ne, &mut e, &a, &b);
            mm_accumulate(variant, bs, ne, &mut f, &c, &d);
            mm_accumulate(variant, bs, ne, &mut g, &e, &f);
        });
        (time, checksum(&g))
    }
}

/// `Polybench_GEMM`: `C = α·A·B + β·C`.
pub struct Gemm;

impl KernelBase for Gemm {
    fn info(&self) -> KernelInfo {
        info("Polybench_GEMM", Complexity::NSqrtN, 3 * 160 * 160)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        let ne = edge(n, 3) as f64;
        AnalyticMetrics {
            bytes_read: 8.0 * 3.0 * ne * ne,
            bytes_written: 8.0 * ne * ne,
            flops: 2.0 * ne * ne * ne + 3.0 * ne * ne,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        matmul_sig(s);
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let ne = edge(n, 3);
        let (alpha, beta) = (1.5, 1.2);
        let a = init_unit(ne * ne, 620);
        let b = init_unit(ne * ne, 621);
        let c0 = init_unit(ne * ne, 622);
        let mut c = vec![0.0f64; ne * ne];
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let cp = DevicePtr::new(&mut c);
            run_elementwise(variant, ne * ne, bs, |f| {
                let (i, j) = (f / ne, f % ne);
                let mut acc = beta * c0[i * ne + j];
                for k in 0..ne {
                    acc += alpha * a[i * ne + k] * b[k * ne + j];
                }
                // SAFETY: the index is in bounds of the allocation the pointer was built
                // from, and each parallel iterate writes a distinct element, so writes
                // never alias.
                unsafe { cp.write(i * ne + j, acc) };
            });
        });
        (time, checksum(&c))
    }
}

// ---------------------------------------------------------------------------
// ADI
// ---------------------------------------------------------------------------

/// Time steps for the iterative Polybench kernels.
const TSTEPS: usize = 2;

/// `Polybench_ADI`: alternating-direction-implicit sweeps — per-line
/// forward/backward recurrences, parallel only across lines. One of the
/// paper's "memory bound on the CPU but no GPU speedup" exceptions.
pub struct Adi;

impl Adi {
    fn edge(n: usize) -> usize {
        edge(n, 4)
    }
}

impl KernelBase for Adi {
    fn info(&self) -> KernelInfo {
        info("Polybench_ADI", Complexity::N, 4 * 256 * 256)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        let ne = Self::edge(n) as f64;
        let pts = TSTEPS as f64 * 2.0 * ne * (ne - 2.0);
        AnalyticMetrics {
            bytes_read: 8.0 * 6.0 * pts,
            bytes_written: 8.0 * 3.0 * pts,
            flops: 12.0 * pts,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        // Sweep recurrences: scalar chains on the CPU, wholly uncoalesced
        // column sweeps on the device.
        s.flop_efficiency = 0.12;
        s.gpu_coalescing = 0.03;
        s.kernel_launches = (TSTEPS * 4) as f64;
        s.int_ops_per_iter = 3.0;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let ne = Self::edge(n);
        let mut u = init_unit(ne * ne, 630);
        let mut v = vec![0.0f64; ne * ne];
        let mut p = vec![0.0f64; ne * ne];
        let mut q = vec![0.0f64; ne * ne];
        let (a, b, c, d, e, f) = (0.11, 0.22, 0.33, 0.44, 0.55, 0.66);
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let up = DevicePtr::new(&mut u);
            let vp = DevicePtr::new(&mut v);
            let pp = DevicePtr::new(&mut p);
            let qp = DevicePtr::new(&mut q);
            for _t in 0..TSTEPS {
                // Column sweep: parallel over columns i, recurrence along j.
                run_elementwise(variant, ne - 2, bs, |ii| {
                    let i = ii + 1;
                    // SAFETY: indices stay within the extents the device pointers/views were
                    // built from, and each parallel iterate touches a disjoint set of output
                    // elements, so writes never alias.
                    unsafe {
                        vp.write(i, 1.0);
                        pp.write(i * ne, 0.0);
                        qp.write(i * ne, 1.0);
                        for j in 1..ne - 1 {
                            let pv = pp.read(i * ne + j - 1);
                            let qv = qp.read(i * ne + j - 1);
                            let denom = b - a * pv;
                            pp.write(i * ne + j, c / denom);
                            qp.write(
                                i * ne + j,
                                (-d * up.read((j) * ne + i - 1)
                                    + (1.0 + 2.0 * d) * up.read(j * ne + i)
                                    - f * up.read(j * ne + i + 1)
                                    - a * qv)
                                    / denom,
                            );
                        }
                        for j in (1..ne - 1).rev() {
                            let next = vp.read((j + 1) * ne + i);
                            vp.write(j * ne + i, pp.read(i * ne + j) * next + qp.read(i * ne + j));
                        }
                    }
                });
                // Row sweep: parallel over rows i, recurrence along j.
                run_elementwise(variant, ne - 2, bs, |ii| {
                    let i = ii + 1;
                    // SAFETY: indices stay within the extents the device pointers/views were
                    // built from, and each parallel iterate touches a disjoint set of output
                    // elements, so writes never alias.
                    unsafe {
                        up.write(i * ne, 1.0);
                        pp.write(i * ne, 0.0);
                        qp.write(i * ne, 1.0);
                        for j in 1..ne - 1 {
                            let pv = pp.read(i * ne + j - 1);
                            let qv = qp.read(i * ne + j - 1);
                            let denom = e - c * pv;
                            pp.write(i * ne + j, f / denom);
                            qp.write(
                                i * ne + j,
                                (-a * vp.read((i - 1) * ne + j)
                                    + (1.0 + 2.0 * a) * vp.read(i * ne + j)
                                    - c * vp.read((i + 1) * ne + j)
                                    - c * qv)
                                    / denom,
                            );
                        }
                        for j in (1..ne - 1).rev() {
                            let next = up.read(i * ne + j + 1);
                            up.write(i * ne + j, pp.read(i * ne + j) * next + qp.read(i * ne + j));
                        }
                    }
                });
            }
        });
        (time, checksum(&u) + checksum(&v))
    }
}

// ---------------------------------------------------------------------------
// ATAX / GESUMMV / GEMVER / MVT — matrix-vector family
// ---------------------------------------------------------------------------

/// `Polybench_ATAX`: `y = Aᵀ(A·x)`.
pub struct Atax;

impl KernelBase for Atax {
    fn info(&self) -> KernelInfo {
        info("Polybench_ATAX", Complexity::N, 512 * 512)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        let ne = edge(n, 1) as f64;
        AnalyticMetrics {
            bytes_read: 8.0 * 2.0 * ne * ne,
            bytes_written: 8.0 * 2.0 * ne,
            flops: 4.0 * ne * ne,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        matvec_transposed_sig(s);
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let ne = edge(n, 1);
        let a = init_unit(ne * ne, 640);
        let x = init_unit(ne, 641);
        let mut tmp = vec![0.0f64; ne];
        let mut y = vec![0.0f64; ne];
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let tp = DevicePtr::new(&mut tmp);
            let yp = DevicePtr::new(&mut y);
            // tmp = A x (row-parallel)
            run_elementwise(variant, ne, bs, |i| {
                let mut acc = 0.0;
                for j in 0..ne {
                    acc += a[i * ne + j] * x[j];
                }
                // SAFETY: the index is in bounds of the allocation the pointer was built
                // from, and each parallel iterate writes a distinct element, so writes
                // never alias.
                unsafe { tp.write(i, acc) };
            });
            // y = Aᵀ tmp (column-parallel: strided reads of A)
            run_elementwise(variant, ne, bs, |j| {
                let mut acc = 0.0;
                for i in 0..ne {
                    // SAFETY: the index is in bounds of the allocation the pointer was built
                    // from; concurrent accesses to it are reads.
                    acc += a[i * ne + j] * unsafe { tp.read(i) };
                }
                // SAFETY: the index is in bounds of the allocation the pointer was built
                // from, and each parallel iterate writes a distinct element, so writes
                // never alias.
                unsafe { yp.write(j, acc) };
            });
        });
        (time, checksum(&y))
    }
}

/// `Polybench_GESUMMV`: `y = α·A·x + β·B·x` — the paper's flagship
/// memory-bound-on-DDR matrix-vector kernel.
pub struct Gesummv;

impl KernelBase for Gesummv {
    fn info(&self) -> KernelInfo {
        info("Polybench_GESUMMV", Complexity::N, 2 * 360 * 360)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        let ne = edge(n, 2) as f64;
        AnalyticMetrics {
            bytes_read: 8.0 * 2.0 * ne * ne,
            bytes_written: 8.0 * ne,
            flops: 4.0 * ne * ne + 3.0 * ne,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        // Two full-matrix streams per matvec: bandwidth-starved on DDR.
        s.cache_reuse = 0.0;
        s.flop_efficiency = 0.25;
        // The paper finds GESUMMV gains slightly on HBM but not on either
        // GPU: the per-row dependent accumulations leave the device
        // bandwidth badly underutilized.
        s.gpu_coalescing = 0.045;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let ne = edge(n, 2);
        let (alpha, beta) = (1.5, 1.2);
        let a = init_unit(ne * ne, 650);
        let b = init_unit(ne * ne, 651);
        let x = init_unit(ne, 652);
        let mut y = vec![0.0f64; ne];
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let yp = DevicePtr::new(&mut y);
            run_elementwise(variant, ne, bs, |i| {
                let mut sa = 0.0;
                let mut sb = 0.0;
                for j in 0..ne {
                    sa += a[i * ne + j] * x[j];
                    sb += b[i * ne + j] * x[j];
                }
                // SAFETY: the index is in bounds of the allocation the pointer was built
                // from, and each parallel iterate writes a distinct element, so writes
                // never alias.
                unsafe { yp.write(i, alpha * sa + beta * sb) };
            });
        });
        (time, checksum(&y))
    }
}

/// `Polybench_GEMVER`: rank-2 update then two matrix-vector products.
pub struct Gemver;

impl KernelBase for Gemver {
    fn info(&self) -> KernelInfo {
        info("Polybench_GEMVER", Complexity::N, 512 * 512)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        let ne = edge(n, 1) as f64;
        AnalyticMetrics {
            bytes_read: 8.0 * (3.0 * ne * ne + 6.0 * ne),
            bytes_written: 8.0 * (ne * ne + 3.0 * ne),
            flops: 8.0 * ne * ne + 2.0 * ne,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        matvec_transposed_sig(s);
        s.kernel_launches = 4.0;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let ne = edge(n, 1);
        let (alpha, beta) = (1.5, 1.2);
        let a0 = init_unit(ne * ne, 660);
        let u1 = init_unit(ne, 661);
        let v1 = init_unit(ne, 662);
        let u2 = init_unit(ne, 663);
        let v2 = init_unit(ne, 664);
        let yv = init_unit(ne, 665);
        let z = init_unit(ne, 666);
        let mut a = vec![0.0f64; ne * ne];
        let mut x = vec![0.0f64; ne];
        let mut w = vec![0.0f64; ne];
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            a.copy_from_slice(&a0);
            let ap = DevicePtr::new(&mut a);
            let xp = DevicePtr::new(&mut x);
            let wp = DevicePtr::new(&mut w);
            // A = A + u1 v1ᵀ + u2 v2ᵀ
            run_elementwise(variant, ne * ne, bs, |f| {
                let (i, j) = (f / ne, f % ne);
                // SAFETY: indices stay within the extents the device pointers/views were
                // built from, and each parallel iterate touches a disjoint set of output
                // elements, so writes never alias.
                unsafe {
                    ap.write(
                        i * ne + j,
                        ap.read(i * ne + j) + u1[i] * v1[j] + u2[i] * v2[j],
                    );
                }
            });
            // x = beta Aᵀ y + z  (column access)
            run_elementwise(variant, ne, bs, |i| {
                let mut acc = z[i];
                for j in 0..ne {
                    // SAFETY: the index is in bounds of the allocation the pointer was built
                    // from; concurrent accesses to it are reads.
                    acc += beta * unsafe { ap.read(j * ne + i) } * yv[j];
                }
                // SAFETY: the index is in bounds of the allocation the pointer was built
                // from, and each parallel iterate writes a distinct element, so writes
                // never alias.
                unsafe { xp.write(i, acc) };
            });
            // w = alpha A x
            run_elementwise(variant, ne, bs, |i| {
                let mut acc = 0.0;
                for j in 0..ne {
                    // SAFETY: the index is in bounds of the allocation the pointer was built
                    // from; concurrent accesses to it are reads.
                    acc += alpha * unsafe { ap.read(i * ne + j) * xp.read(j) };
                }
                // SAFETY: the index is in bounds of the allocation the pointer was built
                // from, and each parallel iterate writes a distinct element, so writes
                // never alias.
                unsafe { wp.write(i, acc) };
            });
        });
        (time, checksum(&w) + checksum(&x))
    }
}

/// `Polybench_MVT`: `x1 += A·y1; x2 += Aᵀ·y2`.
pub struct Mvt;

impl KernelBase for Mvt {
    fn info(&self) -> KernelInfo {
        info("Polybench_MVT", Complexity::N, 512 * 512)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        let ne = edge(n, 1) as f64;
        AnalyticMetrics {
            bytes_read: 8.0 * 2.0 * ne * ne,
            bytes_written: 8.0 * 2.0 * ne,
            flops: 4.0 * ne * ne,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        matvec_transposed_sig(s);
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let ne = edge(n, 1);
        let a = init_unit(ne * ne, 670);
        let y1 = init_unit(ne, 671);
        let y2 = init_unit(ne, 672);
        let mut x1 = init_unit(ne, 673);
        let mut x2 = init_unit(ne, 674);
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let p1 = DevicePtr::new(&mut x1);
            let p2 = DevicePtr::new(&mut x2);
            run_elementwise(variant, ne, bs, |i| {
                // SAFETY: the index is in bounds of the allocation the pointer was built
                // from; concurrent accesses to it are reads.
                let mut acc = unsafe { p1.read(i) };
                for j in 0..ne {
                    acc += a[i * ne + j] * y1[j];
                }
                // SAFETY: the index is in bounds of the allocation the pointer was built
                // from, and each parallel iterate writes a distinct element, so writes
                // never alias.
                unsafe { p1.write(i, acc) };
            });
            run_elementwise(variant, ne, bs, |i| {
                // SAFETY: the index is in bounds of the allocation the pointer was built
                // from; concurrent accesses to it are reads.
                let mut acc = unsafe { p2.read(i) };
                for j in 0..ne {
                    acc += a[j * ne + i] * y2[j];
                }
                // SAFETY: the index is in bounds of the allocation the pointer was built
                // from, and each parallel iterate writes a distinct element, so writes
                // never alias.
                unsafe { p2.write(i, acc) };
            });
        });
        (time, checksum(&x1) + checksum(&x2))
    }
}

// ---------------------------------------------------------------------------
// FDTD_2D
// ---------------------------------------------------------------------------

/// `Polybench_FDTD_2D`: finite-difference time domain over a 2-D grid —
/// four sub-loops per time step.
pub struct Fdtd2d;

impl Fdtd2d {
    fn edge(n: usize) -> usize {
        edge(n, 3)
    }
}

impl KernelBase for Fdtd2d {
    fn info(&self) -> KernelInfo {
        info("Polybench_FDTD_2D", Complexity::N, 3 * 300 * 300)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        let ne = Self::edge(n) as f64;
        let pts = TSTEPS as f64 * ne * ne;
        AnalyticMetrics {
            bytes_read: 8.0 * 7.0 * pts,
            bytes_written: 8.0 * 3.0 * pts,
            flops: 11.0 * pts,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        s.cache_reuse = 0.3;
        s.kernel_launches = (TSTEPS * 4) as f64;
        s.flop_efficiency = 0.3;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let ne = Self::edge(n);
        let mut ex = init_unit(ne * ne, 680);
        let mut ey = init_unit(ne * ne, 681);
        let mut hz = init_unit(ne * ne, 682);
        let fict = init_unit(TSTEPS, 683);
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let exp_ = DevicePtr::new(&mut ex);
            let eyp = DevicePtr::new(&mut ey);
            let hzp = DevicePtr::new(&mut hz);
            for t in 0..TSTEPS {
                // SAFETY: the index is in bounds of the allocation the pointer was built
                // from, and each parallel iterate writes a distinct element, so writes
                // never alias.
                run_elementwise(variant, ne, bs, |j| unsafe { eyp.write(j, fict[t]) });
                run_elementwise(variant, (ne - 1) * ne, bs, |f| {
                    let (i, j) = (1 + f / ne, f % ne);
                    // SAFETY: indices stay within the extents the device pointers/views were
                    // built from, and each parallel iterate touches a disjoint set of output
                    // elements, so writes never alias.
                    unsafe {
                        eyp.write(
                            i * ne + j,
                            eyp.read(i * ne + j)
                                - 0.5 * (hzp.read(i * ne + j) - hzp.read((i - 1) * ne + j)),
                        );
                    }
                });
                run_elementwise(variant, ne * (ne - 1), bs, |f| {
                    let (i, j) = (f / (ne - 1), 1 + f % (ne - 1));
                    // SAFETY: indices stay within the extents the device pointers/views were
                    // built from, and each parallel iterate touches a disjoint set of output
                    // elements, so writes never alias.
                    unsafe {
                        exp_.write(
                            i * ne + j,
                            exp_.read(i * ne + j)
                                - 0.5 * (hzp.read(i * ne + j) - hzp.read(i * ne + j - 1)),
                        );
                    }
                });
                run_elementwise(variant, (ne - 1) * (ne - 1), bs, |f| {
                    let (i, j) = (f / (ne - 1), f % (ne - 1));
                    // SAFETY: indices stay within the extents the device pointers/views were
                    // built from, and each parallel iterate touches a disjoint set of output
                    // elements, so writes never alias.
                    unsafe {
                        hzp.write(
                            i * ne + j,
                            hzp.read(i * ne + j)
                                - 0.7
                                    * (exp_.read(i * ne + j + 1) - exp_.read(i * ne + j)
                                        + eyp.read((i + 1) * ne + j)
                                        - eyp.read(i * ne + j)),
                        );
                    }
                });
            }
        });
        (time, checksum(&hz))
    }
}

// ---------------------------------------------------------------------------
// FLOYD_WARSHALL
// ---------------------------------------------------------------------------

/// `Polybench_FLOYD_WARSHALL`: all-pairs shortest paths; the outer `k`
/// loop is sequential (one device launch per `k`), the inner N² update is
/// parallel. Primarily memory bound (§V-D).
pub struct FloydWarshall;

impl FloydWarshall {
    fn edge(n: usize) -> usize {
        edge(n, 1)
    }
}

impl KernelBase for FloydWarshall {
    fn info(&self) -> KernelInfo {
        info("Polybench_FLOYD_WARSHALL", Complexity::NSqrtN, 256 * 256)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        let ne = Self::edge(n) as f64;
        AnalyticMetrics {
            bytes_read: 8.0 * 3.0 * ne * ne * ne,
            bytes_written: 8.0 * ne * ne * ne,
            flops: ne * ne * ne, // the add; min is a compare
        }
    }

    fn shape(&self, n: usize, s: &mut ExecSignature) {
        let ne = Self::edge(n) as f64;
        s.cache_reuse = 0.55; // row k and column k stay hot
        s.branches = ne * ne * ne;
        s.branch_mispredict_rate = 0.1;
        s.kernel_launches = ne; // one launch per k
        s.flop_efficiency = 0.08;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let ne = Self::edge(n);
        let init: Vec<f64> = init_unit(ne * ne, 690).iter().map(|v| v * 100.0).collect();
        let mut paths = vec![0.0f64; ne * ne];
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            paths.copy_from_slice(&init);
            let pp = DevicePtr::new(&mut paths);
            for k in 0..ne {
                run_elementwise(variant, ne * ne, bs, |f| {
                    let (i, j) = (f / ne, f % ne);
                    // SAFETY: indices stay within the extents the device pointers/views were
                    // built from, and each parallel iterate touches a disjoint set of output
                    // elements, so writes never alias.
                    unsafe {
                        let via = pp.read(i * ne + k) + pp.read(k * ne + j);
                        if via < pp.read(i * ne + j) {
                            pp.write(i * ne + j, via);
                        }
                    }
                });
            }
        });
        (time, checksum(&paths))
    }
}

// ---------------------------------------------------------------------------
// HEAT_3D / JACOBI_1D / JACOBI_2D
// ---------------------------------------------------------------------------

/// `Polybench_HEAT_3D`: 3-D heat equation, second-order stencil,
/// ping-pong buffers.
pub struct Heat3d;

impl Heat3d {
    fn edge(n: usize) -> usize {
        ((n / 2) as f64).cbrt().floor().max(4.0) as usize
    }
}

impl KernelBase for Heat3d {
    fn info(&self) -> KernelInfo {
        info("Polybench_HEAT_3D", Complexity::N, 2 * 48 * 48 * 48)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        let e = Self::edge(n) as f64;
        let pts = (TSTEPS * 2) as f64 * (e - 2.0).powi(3);
        AnalyticMetrics {
            bytes_read: 8.0 * 7.0 * pts,
            bytes_written: 8.0 * pts,
            flops: 15.0 * pts,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        s.cache_reuse = 0.45; // plane reuse
        s.kernel_launches = (TSTEPS * 2) as f64;
        s.flop_efficiency = 0.3;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let e = Self::edge(n);
        let mut a = init_unit(e * e * e, 700);
        let mut b = vec![0.0f64; e * e * e];
        let bs = tuning.gpu_block_size;
        let inner = e - 2;
        let idx = |i: usize, j: usize, k: usize| (i * e + j) * e + k;
        let stencil = |src: &DevicePtr<f64>, dst: &DevicePtr<f64>, f: usize| {
            let i = 1 + f / (inner * inner);
            let j = 1 + (f / inner) % inner;
            let k = 1 + f % inner;
            // SAFETY: indices stay within the extents the device pointers/views were
            // built from, and each parallel iterate touches a disjoint set of output
            // elements, so writes never alias.
            unsafe {
                let c = src.read(idx(i, j, k));
                let v = 0.125 * (src.read(idx(i + 1, j, k)) - 2.0 * c + src.read(idx(i - 1, j, k)))
                    + 0.125 * (src.read(idx(i, j + 1, k)) - 2.0 * c + src.read(idx(i, j - 1, k)))
                    + 0.125 * (src.read(idx(i, j, k + 1)) - 2.0 * c + src.read(idx(i, j, k - 1)))
                    + c;
                dst.write(idx(i, j, k), v);
            }
        };
        let time = time_reps(reps, || {
            let ap = DevicePtr::new(&mut a);
            let bp = DevicePtr::new(&mut b);
            for _t in 0..TSTEPS {
                run_elementwise(variant, inner * inner * inner, bs, |f| stencil(&ap, &bp, f));
                run_elementwise(variant, inner * inner * inner, bs, |f| stencil(&bp, &ap, f));
            }
        });
        (time, checksum(&a))
    }
}

/// `Polybench_JACOBI_1D`: 3-point 1-D Jacobi relaxation, ping-pong.
pub struct Jacobi1d;

impl KernelBase for Jacobi1d {
    fn info(&self) -> KernelInfo {
        info("Polybench_JACOBI_1D", Complexity::N, 1_000_000)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        let e = (n / 2) as f64;
        let pts = (TSTEPS * 2) as f64 * (e - 2.0);
        AnalyticMetrics {
            bytes_read: 8.0 * 3.0 * pts,
            bytes_written: 8.0 * pts,
            flops: 3.0 * pts,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        s.cache_reuse = 0.4;
        s.kernel_launches = (TSTEPS * 2) as f64;
        s.flop_efficiency = 0.3;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let e = n / 2;
        let mut a = init_unit(e, 710);
        let mut b = vec![0.0f64; e];
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let ap = DevicePtr::new(&mut a);
            let bp = DevicePtr::new(&mut b);
            for _t in 0..TSTEPS {
                // SAFETY: indices stay within the extents the device pointers/views were
                // built from, and each parallel iterate touches a disjoint set of output
                // elements, so writes never alias.
                run_elementwise(variant, e - 2, bs, |f| unsafe {
                    let i = f + 1;
                    bp.write(
                        i,
                        0.33333 * (ap.read(i - 1) + ap.read(i) + ap.read(i + 1)),
                    );
                });
                // SAFETY: indices stay within the extents the device pointers/views were
                // built from, and each parallel iterate touches a disjoint set of output
                // elements, so writes never alias.
                run_elementwise(variant, e - 2, bs, |f| unsafe {
                    let i = f + 1;
                    ap.write(
                        i,
                        0.33333 * (bp.read(i - 1) + bp.read(i) + bp.read(i + 1)),
                    );
                });
            }
        });
        (time, checksum(&a))
    }
}

/// `Polybench_JACOBI_2D`: 5-point 2-D Jacobi relaxation, ping-pong.
pub struct Jacobi2d;

impl Jacobi2d {
    fn edge(n: usize) -> usize {
        edge(n, 2)
    }
}

impl KernelBase for Jacobi2d {
    fn info(&self) -> KernelInfo {
        info("Polybench_JACOBI_2D", Complexity::N, 2 * 360 * 360)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        let e = Self::edge(n) as f64;
        let pts = (TSTEPS * 2) as f64 * (e - 2.0) * (e - 2.0);
        AnalyticMetrics {
            bytes_read: 8.0 * 5.0 * pts,
            bytes_written: 8.0 * pts,
            flops: 5.0 * pts,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        s.cache_reuse = 0.4;
        s.kernel_launches = (TSTEPS * 2) as f64;
        s.flop_efficiency = 0.3;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let e = Self::edge(n);
        let mut a = init_unit(e * e, 720);
        let mut b = vec![0.0f64; e * e];
        let bs = tuning.gpu_block_size;
        let inner = e - 2;
        let step = |src: &DevicePtr<f64>, dst: &DevicePtr<f64>, f: usize| {
            let (i, j) = (1 + f / inner, 1 + f % inner);
            // SAFETY: indices stay within the extents the device pointers/views were
            // built from, and each parallel iterate touches a disjoint set of output
            // elements, so writes never alias.
            unsafe {
                dst.write(
                    i * e + j,
                    0.2 * (src.read(i * e + j)
                        + src.read(i * e + j - 1)
                        + src.read(i * e + j + 1)
                        + src.read((i - 1) * e + j)
                        + src.read((i + 1) * e + j)),
                );
            }
        };
        let time = time_reps(reps, || {
            let ap = DevicePtr::new(&mut a);
            let bp = DevicePtr::new(&mut b);
            for _t in 0..TSTEPS {
                run_elementwise(variant, inner * inner, bs, |f| step(&ap, &bp, f));
                run_elementwise(variant, inner * inner, bs, |f| step(&bp, &ap, f));
            }
        });
        (time, checksum(&a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_variants;

    // Small sizes keep the O(N^{3/2}) kernels fast under test.
    const N_MM: usize = 5 * 48 * 48;
    const N_MV: usize = 96 * 96;

    #[test]
    fn matmul_family_agrees() {
        verify_variants(&TwoMM, N_MM, 1e-10);
        verify_variants(&ThreeMM, 7 * 40 * 40, 1e-10);
        verify_variants(&Gemm, 3 * 48 * 48, 1e-10);
    }

    #[test]
    fn matvec_family_agrees() {
        verify_variants(&Atax, N_MV, 1e-10);
        verify_variants(&Gesummv, 2 * 64 * 64, 1e-10);
        verify_variants(&Gemver, N_MV, 1e-10);
        verify_variants(&Mvt, N_MV, 1e-10);
    }

    #[test]
    fn sweep_and_stencil_kernels_agree() {
        verify_variants(&Adi, 4 * 32 * 32, 1e-10);
        verify_variants(&Fdtd2d, 3 * 40 * 40, 1e-10);
        verify_variants(&FloydWarshall, 48 * 48, 1e-10);
        verify_variants(&Heat3d, 2 * 12 * 12 * 12, 1e-10);
        verify_variants(&Jacobi1d, 4000, 1e-10);
        verify_variants(&Jacobi2d, 2 * 48 * 48, 1e-10);
    }

    #[test]
    fn floyd_warshall_shrinks_paths() {
        let n = 32 * 32;
        let before: f64 = init_unit(32 * 32, 690).iter().map(|v| v * 100.0).sum();
        let r = FloydWarshall.execute(VariantId::BaseSeq, n, 1, &Tuning::default());
        // All-pairs relaxation can only decrease the (positively weighted)
        // path matrix.
        assert!(r.checksum < before * 2.0, "checksum is weighted; sanity only");
        let r2 = FloydWarshall.execute(VariantId::RajaSimGpu, n, 1, &Tuning::default());
        assert_eq!(r.checksum, r2.checksum, "min/add is exact");
    }

    #[test]
    fn gemm_matches_reference_values() {
        let ne = 8;
        let n = 3 * ne * ne;
        let r1 = Gemm.execute(VariantId::BaseSeq, n, 1, &Tuning::default());
        let r2 = Gemm.execute(VariantId::RajaPar, n, 1, &Tuning::default());
        assert_eq!(r1.checksum, r2.checksum);
    }

    #[test]
    fn matmul_flops_dominate_bytes() {
        let m = Gemm.metrics(3 * 256 * 256);
        assert!(m.flops_per_byte() > 10.0);
        let m = Gesummv.metrics(2 * 256 * 256);
        assert!(m.flops_per_byte() < 1.0, "matvec stays bandwidth-lean");
    }

    #[test]
    fn exception_kernels_have_poor_gpu_coalescing() {
        for k in [
            &Atax as &dyn KernelBase,
            &Gemver,
            &Gesummv,
            &Mvt,
            &Adi,
        ] {
            let s = k.signature(10_000);
            assert!(
                s.gpu_coalescing < 0.1,
                "{} should model uncoalesced access",
                k.info().name
            );
        }
    }
}
