//! Lcals group: 11 kernels from the Livermore Loops / LCALS suite.
//!
//! The Livermore Fortran Kernels were designed to probe compiler
//! vectorization; LCALS translated them to C++ (with the templates and
//! lambdas RAJA relies on). They are short, regular, bandwidth-hungry
//! loops — the paper's clustering puts nearly all of them in the most
//! memory-bound cluster (Cluster 2), except `FIRST_MIN`, whose scalar
//! compare/select chain splits between retiring and frontend bound (§V-B).

use crate::common::{checksum, init_unit, square_edge};
use crate::{
    run_elementwise, time_reps, AnalyticMetrics, Feature, Group, KernelBase, KernelInfo,
    PaperModel, Tuning, VariantId, ALL_VARIANTS,
};
use perfmodel::{Complexity, ExecSignature};
use raja::policy::{ParExec, SeqExec};
use raja::DevicePtr;
use rayon::prelude::*;
use std::time::Duration;

/// Register the Lcals kernels in Table I order.
pub fn register(v: &mut Vec<Box<dyn KernelBase>>) {
    v.push(Box::new(DiffPredict));
    v.push(Box::new(Eos));
    v.push(Box::new(FirstDiff));
    v.push(Box::new(FirstMin));
    v.push(Box::new(FirstSum));
    v.push(Box::new(GenLinRecur));
    v.push(Box::new(Hydro1d));
    v.push(Box::new(Hydro2d));
    v.push(Box::new(IntPredict));
    v.push(Box::new(Planckian));
    v.push(Box::new(TridiagElim));
}

const MODELS: &[PaperModel] = &[
    PaperModel::Seq,
    PaperModel::OpenMp,
    PaperModel::OmpTarget,
    PaperModel::Cuda,
    PaperModel::Hip,
    PaperModel::Sycl,
];

fn info(name: &'static str, default_reps: usize) -> KernelInfo {
    KernelInfo {
        name,
        group: Group::Lcals,
        features: &[Feature::Forall],
        complexity: Complexity::N,
        default_size: 1_000_000,
        default_reps,
        paper_models: MODELS,
        variants: ALL_VARIANTS,
    }
}

/// Planes in the `DIFF_PREDICT`/`INT_PREDICT` state arrays.
const PLANES: usize = 14;

/// `Lcals_DIFF_PREDICT`: difference-predictor chain across 10 state planes
/// (Livermore kernel 17 structure).
pub struct DiffPredict;

impl DiffPredict {
    #[inline]
    fn body(i: usize, n: usize, px: &DevicePtr<f64>, cx: &[f64]) {
        // SAFETY: indices stay within the extents the device pointers/views were
        // built from, and each parallel iterate touches a disjoint set of output
        // elements, so writes never alias.
        unsafe {
            let ar = cx[4 * n + i];
            let br = ar - px.read(4 * n + i);
            px.write(4 * n + i, ar);
            let cr = br - px.read(5 * n + i);
            px.write(5 * n + i, br);
            let ar = cr - px.read(6 * n + i);
            px.write(6 * n + i, cr);
            let br = ar - px.read(7 * n + i);
            px.write(7 * n + i, ar);
            let cr = br - px.read(8 * n + i);
            px.write(8 * n + i, br);
            let ar = cr - px.read(9 * n + i);
            px.write(9 * n + i, cr);
            let br = ar - px.read(10 * n + i);
            px.write(10 * n + i, ar);
            let cr = br - px.read(11 * n + i);
            px.write(11 * n + i, br);
            px.write(13 * n + i, cr - px.read(12 * n + i));
            px.write(12 * n + i, cr);
        }
    }
}

impl KernelBase for DiffPredict {
    fn info(&self) -> KernelInfo {
        info("Lcals_DIFF_PREDICT", 30)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 10.0 * 8.0 * n as f64,
            bytes_written: 10.0 * 8.0 * n as f64,
            flops: 9.0 * n as f64,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        s.flop_efficiency = 0.3;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let mut px = init_unit(PLANES * n, 400);
        let cx = init_unit(PLANES * n, 401);
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let pp = DevicePtr::new(&mut px);
            run_elementwise(variant, n, bs, |i| Self::body(i, n, &pp, &cx));
        });
        (time, checksum(&px))
    }
}

/// `Lcals_EOS`: equation-of-state fragment (Livermore kernel 7) — a wide
/// FMA expression over a shifted window of `u`.
pub struct Eos;

impl KernelBase for Eos {
    fn info(&self) -> KernelInfo {
        info("Lcals_EOS", 40)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 8.0 * 9.0 * n as f64, // y, z, u[i..i+7]
            bytes_written: 8.0 * n as f64,
            flops: 16.0 * n as f64,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        // Shifted-window reads hit cache lines repeatedly.
        s.cache_reuse = 0.5;
        s.flop_efficiency = 0.35;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let y = init_unit(n, 410);
        let z = init_unit(n, 411);
        let u = init_unit(n + 7, 412);
        let mut x = vec![0.0f64; n];
        let (q, r, t) = (0.5, 0.2, 0.1);
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let xp = DevicePtr::new(&mut x);
            // SAFETY: indices stay within the extents the device pointers/views were
            // built from, and each parallel iterate touches a disjoint set of output
            // elements, so writes never alias.
            run_elementwise(variant, n, bs, |i| unsafe {
                xp.write(
                    i,
                    u[i] + r * (z[i] + r * y[i])
                        + t * (u[i + 3]
                            + r * (u[i + 2] + r * u[i + 1])
                            + t * (u[i + 6] + q * (u[i + 5] + q * u[i + 4]))),
                );
            });
        });
        (time, checksum(&x))
    }
}

/// `Lcals_FIRST_DIFF`: forward difference `x[i] = y[i+1] − y[i]`.
pub struct FirstDiff;

impl KernelBase for FirstDiff {
    fn info(&self) -> KernelInfo {
        info("Lcals_FIRST_DIFF", 50)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 16.0 * n as f64,
            bytes_written: 8.0 * n as f64,
            flops: n as f64,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        s.flop_efficiency = 0.3;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let y = init_unit(n + 1, 420);
        let mut x = vec![0.0f64; n];
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let xp = DevicePtr::new(&mut x);
            // SAFETY: indices stay within the extents the device pointers/views were
            // built from, and each parallel iterate touches a disjoint set of output
            // elements, so writes never alias.
            run_elementwise(variant, n, bs, |i| unsafe {
                xp.write(i, y[i + 1] - y[i]);
            });
        });
        (time, checksum(&x))
    }
}

/// `Lcals_FIRST_MIN`: value and location of the first minimum — a
/// loop-carried compare/select chain (min-with-location reduction).
pub struct FirstMin;

impl KernelBase for FirstMin {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            features: &[Feature::Forall, Feature::Reduction],
            ..info("Lcals_FIRST_MIN", 30)
        }
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 8.0 * n as f64,
            bytes_written: 16.0,
            flops: 0.0,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        // The compare/select/location chain serializes and defeats
        // vectorization: the paper finds this kernel split ~half/half
        // between retiring and frontend bound.
        s.flop_efficiency = 0.0;
        s.int_ops_per_iter = 12.0;
        s.icache_pressure = 0.45;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let x = init_unit(n, 440);
        let mut out = raja::reduce::ValLoc {
            val: f64::INFINITY,
            loc: usize::MAX,
        };
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            out = match variant {
                VariantId::BaseSeq => {
                    let mut best = raja::reduce::ValLoc {
                        val: f64::INFINITY,
                        loc: usize::MAX,
                    };
                    for (i, &v) in x.iter().enumerate() {
                        if v < best.val {
                            best = raja::reduce::ValLoc { val: v, loc: i };
                        }
                    }
                    best
                }
                VariantId::BasePar => {
                    let (val, loc) = (0..n)
                        .into_par_iter()
                        .map(|i| (x[i], i))
                        .reduce(
                            || (f64::INFINITY, usize::MAX),
                            |a, b| {
                                if b.0 < a.0 || (b.0 == a.0 && b.1 < a.1) {
                                    b
                                } else {
                                    a
                                }
                            },
                        );
                    raja::reduce::ValLoc { val, loc }
                }
                VariantId::RajaSeq => raja::reduce::reduce_min_loc::<SeqExec>(0..n, |i| x[i]),
                VariantId::RajaPar => raja::reduce::reduce_min_loc::<ParExec>(0..n, |i| x[i]),
                VariantId::BaseSimGpu | VariantId::RajaSimGpu => {
                    crate::dispatch_gpu_block!(bs, P, {
                        raja::reduce::reduce_min_loc::<P>(0..n, |i| x[i])
                    })
                }
            };
        });
        (time, out.val + out.loc as f64)
    }
}

/// `Lcals_FIRST_SUM`: running pairwise sum `x[i] = y[i−1] + y[i]`.
pub struct FirstSum;

impl KernelBase for FirstSum {
    fn info(&self) -> KernelInfo {
        info("Lcals_FIRST_SUM", 50)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 16.0 * n as f64,
            bytes_written: 8.0 * n as f64,
            flops: n as f64,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        s.flop_efficiency = 0.3;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let y = init_unit(n, 430);
        let mut x = vec![0.0f64; n];
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let xp = DevicePtr::new(&mut x);
            // SAFETY: the index is in bounds of the allocation the pointer was built
            // from, and each parallel iterate writes a distinct element, so writes
            // never alias.
            unsafe { xp.write(0, y[0]) };
            run_elementwise(variant, n - 1, bs, |j| {
                let i = j + 1;
                // SAFETY: the index is in bounds of the allocation the pointer was built
                // from, and each parallel iterate writes a distinct element, so writes
                // never alias.
                unsafe { xp.write(i, y[i - 1] + y[i]) };
            });
        });
        (time, checksum(&x))
    }
}

/// `Lcals_GEN_LIN_RECUR`: general linear recurrence (Livermore kernel 19),
/// array-expanded (`stb5` is a per-element array, as upstream) so both
/// passes are parallel.
pub struct GenLinRecur;

impl KernelBase for GenLinRecur {
    fn info(&self) -> KernelInfo {
        info("Lcals_GEN_LIN_RECUR", 30)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 2.0 * 3.0 * 8.0 * n as f64, // sa, sb, stb5 in both passes
            bytes_written: 2.0 * 2.0 * 8.0 * n as f64, // b5, stb5 in both passes
            flops: 2.0 * 3.0 * n as f64,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        s.flop_efficiency = 0.3;
        s.kernel_launches = 2.0;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let sa = init_unit(n, 450);
        let sb = init_unit(n, 451);
        let mut b5 = vec![0.0f64; n];
        let mut stb5 = init_unit(n, 452);
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let bp = DevicePtr::new(&mut b5);
            let sp = DevicePtr::new(&mut stb5);
            // Forward pass.
            // SAFETY: indices stay within the extents the device pointers/views were
            // built from, and each parallel iterate touches a disjoint set of output
            // elements, so writes never alias.
            run_elementwise(variant, n, bs, |k| unsafe {
                let v = sa[k] + sp.read(k) * sb[k];
                bp.write(k, v);
                sp.write(k, v - sp.read(k));
            });
            // Backward pass (reversed index, same update).
            // SAFETY: indices stay within the extents the device pointers/views were
            // built from, and each parallel iterate touches a disjoint set of output
            // elements, so writes never alias.
            run_elementwise(variant, n, bs, |i| unsafe {
                let k = n - 1 - i;
                let v = sa[k] + sp.read(k) * sb[k];
                bp.write(k, v);
                sp.write(k, v - sp.read(k));
            });
        });
        (time, checksum(&b5) + checksum(&stb5))
    }
}

/// `Lcals_HYDRO_1D`: 1-D hydrodynamics fragment (Livermore kernel 1).
pub struct Hydro1d;

impl KernelBase for Hydro1d {
    fn info(&self) -> KernelInfo {
        info("Lcals_HYDRO_1D", 50)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 24.0 * n as f64,
            bytes_written: 8.0 * n as f64,
            flops: 5.0 * n as f64,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        s.flop_efficiency = 0.3;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let y = init_unit(n, 460);
        let z = init_unit(n + 12, 461);
        let mut x = vec![0.0f64; n];
        let (q, r, t) = (0.5, 0.2, 0.1);
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let xp = DevicePtr::new(&mut x);
            // SAFETY: indices stay within the extents the device pointers/views were
            // built from, and each parallel iterate touches a disjoint set of output
            // elements, so writes never alias.
            run_elementwise(variant, n, bs, |i| unsafe {
                xp.write(i, q + y[i] * (r * z[i + 10] + t * z[i + 11]));
            });
        });
        (time, checksum(&x))
    }
}

/// `Lcals_HYDRO_2D`: 2-D hydrodynamics fragment (Livermore kernel 18) —
/// three sub-loops of stencil updates over seven state arrays.
pub struct Hydro2d;

impl Hydro2d {
    fn edge(n: usize) -> usize {
        square_edge(n).max(4)
    }
}

impl KernelBase for Hydro2d {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            features: &[Feature::Kernel],
            ..info("Lcals_HYDRO_2D", 10)
        }
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        let e = Self::edge(n) as f64;
        let pts = (e - 2.0) * (e - 2.0);
        AnalyticMetrics {
            bytes_read: 8.0 * 18.0 * pts,
            bytes_written: 8.0 * 6.0 * pts,
            flops: 22.0 * pts,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        s.flop_efficiency = 0.3;
        s.cache_reuse = 0.35; // stencil row reuse
        s.kernel_launches = 3.0;
        s.icache_pressure = 0.15;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let e = Self::edge(n);
        let idx = |k: usize, j: usize| k * e + j;
        let za_in = init_unit(e * e, 470);
        let zb_in = init_unit(e * e, 471);
        let zm = init_unit(e * e, 472);
        let zp = init_unit(e * e, 473);
        let zq = init_unit(e * e, 474);
        let mut zu = vec![0.0f64; e * e];
        let mut zv = vec![0.0f64; e * e];
        let mut zr = init_unit(e * e, 475);
        let mut zz = init_unit(e * e, 476);
        let (s, t) = (0.0041, 0.0037);
        let bs = tuning.gpu_block_size;
        let inner = e - 2;

        let time = time_reps(reps, || {
            let zup = DevicePtr::new(&mut zu);
            let zvp = DevicePtr::new(&mut zv);
            let zrp = DevicePtr::new(&mut zr);
            let zzp = DevicePtr::new(&mut zz);
            // Sub-loop 1: first component from vertical/horizontal stencil.
            run_elementwise(variant, inner * inner, bs, |f| {
                let (k, j) = (1 + f / inner, 1 + f % inner);
                let a = (za_in[idx(k + 1, j)] + za_in[idx(k - 1, j)]) * zp[idx(k, j)];
                let b = (zb_in[idx(k, j + 1)] + zb_in[idx(k, j - 1)]) * zq[idx(k, j)];
                // SAFETY: the index is in bounds of the allocation the pointer was built
                // from, and each parallel iterate writes a distinct element, so writes
                // never alias.
                unsafe { zup.write(idx(k, j), a - b) };
            });
            // Sub-loop 2: second component.
            run_elementwise(variant, inner * inner, bs, |f| {
                let (k, j) = (1 + f / inner, 1 + f % inner);
                let a = (za_in[idx(k, j + 1)] - za_in[idx(k, j - 1)]) * zm[idx(k, j)];
                let b = (zb_in[idx(k + 1, j)] - zb_in[idx(k - 1, j)]) * zm[idx(k, j)];
                // SAFETY: the index is in bounds of the allocation the pointer was built
                // from, and each parallel iterate writes a distinct element, so writes
                // never alias.
                unsafe { zvp.write(idx(k, j), a + b) };
            });
            // Sub-loop 3: time advance.
            run_elementwise(variant, inner * inner, bs, |f| {
                let (k, j) = (1 + f / inner, 1 + f % inner);
                // SAFETY: indices stay within the extents the device pointers/views were
                // built from, and each parallel iterate touches a disjoint set of output
                // elements, so writes never alias.
                unsafe {
                    zrp.write(idx(k, j), zrp.read(idx(k, j)) + t * zup.read(idx(k, j)) * s);
                    zzp.write(idx(k, j), zzp.read(idx(k, j)) + t * zvp.read(idx(k, j)) * s);
                }
            });
        });
        (time, checksum(&zr) + checksum(&zz))
    }
}

/// `Lcals_INT_PREDICT`: integrate-predictor polynomial over plane-strided
/// state (Livermore kernel 16).
pub struct IntPredict;

impl KernelBase for IntPredict {
    fn info(&self) -> KernelInfo {
        info("Lcals_INT_PREDICT", 40)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 8.0 * 10.0 * n as f64,
            bytes_written: 8.0 * n as f64,
            flops: 17.0 * n as f64,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        s.flop_efficiency = 0.35;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let mut px = init_unit(PLANES * n, 480);
        let dm: [f64; 7] = [0.1, 0.11, 0.12, 0.13, 0.14, 0.15, 0.16];
        let (c0, t) = (0.5, 0.02);
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let pp = DevicePtr::new(&mut px);
            // SAFETY: indices stay within the extents the device pointers/views were
            // built from; the accesses are reads.
            run_elementwise(variant, n, bs, |i| unsafe {
                let v = dm[6] * pp.read(12 * n + i)
                    + dm[5] * pp.read(11 * n + i)
                    + dm[4] * pp.read(10 * n + i)
                    + dm[3] * pp.read(9 * n + i)
                    + dm[2] * pp.read(8 * n + i)
                    + dm[1] * pp.read(7 * n + i)
                    + dm[0] * pp.read(6 * n + i)
                    + c0 * (pp.read(4 * n + i) + pp.read(5 * n + i))
                    + t * pp.read(2 * n + i);
                pp.write(i, v);
            });
        });
        (time, checksum(&px[..n]))
    }
}

/// `Lcals_PLANCKIAN`: Planckian distribution (Livermore kernel 22) — the
/// group's transcendental-function kernel.
pub struct Planckian;

impl KernelBase for Planckian {
    fn info(&self) -> KernelInfo {
        info("Lcals_PLANCKIAN", 30)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 24.0 * n as f64,
            bytes_written: 16.0 * n as f64,
            flops: 4.0 * n as f64, // div, exp (counted once), sub, div
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        // exp() expands to a polynomial-evaluation call: many extra μops.
        s.int_ops_per_iter = 12.0;
        s.flop_efficiency = 0.1;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let u = init_unit(n, 490);
        let v: Vec<f64> = init_unit(n, 491).iter().map(|x| x + 0.5).collect();
        let x = init_unit(n, 492);
        let mut y = vec![0.0f64; n];
        let mut w = vec![0.0f64; n];
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let yp = DevicePtr::new(&mut y);
            let wp = DevicePtr::new(&mut w);
            // SAFETY: indices stay within the extents the device pointers/views were
            // built from, and each parallel iterate touches a disjoint set of output
            // elements, so writes never alias.
            run_elementwise(variant, n, bs, |i| unsafe {
                let yi = u[i] / v[i];
                yp.write(i, yi);
                wp.write(i, x[i] / (yi.exp() - 1.0));
            });
        });
        (time, checksum(&w) + checksum(&y))
    }
}

/// `Lcals_TRIDIAG_ELIM`: tridiagonal elimination step (Livermore kernel 5)
/// with separate input/output vectors so the loop is parallel.
pub struct TridiagElim;

impl KernelBase for TridiagElim {
    fn info(&self) -> KernelInfo {
        info("Lcals_TRIDIAG_ELIM", 50)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 24.0 * n as f64,
            bytes_written: 8.0 * n as f64,
            flops: 2.0 * n as f64,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        s.flop_efficiency = 0.3;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let xin = init_unit(n, 500);
        let y = init_unit(n, 501);
        let z = init_unit(n, 502);
        let mut xout = vec![0.0f64; n];
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            let xp = DevicePtr::new(&mut xout);
            run_elementwise(variant, n - 1, bs, |j| {
                let i = j + 1;
                // SAFETY: the index is in bounds of the allocation the pointer was built
                // from, and each parallel iterate writes a distinct element, so writes
                // never alias.
                unsafe { xp.write(i, z[i] * (y[i] - xin[i - 1])) };
            });
        });
        (time, checksum(&xout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_variants;

    const N: usize = 4000;

    #[test]
    fn elementwise_lcals_agree() {
        verify_variants(&DiffPredict, N, 1e-12);
        verify_variants(&Eos, N, 1e-12);
        verify_variants(&FirstDiff, N, 1e-12);
        verify_variants(&FirstSum, N, 1e-12);
        verify_variants(&GenLinRecur, N, 1e-12);
        verify_variants(&Hydro1d, N, 1e-12);
        verify_variants(&Hydro2d, N, 1e-12);
        verify_variants(&IntPredict, N, 1e-12);
        verify_variants(&Planckian, N, 1e-12);
        verify_variants(&TridiagElim, N, 1e-12);
    }

    #[test]
    fn first_min_variants_agree() {
        verify_variants(&FirstMin, N, 1e-12);
    }

    #[test]
    fn first_min_finds_global_minimum() {
        let n = 20_000;
        let x = init_unit(n, 440);
        let lo = x.iter().cloned().fold(f64::INFINITY, f64::min);
        let loc = x.iter().position(|&v| v == lo).unwrap();
        let r = FirstMin.execute(VariantId::RajaSimGpu, n, 1, &Tuning::default());
        assert_eq!(r.checksum, lo + loc as f64);
    }

    #[test]
    fn first_diff_matches_reference() {
        let n = 1000;
        let y = init_unit(n + 1, 420);
        let expect: Vec<f64> = (0..n).map(|i| y[i + 1] - y[i]).collect();
        let r = FirstDiff.execute(VariantId::RajaPar, n, 1, &Tuning::default());
        assert_eq!(r.checksum, checksum(&expect));
    }

    #[test]
    fn tridiag_skips_first_element() {
        let r = TridiagElim.execute(VariantId::BaseSeq, 10, 1, &Tuning::default());
        let xin = init_unit(10, 500);
        let y = init_unit(10, 501);
        let z = init_unit(10, 502);
        let mut expect = vec![0.0; 10];
        for i in 1..10 {
            expect[i] = z[i] * (y[i] - xin[i - 1]);
        }
        assert_eq!(r.checksum, checksum(&expect));
    }

    #[test]
    fn hydro2d_device_matches_host() {
        let r1 = Hydro2d.execute(VariantId::BaseSeq, 10_000, 1, &Tuning::default());
        let r2 = Hydro2d.execute(VariantId::RajaSimGpu, 10_000, 1, &Tuning::default());
        assert!(crate::common::close(r1.checksum, r2.checksum, 1e-12));
    }

    #[test]
    fn lcals_kernels_are_memory_lean_on_flops() {
        // The group is bandwidth-heavy: flops per byte < 1 for all these.
        for k in [
            &DiffPredict as &dyn KernelBase,
            &Eos,
            &FirstDiff,
            &FirstSum,
            &Hydro1d,
            &TridiagElim,
        ] {
            assert!(k.metrics(1000).flops_per_byte() < 1.0, "{}", k.info().name);
        }
    }
}
