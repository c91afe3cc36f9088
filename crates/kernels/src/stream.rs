//! Stream group: the five McCalpin STREAM kernels (ADD, COPY, DOT, MUL,
//! TRIAD).
//!
//! These are the canonical bandwidth-ceiling kernels: one or two reads and
//! one write per element with at most two FLOPs. The paper uses
//! `Stream_TRIAD` as the achieved-bandwidth yardstick of Table II and the
//! yellow reference line of Fig. 9; the whole group lands in the most
//! memory-bound cluster (Cluster 2) of §IV.

use crate::common::{checksum, init_unit};
use crate::{
    run_elementwise, time_reps, AnalyticMetrics, Feature, Group, KernelBase, KernelInfo,
    PaperModel, Tuning, VariantId, ALL_VARIANTS,
};
use perfmodel::{Complexity, ExecSignature};
use raja::policy::{ParExec, SeqExec, SimGpuExec};
use raja::DevicePtr;
use rayon::prelude::*;
use std::time::Duration;

/// Register the Stream kernels in Table I order.
pub fn register(v: &mut Vec<Box<dyn KernelBase>>) {
    v.push(Box::new(Add));
    v.push(Box::new(Copy));
    v.push(Box::new(Dot));
    v.push(Box::new(Mul));
    v.push(Box::new(Triad));
}

const STREAM_MODELS: &[PaperModel] = &[
    PaperModel::Seq,
    PaperModel::OpenMp,
    PaperModel::OmpTarget,
    PaperModel::Cuda,
    PaperModel::Hip,
    PaperModel::Sycl,
    PaperModel::Kokkos,
];

fn stream_info(name: &'static str, features: &'static [Feature]) -> KernelInfo {
    KernelInfo {
        name,
        group: Group::Stream,
        features,
        complexity: Complexity::N,
        default_size: 1_000_000,
        default_reps: 50,
        paper_models: STREAM_MODELS,
        variants: ALL_VARIANTS,
    }
}

fn stream_signature(s: &mut ExecSignature) {
    // Pure streaming: no reuse, tiny vectorizable body.
    s.cache_reuse = 0.0;
    s.icache_pressure = 0.02;
    s.flop_efficiency = 0.30;
}

/// `Stream_ADD`: `c[i] = a[i] + b[i]`.
pub struct Add;

impl KernelBase for Add {
    fn info(&self) -> KernelInfo {
        stream_info("Stream_ADD", &[Feature::Forall])
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 16.0 * n as f64,
            bytes_written: 8.0 * n as f64,
            flops: n as f64,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        stream_signature(s);
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let a = init_unit(n, 101);
        let b = init_unit(n, 102);
        let mut c = vec![0.0f64; n];
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || match variant {
            VariantId::BaseSeq => {
                for i in 0..n {
                    c[i] = a[i] + b[i];
                }
            }
            VariantId::BasePar => {
                c.par_iter_mut()
                    .enumerate()
                    .for_each(|(i, ci)| *ci = a[i] + b[i]);
            }
            _ => {
                let cp = DevicePtr::new(&mut c);
                // SAFETY: the index is in bounds of the allocation the pointer was built
                // from, and each parallel iterate writes a distinct element, so writes
                // never alias.
                run_elementwise(variant, n, bs, |i| unsafe { cp.write(i, a[i] + b[i]) });
            }
        });
        (time, checksum(&c))
    }
}

/// `Stream_COPY`: `c[i] = a[i]`.
pub struct Copy;

impl KernelBase for Copy {
    fn info(&self) -> KernelInfo {
        stream_info("Stream_COPY", &[Feature::Forall])
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 8.0 * n as f64,
            bytes_written: 8.0 * n as f64,
            flops: 0.0,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        stream_signature(s);
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let a = init_unit(n, 111);
        let mut c = vec![0.0f64; n];
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || match variant {
            VariantId::BaseSeq => {
                for i in 0..n {
                    c[i] = a[i];
                }
            }
            VariantId::BasePar => {
                c.par_iter_mut().enumerate().for_each(|(i, ci)| *ci = a[i]);
            }
            _ => {
                let cp = DevicePtr::new(&mut c);
                // SAFETY: the index is in bounds of the allocation the pointer was built
                // from, and each parallel iterate writes a distinct element, so writes
                // never alias.
                run_elementwise(variant, n, bs, |i| unsafe { cp.write(i, a[i]) });
            }
        });
        (time, checksum(&c))
    }
}

/// `Stream_DOT`: `dot += a[i] * b[i]` — the group's reduction kernel.
pub struct Dot;

impl KernelBase for Dot {
    fn info(&self) -> KernelInfo {
        stream_info("Stream_DOT", &[Feature::Forall, Feature::Reduction])
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 16.0 * n as f64,
            bytes_written: 0.0,
            flops: 2.0 * n as f64,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        stream_signature(s);
        // The dependent accumulation chain limits retire before the read
        // stream saturates (this is the one Stream kernel the paper's
        // clustering separates from the pure-bandwidth four).
        s.flop_efficiency = 0.08;
        s.int_ops_per_iter = 8.0;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let a = init_unit(n, 121);
        let b = init_unit(n, 122);
        let mut dot = 0.0f64;
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            dot = match variant {
                VariantId::BaseSeq => {
                    let mut acc = 0.0;
                    for i in 0..n {
                        acc += a[i] * b[i];
                    }
                    acc
                }
                VariantId::BasePar => (0..n).into_par_iter().map(|i| a[i] * b[i]).sum(),
                VariantId::BaseSimGpu => {
                    // Two-stage device reduction written directly.
                    let nblocks = n.div_ceil(bs).max(1);
                    let mut partials = vec![0.0f64; nblocks];
                    let pp = DevicePtr::new(&mut partials);
                    let cfg = gpusim::LaunchConfig::linear(n, bs);
                    gpusim::launch(&cfg, |block| {
                        let bx = block.block_idx.x;
                        let mut acc = 0.0;
                        block.threads(|t, _| {
                            let i = t.global_id_x();
                            if i < n {
                                acc += a[i] * b[i];
                            }
                        });
                        // SAFETY: the index is in bounds of the allocation the pointer was built
                        // from, and each parallel iterate writes a distinct element, so writes
                        // never alias.
                        unsafe { pp.write(bx, acc) };
                    });
                    partials.iter().sum()
                }
                VariantId::RajaSeq => raja::reduce::reduce_sum(SeqExec, 0..n, |i| a[i] * b[i]),
                VariantId::RajaPar => raja::reduce::reduce_sum(ParExec, 0..n, |i| a[i] * b[i]),
                VariantId::RajaSimGpu => {
                    raja::reduce::reduce_sum(SimGpuExec::new(bs), 0..n, |i| a[i] * b[i])
                }
            };
        });
        (time, dot)
    }
}

/// `Stream_MUL`: `b[i] = alpha * c[i]`.
pub struct Mul;

impl KernelBase for Mul {
    fn info(&self) -> KernelInfo {
        stream_info("Stream_MUL", &[Feature::Forall])
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 8.0 * n as f64,
            bytes_written: 8.0 * n as f64,
            flops: n as f64,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        stream_signature(s);
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let c = init_unit(n, 131);
        let mut b = vec![0.0f64; n];
        let alpha = 0.3;
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || match variant {
            VariantId::BaseSeq => {
                for i in 0..n {
                    b[i] = alpha * c[i];
                }
            }
            VariantId::BasePar => {
                b.par_iter_mut()
                    .enumerate()
                    .for_each(|(i, bi)| *bi = alpha * c[i]);
            }
            _ => {
                let bp = DevicePtr::new(&mut b);
                // SAFETY: the index is in bounds of the allocation the pointer was built
                // from, and each parallel iterate writes a distinct element, so writes
                // never alias.
                run_elementwise(variant, n, bs, |i| unsafe { bp.write(i, alpha * c[i]) });
            }
        });
        (time, checksum(&b))
    }
}

/// `Stream_TRIAD`: `a[i] = b[i] + alpha * c[i]` — the paper's bandwidth
/// yardstick.
pub struct Triad;

impl KernelBase for Triad {
    fn info(&self) -> KernelInfo {
        stream_info("Stream_TRIAD", &[Feature::Forall])
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 16.0 * n as f64,
            bytes_written: 8.0 * n as f64,
            flops: 2.0 * n as f64,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        stream_signature(s);
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let b = init_unit(n, 141);
        let c = init_unit(n, 142);
        let mut a = vec![0.0f64; n];
        let alpha = 0.3;
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || match variant {
            VariantId::BaseSeq => {
                for i in 0..n {
                    a[i] = b[i] + alpha * c[i];
                }
            }
            VariantId::BasePar => {
                a.par_iter_mut()
                    .enumerate()
                    .for_each(|(i, ai)| *ai = b[i] + alpha * c[i]);
            }
            _ => {
                let ap = DevicePtr::new(&mut a);
                // SAFETY: the index is in bounds of the allocation the pointer was built
                // from, and each parallel iterate writes a distinct element, so writes
                // never alias.
                run_elementwise(variant, n, bs, |i| unsafe {
                    ap.write(i, b[i] + alpha * c[i])
                });
            }
        });
        (time, checksum(&a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_variants;

    const N: usize = 4000;

    #[test]
    fn add_variants_agree() {
        verify_variants(&Add, N, 1e-12);
    }

    #[test]
    fn copy_variants_agree() {
        verify_variants(&Copy, N, 1e-12);
    }

    #[test]
    fn dot_variants_agree() {
        // Reductions reassociate; allow FP noise.
        verify_variants(&Dot, N, 1e-10);
    }

    #[test]
    fn mul_variants_agree() {
        verify_variants(&Mul, N, 1e-12);
    }

    #[test]
    fn triad_variants_agree() {
        verify_variants(&Triad, N, 1e-12);
    }

    #[test]
    fn triad_computes_the_right_values() {
        let r = Triad.execute(VariantId::BaseSeq, 16, 1, &Tuning::default());
        // Reference: recompute by hand.
        let b = init_unit(16, 141);
        let c = init_unit(16, 142);
        let expect: Vec<f64> = (0..16).map(|i| b[i] + 0.3 * c[i]).collect();
        assert!(crate::common::close(r.checksum, checksum(&expect), 1e-15));
    }

    #[test]
    fn dot_matches_analytic_value() {
        let n = 1000;
        let a = init_unit(n, 121);
        let b = init_unit(n, 122);
        let expect: f64 = (0..n).map(|i| a[i] * b[i]).sum();
        let r = Dot.execute(VariantId::RajaPar, n, 1, &Tuning::default());
        assert!(crate::common::close(r.checksum, expect, 1e-10));
    }

    #[test]
    fn metrics_match_stream_byte_counts() {
        let n = 100;
        assert_eq!(Triad.metrics(n).bytes_read, 1600.0);
        assert_eq!(Triad.metrics(n).bytes_written, 800.0);
        assert_eq!(Triad.metrics(n).flops, 200.0);
        assert_eq!(Copy.metrics(n).flops, 0.0);
        assert_eq!(Dot.metrics(n).bytes_written, 0.0);
    }

    #[test]
    fn reps_scale_time_not_checksum() {
        let t = Tuning::default();
        let r1 = Add.execute(VariantId::BaseSeq, N, 1, &t);
        let r3 = Add.execute(VariantId::BaseSeq, N, 3, &t);
        assert_eq!(r1.checksum, r3.checksum, "idempotent kernel");
        assert_eq!(r3.reps, 3);
    }
}
