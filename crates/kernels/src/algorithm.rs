//! Algorithm group: kernels exercising specific parallel constructs —
//! atomics, histograms, memory operations, reductions, scans, and sorts
//! (Table I "Algorithms").
//!
//! These are the kernels whose *construct*, not arithmetic, defines the
//! bottleneck: the paper's §III-A uses `SCAN` as the flagship
//! memory-bound-on-DDR example and `REDUCE_SUM` as the example whose
//! bottleneck is not bandwidth.

use crate::common::{checksum, checksum_unweighted, init_signed, init_unit};
use crate::{
    run_elementwise, time_reps, AnalyticMetrics, Feature, Group, KernelBase, KernelInfo,
    PaperModel, Tuning, VariantId, ALL_VARIANTS,
};
use perfmodel::{Complexity, ExecSignature};
use raja::atomic::as_atomic_slice;
use raja::policy::{ParExec, SeqExec};
use raja::DevicePtr;
use rayon::prelude::*;
use std::time::Duration;

/// Register the Algorithm kernels in Table I order.
pub fn register(v: &mut Vec<Box<dyn KernelBase>>) {
    v.push(Box::new(Atomic));
    v.push(Box::new(Histogram));
    v.push(Box::new(Memcpy));
    v.push(Box::new(Memset));
    v.push(Box::new(ReduceSum));
    v.push(Box::new(Scan));
    v.push(Box::new(Sort));
    v.push(Box::new(SortPairs));
}

const MODELS: &[PaperModel] = &[
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
    complexity: Complexity,
    default_reps: usize,
) -> KernelInfo {
    KernelInfo {
        name,
        group: Group::Algorithm,
        features,
        complexity,
        default_size: 1_000_000,
        default_reps,
        paper_models: MODELS,
        variants: ALL_VARIANTS,
    }
}

// ---------------------------------------------------------------------------
// ATOMIC
// ---------------------------------------------------------------------------

/// Replication factor for `Algorithm_ATOMIC` (upstream spreads the counter
/// over a small array to expose contention levels).
pub const ATOMIC_REPLICATION: usize = 4096;

/// `Algorithm_ATOMIC`: every iteration atomically accumulates into a slot
/// of a small replicated counter array.
pub struct Atomic;

impl KernelBase for Atomic {
    fn info(&self) -> KernelInfo {
        info(
            "Algorithm_ATOMIC",
            &[Feature::Forall, Feature::Atomic],
            Complexity::N,
            20,
        )
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 0.0,
            bytes_written: 8.0 * ATOMIC_REPLICATION.min(n) as f64,
            flops: n as f64,
        }
    }

    fn shape(&self, n: usize, s: &mut ExecSignature) {
        s.atomics = n as f64;
        // 4096-way replication spreads the contention thin.
        s.atomic_contention = 0.1;
        s.flop_efficiency = 0.05;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let repl = ATOMIC_REPLICATION.min(n);
        let mut counters = vec![0.0f64; repl];
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            counters.fill(0.0);
            let atoms = as_atomic_slice(&mut counters);
            run_elementwise(variant, n, bs, |i| {
                atoms[i % repl].fetch_add(1.0);
            });
        });
        (time, checksum_unweighted(&counters))
    }
}

// ---------------------------------------------------------------------------
// HISTOGRAM
// ---------------------------------------------------------------------------

/// Bin count for `Algorithm_HISTOGRAM`.
pub const HISTOGRAM_BINS: usize = 100;

/// `Algorithm_HISTOGRAM`: binning of a data-dependent index stream —
/// atomic adds in the Base variants, a multi-reduce in the RAJA ones.
pub struct Histogram;

impl KernelBase for Histogram {
    fn info(&self) -> KernelInfo {
        info(
            "Algorithm_HISTOGRAM",
            &[Feature::Forall, Feature::Atomic],
            Complexity::N,
            20,
        )
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 4.0 * n as f64,
            bytes_written: 8.0 * HISTOGRAM_BINS as f64,
            flops: 0.0,
        }
    }

    fn shape(&self, n: usize, s: &mut ExecSignature) {
        s.atomics = n as f64;
        s.atomic_contention = 0.3; // 100 bins: moderate collisions
        s.int_ops_per_iter = 2.0;
        s.flop_efficiency = 0.05;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let bins = crate::common::init_ints(n, 510, HISTOGRAM_BINS);
        let mut counts = vec![0.0f64; HISTOGRAM_BINS];
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            if variant.is_raja() {
                crate::run_multi_reduce_raja(variant, n, bs, &mut counts, |i| {
                    (bins[i] as usize, 1.0)
                });
                return;
            }
            counts.fill(0.0);
            let atoms = as_atomic_slice(&mut counts);
            run_elementwise(variant, n, bs, |i| {
                atoms[bins[i] as usize].fetch_add(1.0);
            });
        });
        (time, checksum(&counts))
    }
}

// ---------------------------------------------------------------------------
// MEMCPY / MEMSET
// ---------------------------------------------------------------------------

/// `Algorithm_MEMCPY`: bulk copy, `y[i] = x[i]`.
pub struct Memcpy;

impl KernelBase for Memcpy {
    fn info(&self) -> KernelInfo {
        info("Algorithm_MEMCPY", &[Feature::Forall], Complexity::N, 50)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 8.0 * n as f64,
            bytes_written: 8.0 * n as f64,
            flops: 0.0,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        s.flop_efficiency = 0.3;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let x = init_unit(n, 520);
        let mut y = vec![0.0f64; n];
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || match variant {
            // The Base_Seq upstream literally calls memcpy.
            VariantId::BaseSeq => y.copy_from_slice(&x),
            _ => {
                let yp = DevicePtr::new(&mut y);
                // SAFETY: the index is in bounds of the allocation the pointer was built
                // from, and each parallel iterate writes a distinct element, so writes
                // never alias.
                run_elementwise(variant, n, bs, |i| unsafe { yp.write(i, x[i]) });
            }
        });
        (time, checksum(&y))
    }
}

/// `Algorithm_MEMSET`: bulk fill, `x[i] = value`. One of the kernels that
/// gains on the V100 but not on SPR-HBM (§V-B).
pub struct Memset;

impl KernelBase for Memset {
    fn info(&self) -> KernelInfo {
        info("Algorithm_MEMSET", &[Feature::Forall], Complexity::N, 50)
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 0.0,
            bytes_written: 8.0 * n as f64,
            flops: 0.0,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        s.flop_efficiency = 0.35;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let mut x = vec![0.0f64; n];
        let value = 0.123;
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || match variant {
            VariantId::BaseSeq => x.fill(value),
            _ => {
                let xp = DevicePtr::new(&mut x);
                // SAFETY: the index is in bounds of the allocation the pointer was built
                // from, and each parallel iterate writes a distinct element, so writes
                // never alias.
                run_elementwise(variant, n, bs, |i| unsafe { xp.write(i, value) });
            }
        });
        (time, checksum(&x))
    }
}

// ---------------------------------------------------------------------------
// REDUCE_SUM
// ---------------------------------------------------------------------------

/// `Algorithm_REDUCE_SUM`: plain sum reduction — the paper's example of a
/// kernel whose bottleneck is *not* primarily memory bandwidth (§III-A).
pub struct ReduceSum;

impl KernelBase for ReduceSum {
    fn info(&self) -> KernelInfo {
        info(
            "Algorithm_REDUCE_SUM",
            &[Feature::Forall, Feature::Reduction],
            Complexity::N,
            30,
        )
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 8.0 * n as f64,
            bytes_written: 8.0,
            flops: n as f64,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        // The serial accumulation chain limits retire before bandwidth
        // saturates (single-stream add dependency).
        s.int_ops_per_iter = 3.0;
        s.flop_efficiency = 0.12;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let x = init_signed(n, 530);
        let mut sum = 0.0f64;
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            sum = match variant {
                VariantId::BaseSeq => x.iter().sum(),
                VariantId::BasePar => x.par_iter().sum(),
                VariantId::RajaSeq => raja::reduce::reduce_sum::<SeqExec, f64>(0..n, |i| x[i]),
                VariantId::RajaPar => raja::reduce::reduce_sum::<ParExec, f64>(0..n, |i| x[i]),
                VariantId::BaseSimGpu | VariantId::RajaSimGpu => {
                    crate::dispatch_gpu_block!(bs, P, {
                        raja::reduce::reduce_sum::<P, f64>(0..n, |i| x[i])
                    })
                }
            };
        });
        (time, sum)
    }
}

// ---------------------------------------------------------------------------
// SCAN
// ---------------------------------------------------------------------------

/// `Algorithm_SCAN`: exclusive prefix sum — the paper's flagship
/// memory-bandwidth-bound kernel on SPR-DDR (§III-A).
pub struct Scan;

impl KernelBase for Scan {
    fn info(&self) -> KernelInfo {
        info(
            "Algorithm_SCAN",
            &[Feature::Forall, Feature::Scan],
            Complexity::N,
            20,
        )
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 8.0 * n as f64,
            bytes_written: 8.0 * n as f64,
            flops: n as f64,
        }
    }

    fn shape(&self, _n: usize, s: &mut ExecSignature) {
        s.kernel_launches = 3.0; // blocked scan phases
        s.flop_efficiency = 0.3;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let x = init_unit(n, 540);
        let mut y = vec![0.0f64; n];
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || match variant {
            VariantId::BaseSeq => {
                let mut acc = 0.0;
                for i in 0..n {
                    y[i] = acc;
                    acc += x[i];
                }
            }
            VariantId::BasePar | VariantId::RajaPar => {
                raja::scan::exclusive_scan::<ParExec>(0..n, &mut y, |i| x[i]);
            }
            VariantId::RajaSeq => {
                raja::scan::exclusive_scan::<SeqExec>(0..n, &mut y, |i| x[i]);
            }
            VariantId::BaseSimGpu | VariantId::RajaSimGpu => {
                crate::dispatch_gpu_block!(bs, P, {
                    raja::scan::exclusive_scan::<P>(0..n, &mut y, |i| x[i]);
                })
            }
        });
        (time, checksum(&y))
    }
}

// ---------------------------------------------------------------------------
// SORT / SORTPAIRS
// ---------------------------------------------------------------------------

/// `Algorithm_SORT`: ascending sort of a real array (O(n lg n)).
pub struct Sort;

impl KernelBase for Sort {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            default_size: 100_000,
            ..info(
                "Algorithm_SORT",
                &[Feature::Sort],
                Complexity::NLogN,
                10,
            )
        }
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        let passes = (n as f64).max(2.0).log2();
        AnalyticMetrics {
            bytes_read: 8.0 * n as f64 * passes,
            bytes_written: 8.0 * n as f64 * passes,
            flops: 0.0,
        }
    }

    fn shape(&self, n: usize, s: &mut ExecSignature) {
        s.branches = s.iterations * (n as f64).max(2.0).log2();
        s.branch_mispredict_rate = 0.2;
        s.int_ops_per_iter = 6.0;
        s.kernel_launches = 8.0; // radix passes on the device
        s.cache_reuse = 0.4;
        s.flop_efficiency = 0.02;
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let orig = init_signed(n, 550);
        let mut x = orig.clone();
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            x.copy_from_slice(&orig);
            match variant {
                VariantId::BaseSeq => x.sort_unstable_by(f64::total_cmp),
                VariantId::BasePar => x.par_sort_unstable_by(f64::total_cmp),
                VariantId::RajaSeq => raja::sort::sort::<SeqExec>(&mut x),
                VariantId::RajaPar => raja::sort::sort::<ParExec>(&mut x),
                VariantId::BaseSimGpu | VariantId::RajaSimGpu => {
                    crate::dispatch_gpu_block!(bs, P, { raja::sort::sort::<P>(&mut x) })
                }
            }
        });
        (time, checksum(&x))
    }
}

/// `Algorithm_SORTPAIRS`: key/value sort (O(n lg n)).
pub struct SortPairs;

impl KernelBase for SortPairs {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            default_size: 100_000,
            ..info(
                "Algorithm_SORTPAIRS",
                &[Feature::Sort],
                Complexity::NLogN,
                10,
            )
        }
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        let passes = (n as f64).max(2.0).log2();
        AnalyticMetrics {
            bytes_read: 12.0 * n as f64 * passes,
            bytes_written: 12.0 * n as f64 * passes,
            flops: 0.0,
        }
    }

    fn shape(&self, n: usize, s: &mut ExecSignature) {
        Sort.shape(n, s);
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        let keys_orig = init_signed(n, 560);
        let vals_orig: Vec<i32> = (0..n as i32).collect();
        let mut keys = keys_orig.clone();
        let mut vals = vals_orig.clone();
        let bs = tuning.gpu_block_size;
        let time = time_reps(reps, || {
            keys.copy_from_slice(&keys_orig);
            vals.copy_from_slice(&vals_orig);
            match variant {
                VariantId::BaseSeq => {
                    // Direct pair sort: sort an index permutation.
                    let mut perm: Vec<usize> = (0..n).collect();
                    perm.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]));
                    let k2: Vec<f64> = perm.iter().map(|&i| keys[i]).collect();
                    let v2: Vec<i32> = perm.iter().map(|&i| vals[i]).collect();
                    keys.copy_from_slice(&k2);
                    vals.copy_from_slice(&v2);
                }
                VariantId::BasePar | VariantId::RajaPar => {
                    raja::sort::sort_pairs::<ParExec>(&mut keys, &mut vals)
                }
                VariantId::RajaSeq => raja::sort::sort_pairs::<SeqExec>(&mut keys, &mut vals),
                VariantId::BaseSimGpu | VariantId::RajaSimGpu => {
                    crate::dispatch_gpu_block!(bs, P, {
                        raja::sort::sort_pairs::<P>(&mut keys, &mut vals)
                    })
                }
            }
        });
        let vsum: f64 = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| v as f64 * (1.0 + (i % 31) as f64 / 31.0))
            .sum();
        (time, checksum(&keys) + vsum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_variants;

    const N: usize = 4000;

    #[test]
    fn atomic_and_histogram_agree() {
        verify_variants(&Atomic, N, 1e-10);
        verify_variants(&Histogram, N, 1e-10);
    }

    #[test]
    fn memcpy_memset_agree() {
        verify_variants(&Memcpy, N, 1e-12);
        verify_variants(&Memset, N, 1e-12);
    }

    #[test]
    fn reduce_sum_agrees() {
        verify_variants(&ReduceSum, N, 1e-10);
    }

    #[test]
    fn scan_agrees() {
        verify_variants(&Scan, N, 1e-10);
    }

    #[test]
    fn sorts_agree() {
        verify_variants(&Sort, N, 1e-10);
        verify_variants(&SortPairs, N, 1e-10);
    }

    #[test]
    fn atomic_counts_every_iteration() {
        let r = Atomic.execute(VariantId::RajaPar, 10_000, 1, &Tuning::default());
        assert_eq!(r.checksum, 10_000.0);
    }

    #[test]
    fn histogram_conserves_counts() {
        let r = Histogram.execute(VariantId::BaseSimGpu, 10_000, 1, &Tuning::default());
        // Weighted checksum, so just verify it is deterministic vs BaseSeq.
        let r2 = Histogram.execute(VariantId::BaseSeq, 10_000, 1, &Tuning::default());
        assert!(crate::common::close(r.checksum, r2.checksum, 1e-12));
    }

    #[test]
    fn scan_output_is_prefix_sum() {
        let n = 1000;
        let x = init_unit(n, 540);
        let mut expect = vec![0.0; n];
        let mut acc = 0.0;
        for i in 0..n {
            expect[i] = acc;
            acc += x[i];
        }
        let r = Scan.execute(VariantId::RajaSimGpu, n, 1, &Tuning::default());
        assert!(crate::common::close(r.checksum, checksum(&expect), 1e-12));
    }

    #[test]
    fn sort_complexity_annotation() {
        assert_eq!(Sort.info().complexity, Complexity::NLogN);
        assert_eq!(SortPairs.info().complexity, Complexity::NLogN);
    }
}
