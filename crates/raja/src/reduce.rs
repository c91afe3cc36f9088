//! Policy-generic reductions.
//!
//! RAJA expresses reductions with reducer objects (`RAJA::ReduceSum`,
//! `ReduceMin`, `ReduceMinLoc`, ...) captured by the loop body. The
//! functional Rust equivalent is a map/combine pair: [`forall_reduce`] runs
//! `map(i)` for each index and folds the results with an associative
//! `combine`, giving each back-end freedom to partition the fold —
//! sequential running fold, per-chunk folds on the pool combined in chunk
//! order on the caller (one pooled call), or the simulated device's
//! two-stage (block-local shared-memory tree, then host combine) reduction,
//! which is structurally the reduction CUDA/HIP RAJAPerf variants perform.
//!
//! Multi-value reductions (the suite's `REDUCE3_INT`, `REDUCE_STRUCT`) fall
//! out naturally by reducing tuples or small structs.
//!
//! A *multi-reduce* (RAJA's `MultiReduceSum`, which upstream's
//! `MULTI_REDUCE` and `HISTOGRAM` exercise) sums into one of many bins
//! chosen per index: [`multi_reduce_sum`]. On the host each chunk of the
//! range accumulates its own bins in place and the chunks' bins are summed
//! in chunk order, so no bin is shared between threads and the result is
//! reproducible; the simulated device adds atomically into the one set of
//! bins, as a GPU back-end does.

use crate::policy::{ExecPolicy, ParExec, SeqExec, SimGpuExec};
use rayon::prelude::*;
use std::ops::Range;

/// Reduce `map(i)` over `range` with the associative, commutative `combine`,
/// starting from `identity`, under execution policy `P`.
///
/// `identity` must be a true identity for `combine` (`combine(identity, x)
/// == x`); back-ends may inject it any number of times.
pub fn forall_reduce<P, T>(
    range: Range<usize>,
    identity: T,
    map: impl Fn(usize) -> T + Sync,
    combine: impl Fn(T, T) -> T + Sync,
) -> T
where
    P: ReducePolicy,
    T: Copy + Send + Sync,
{
    P::reduce(range, identity, &map, &combine)
}

/// Multi-reduce sum (RAJA `MultiReduceSum`): for every `i` in `range`,
/// `map(i) = (bin, value)` adds `value` to `bins[bin]`. On return `bins`
/// holds the per-bin sums; what it held before is overwritten. Every `bin`
/// must be `< bins.len()`.
///
/// Host policies sum each bin in index order within a chunk and the
/// chunks in chunk order, so for a fixed pool width the bits are the same
/// run after run, and at width one they are [`SeqExec`]'s.
pub fn multi_reduce_sum<P: ReducePolicy>(
    range: Range<usize>,
    bins: &mut [f64],
    map: impl Fn(usize) -> (usize, f64) + Sync,
) {
    P::multi_reduce_sum(range, bins, &map);
}

/// Back-end hook for reductions. Implemented for the same policy types as
/// [`ExecPolicy`]; separate because reductions return a value.
pub trait ReducePolicy: ExecPolicy {
    /// Fold `map` over `range` with `combine`.
    fn reduce<T: Copy + Send + Sync>(
        range: Range<usize>,
        identity: T,
        map: &(impl Fn(usize) -> T + Sync),
        combine: &(impl Fn(T, T) -> T + Sync),
    ) -> T;

    /// Sum each `map(i).1` into `bins[map(i).0]`; see [`multi_reduce_sum`].
    fn multi_reduce_sum(
        range: Range<usize>,
        bins: &mut [f64],
        map: &(impl Fn(usize) -> (usize, f64) + Sync),
    );
}

impl ReducePolicy for SeqExec {
    #[inline]
    fn reduce<T: Copy + Send + Sync>(
        range: Range<usize>,
        identity: T,
        map: &(impl Fn(usize) -> T + Sync),
        combine: &(impl Fn(T, T) -> T + Sync),
    ) -> T {
        let mut acc = identity;
        for i in range {
            acc = combine(acc, map(i));
        }
        acc
    }

    #[inline]
    fn multi_reduce_sum(
        range: Range<usize>,
        bins: &mut [f64],
        map: &(impl Fn(usize) -> (usize, f64) + Sync),
    ) {
        bins.fill(0.0);
        for i in range {
            let (bin, value) = map(i);
            bins[bin] += value;
        }
    }
}

impl ReducePolicy for ParExec {
    #[inline]
    fn reduce<T: Copy + Send + Sync>(
        range: Range<usize>,
        identity: T,
        map: &(impl Fn(usize) -> T + Sync),
        combine: &(impl Fn(T, T) -> T + Sync),
    ) -> T {
        range
            .into_par_iter()
            .fold(|| identity, |acc, i| combine(acc, map(i)))
            .reduce(|| identity, combine)
    }

    #[inline]
    fn multi_reduce_sum(
        range: Range<usize>,
        bins: &mut [f64],
        map: &(impl Fn(usize) -> (usize, f64) + Sync),
    ) {
        let nbins = bins.len();
        // The empty vector is the identity: the first chunk's bins are
        // taken as they are, so a one-chunk grid is `SeqExec`'s loop.
        let sums = range
            .into_par_iter()
            .fold(
                || vec![0.0; nbins],
                |mut acc, i| {
                    let (bin, value) = map(i);
                    acc[bin] += value;
                    acc
                },
            )
            .reduce(Vec::new, |mut acc, part| {
                if acc.is_empty() {
                    return part;
                }
                acc.iter_mut().zip(&part).for_each(|(a, p)| *a += p);
                acc
            });
        bins.copy_from_slice(&sums);
    }
}

impl<const B: usize> ReducePolicy for SimGpuExec<B> {
    fn reduce<T: Copy + Send + Sync>(
        range: Range<usize>,
        identity: T,
        map: &(impl Fn(usize) -> T + Sync),
        combine: &(impl Fn(T, T) -> T + Sync),
    ) -> T {
        let start = range.start;
        let n = range.len();
        if n == 0 {
            return identity;
        }
        let _region = gpusim::sanitizer::region("raja::reduce<SimGpu>");
        let nblocks = n.div_ceil(B);
        // Stage 1: each block folds its strip into a per-block partial
        // (shared-memory tree reduction on a real device).
        let mut partials = vec![identity; nblocks];
        let pp = gpusim::DevicePtr::new(&mut partials);
        let cfg = gpusim::LaunchConfig::linear(n, B);
        gpusim::launch(&cfg, |block| {
            let bx = block.block_idx.x;
            let mut acc = identity;
            block.threads(|t, _| {
                let i = t.global_id_x();
                if i < n {
                    acc = combine(acc, map(start + i));
                }
            });
            // SAFETY: the index is in bounds of the allocation the pointer was built
            // from, and each parallel iterate writes a distinct element, so writes
            // never alias.
            unsafe { pp.write(bx, acc) };
        });
        // Stage 2: host combines the block partials (a second kernel /
        // device-wide pass on real hardware).
        partials.into_iter().fold(identity, combine)
    }

    fn multi_reduce_sum(
        range: Range<usize>,
        bins: &mut [f64],
        map: &(impl Fn(usize) -> (usize, f64) + Sync),
    ) {
        bins.fill(0.0);
        let atoms = crate::atomic::as_atomic_slice(bins);
        Self::forall(range, &|i| {
            let (bin, value) = map(i);
            atoms[bin].fetch_add(value);
        });
    }
}

/// Sum reduction (RAJA `ReduceSum`).
pub fn reduce_sum<P: ReducePolicy, T>(range: Range<usize>, map: impl Fn(usize) -> T + Sync) -> T
where
    T: Copy + Send + Sync + Default + std::ops::Add<Output = T>,
{
    forall_reduce::<P, T>(range, T::default(), map, |a, b| a + b)
}

/// Minimum reduction (RAJA `ReduceMin`) for `f64`.
pub fn reduce_min<P: ReducePolicy>(range: Range<usize>, map: impl Fn(usize) -> f64 + Sync) -> f64 {
    forall_reduce::<P, f64>(range, f64::INFINITY, map, f64::min)
}

/// Maximum reduction (RAJA `ReduceMax`) for `f64`.
pub fn reduce_max<P: ReducePolicy>(range: Range<usize>, map: impl Fn(usize) -> f64 + Sync) -> f64 {
    forall_reduce::<P, f64>(range, f64::NEG_INFINITY, map, f64::max)
}

/// A value/location pair for loc-reductions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValLoc {
    /// The reduced value.
    pub val: f64,
    /// Index at which it occurred (`usize::MAX` when the range was empty).
    pub loc: usize,
}

/// Minimum-with-location reduction (RAJA `ReduceMinLoc`): the smallest value
/// and the *lowest* index attaining it, independent of execution order.
pub fn reduce_min_loc<P: ReducePolicy>(
    range: Range<usize>,
    map: impl Fn(usize) -> f64 + Sync,
) -> ValLoc {
    forall_reduce::<P, ValLoc>(
        range,
        ValLoc {
            val: f64::INFINITY,
            loc: usize::MAX,
        },
        |i| ValLoc { val: map(i), loc: i },
        |a, b| {
            if b.val < a.val || (b.val == a.val && b.loc < a.loc) {
                b
            } else {
                a
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 37 + 11) % 101) as f64 - 50.0).collect()
    }

    fn check_all_policies(n: usize) {
        let d = data(n);
        let expect: f64 = d.iter().sum();
        let s_seq = reduce_sum::<SeqExec, f64>(0..n, |i| d[i]);
        let s_par = reduce_sum::<ParExec, f64>(0..n, |i| d[i]);
        let s_gpu = reduce_sum::<SimGpuExec<64>, f64>(0..n, |i| d[i]);
        assert!((s_seq - expect).abs() < 1e-9);
        assert!((s_par - expect).abs() < 1e-9);
        assert!((s_gpu - expect).abs() < 1e-9);
    }

    #[test]
    fn sum_matches_reference_on_various_sizes() {
        for n in [0, 1, 63, 64, 65, 1000] {
            check_all_policies(n);
        }
    }

    #[test]
    fn min_max_match_reference() {
        let n = 777;
        let d = data(n);
        let lo = d.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = d.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(reduce_min::<ParExec>(0..n, |i| d[i]), lo);
        assert_eq!(reduce_max::<SimGpuExec<128>>(0..n, |i| d[i]), hi);
    }

    #[test]
    fn min_loc_prefers_lowest_index_on_ties() {
        // Value -50 occurs multiple times in this data; all policies must
        // report its first occurrence.
        let n = 500;
        let d = data(n);
        let lo = d.iter().cloned().fold(f64::INFINITY, f64::min);
        let first = d.iter().position(|&v| v == lo).unwrap();
        for loc in [
            reduce_min_loc::<SeqExec>(0..n, |i| d[i]).loc,
            reduce_min_loc::<ParExec>(0..n, |i| d[i]).loc,
            reduce_min_loc::<SimGpuExec<32>>(0..n, |i| d[i]).loc,
        ] {
            assert_eq!(loc, first);
        }
    }

    #[test]
    fn empty_range_returns_identity() {
        assert_eq!(reduce_sum::<SeqExec, f64>(3..3, |_| 1.0), 0.0);
        assert_eq!(reduce_min::<ParExec>(0..0, |_| 1.0), f64::INFINITY);
        let ml = reduce_min_loc::<SimGpuExec<8>>(0..0, |_| 1.0);
        assert_eq!(ml.loc, usize::MAX);
    }

    #[test]
    fn tuple_multireduce() {
        // REDUCE3-style: sum, min, max in a single traversal.
        let n = 300;
        let d = data(n);
        let (s, lo, hi) = forall_reduce::<ParExec, (f64, f64, f64)>(
            0..n,
            (0.0, f64::INFINITY, f64::NEG_INFINITY),
            |i| (d[i], d[i], d[i]),
            |a, b| (a.0 + b.0, a.1.min(b.1), a.2.max(b.2)),
        );
        assert!((s - d.iter().sum::<f64>()).abs() < 1e-9);
        assert_eq!(lo, d.iter().cloned().fold(f64::INFINITY, f64::min));
        assert_eq!(hi, d.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    }

    /// `multi_reduce_sum` over `data(n)` into 13 bins, from NaN-filled bins.
    fn multi_reduced<P: ReducePolicy>(n: usize) -> Vec<f64> {
        let d = data(n);
        let mut bins = vec![f64::NAN; 13];
        multi_reduce_sum::<P>(0..n, &mut bins, |i| ((i * 7) % 13, d[i]));
        bins
    }

    #[test]
    fn multi_reduce_sums_each_bin() {
        let n = 5000;
        let d = data(n);
        let mut want = vec![0.0; 13];
        for (i, x) in d.iter().enumerate() {
            want[(i * 7) % 13] += x;
        }
        assert_eq!(
            multi_reduced::<SeqExec>(n),
            want,
            "SeqExec is the in-order loop"
        );
        for got in [
            multi_reduced::<ParExec>(n),
            multi_reduced::<SimGpuExec<64>>(n),
        ] {
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-9, "{got:?} vs {want:?}");
            }
        }
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(
            bits(multi_reduced::<ParExec>(n)),
            bits(multi_reduced::<ParExec>(n)),
            "a host multi-reduce has the same bits run after run"
        );
        assert_eq!(multi_reduced::<ParExec>(0), [0.0; 13]);
    }

    #[test]
    fn integer_sum() {
        let n = 1000;
        assert_eq!(
            reduce_sum::<SimGpuExec<256>, i64>(0..n, |i| i as i64),
            (n as i64 - 1) * n as i64 / 2
        );
    }
}
