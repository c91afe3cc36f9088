//! Policy-generic sorts and key/value pair sorts.
//!
//! RAJA's `RAJA::sort` / `RAJA::sort_pairs` dispatch to `std::sort` on the
//! host and to vendor device libraries (cub `DeviceRadixSort`, rocPRIM) on
//! GPUs. The suite's `SORT` and `SORTPAIRS` kernels exercise them. Here the
//! sequential back-end uses the standard-library pattern-defeating
//! quicksort, the parallel back-end rayon's parallel sort, and the simulated
//! device an LSD radix sort on the `f64` key bits — the same algorithm
//! family the vendor GPU libraries implement.

use crate::policy::{ParExec, SeqExec, SimGpuExec};
use rayon::prelude::*;

/// Back-end hook for sorting.
pub trait SortPolicy {
    /// Sort `keys` ascending (total order over f64, NaN-free data assumed as
    /// in RAJAPerf).
    fn sort(keys: &mut [f64]);

    /// Sort `keys` ascending, applying the same permutation to `vals`.
    /// Stable with respect to equal keys.
    fn sort_pairs(keys: &mut [f64], vals: &mut [i32]);
}

impl SortPolicy for SeqExec {
    fn sort(keys: &mut [f64]) {
        keys.sort_unstable_by(f64::total_cmp);
    }

    fn sort_pairs(keys: &mut [f64], vals: &mut [i32]) {
        sort_pairs_by_index(keys, vals, |perm, k| {
            perm.sort_by(|&a, &b| k[a].total_cmp(&k[b]));
        });
    }
}

impl SortPolicy for ParExec {
    fn sort(keys: &mut [f64]) {
        keys.par_sort_unstable_by(f64::total_cmp);
    }

    fn sort_pairs(keys: &mut [f64], vals: &mut [i32]) {
        sort_pairs_by_index(keys, vals, |perm, k| {
            perm.par_sort_by(|&a, &b| k[a].total_cmp(&k[b]));
        });
    }
}

impl<const B: usize> SortPolicy for SimGpuExec<B> {
    fn sort(keys: &mut [f64]) {
        // Model the device-library call: a handful of radix passes, each a
        // kernel launch on real hardware.
        let n = keys.len().max(1);
        let cfg = gpusim::LaunchConfig::linear(n, B);
        for _ in 0..RADIX_PASSES {
            gpusim::launch(&cfg, |_| {});
        }
        radix_sort_f64(keys, None);
    }

    fn sort_pairs(keys: &mut [f64], vals: &mut [i32]) {
        let n = keys.len().max(1);
        let cfg = gpusim::LaunchConfig::linear(n, B);
        for _ in 0..RADIX_PASSES {
            gpusim::launch(&cfg, |_| {});
        }
        radix_sort_f64(keys, Some(vals));
    }
}

/// Radix passes for a 64-bit key at 8 bits per digit.
const RADIX_PASSES: usize = 8;

/// Map f64 bits to an order-preserving u64 key (flip sign bit for positives,
/// full complement for negatives) — the standard radix-sortable encoding.
#[inline]
fn f64_to_ordered_bits(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 0 {
        b | (1 << 63)
    } else {
        !b
    }
}

#[inline]
fn ordered_bits_to_f64(b: u64) -> f64 {
    let raw = if b >> 63 == 1 { b & !(1 << 63) } else { !b };
    f64::from_bits(raw)
}

/// Stable LSD radix sort over f64 keys with optional value payload.
fn radix_sort_f64(keys: &mut [f64], vals: Option<&mut [i32]>) {
    let n = keys.len();
    if n <= 1 {
        return;
    }
    if let Some(v) = &vals {
        assert_eq!(v.len(), n, "sort_pairs: keys/vals length mismatch");
    }
    let mut cur: Vec<u64> = keys.iter().map(|&k| f64_to_ordered_bits(k)).collect();
    let mut buf = vec![0u64; n];
    let mut vcur: Vec<i32> = vals.as_deref().map(|v| v.to_vec()).unwrap_or_default();
    let mut vbuf = vec![0i32; vcur.len()];
    for pass in 0..RADIX_PASSES {
        let shift = pass * 8;
        let mut counts = [0usize; 256];
        for &k in &cur {
            counts[((k >> shift) & 0xff) as usize] += 1;
        }
        let mut pos = [0usize; 256];
        let mut acc = 0;
        for (p, c) in pos.iter_mut().zip(counts) {
            *p = acc;
            acc += c;
        }
        for (idx, &k) in cur.iter().enumerate() {
            let d = ((k >> shift) & 0xff) as usize;
            buf[pos[d]] = k;
            if !vcur.is_empty() {
                vbuf[pos[d]] = vcur[idx];
            }
            pos[d] += 1;
        }
        std::mem::swap(&mut cur, &mut buf);
        std::mem::swap(&mut vcur, &mut vbuf);
    }
    for (k, &b) in keys.iter_mut().zip(&cur) {
        *k = ordered_bits_to_f64(b);
    }
    if let Some(v) = vals {
        v.copy_from_slice(&vcur);
    }
}

/// Shared stable pair-sort driver: build a permutation, sort it by key, and
/// apply it to both arrays.
fn sort_pairs_by_index(
    keys: &mut [f64],
    vals: &mut [i32],
    sort_perm: impl FnOnce(&mut Vec<usize>, &[f64]),
) {
    assert_eq!(keys.len(), vals.len(), "sort_pairs: keys/vals length mismatch");
    let mut perm: Vec<usize> = (0..keys.len()).collect();
    sort_perm(&mut perm, keys);
    let sorted_keys: Vec<f64> = perm.iter().map(|&i| keys[i]).collect();
    let sorted_vals: Vec<i32> = perm.iter().map(|&i| vals[i]).collect();
    keys.copy_from_slice(&sorted_keys);
    vals.copy_from_slice(&sorted_vals);
}

/// Sort `keys` ascending under policy `P`.
pub fn sort<P: SortPolicy>(keys: &mut [f64]) {
    P::sort(keys);
}

/// Sort `keys` ascending under policy `P`, permuting `vals` identically.
pub fn sort_pairs<P: SortPolicy>(keys: &mut [f64], vals: &mut [i32]) {
    P::sort_pairs(keys, vals);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (((i * 2654435761_usize) % 10007) as f64 - 5000.0) / 3.0)
            .collect()
    }

    fn is_sorted(v: &[f64]) -> bool {
        v.windows(2).all(|w| w[0] <= w[1])
    }

    #[test]
    fn sort_all_policies() {
        for n in [0, 1, 2, 100, 1000] {
            let orig = data(n);
            for run in 0..3 {
                let mut v = orig.clone();
                match run {
                    0 => sort::<SeqExec>(&mut v),
                    1 => sort::<ParExec>(&mut v),
                    _ => sort::<SimGpuExec<128>>(&mut v),
                }
                assert!(is_sorted(&v), "policy {run}, n={n}");
                let mut expect = orig.clone();
                expect.sort_unstable_by(f64::total_cmp);
                assert_eq!(v, expect, "sorted output is a permutation");
            }
        }
    }

    #[test]
    fn sort_handles_negatives_and_zeros() {
        let mut v = vec![3.0, -1.5, 0.0, -0.0, 2.5, -7.25, 0.0];
        sort::<SimGpuExec<32>>(&mut v);
        assert!(is_sorted(&v));
        assert_eq!(v[0], -7.25);
        assert_eq!(*v.last().unwrap(), 3.0);
    }

    #[test]
    fn sort_pairs_keeps_pairs_together() {
        for run in 0..3 {
            let n = 500;
            let mut keys = data(n);
            let mut vals: Vec<i32> = (0..n as i32).collect();
            match run {
                0 => sort_pairs::<SeqExec>(&mut keys, &mut vals),
                1 => sort_pairs::<ParExec>(&mut keys, &mut vals),
                _ => sort_pairs::<SimGpuExec<64>>(&mut keys, &mut vals),
            }
            assert!(is_sorted(&keys));
            let orig = data(n);
            for (k, v) in keys.iter().zip(&vals) {
                assert_eq!(orig[*v as usize], *k, "value still points at its key");
            }
        }
    }

    #[test]
    fn sort_pairs_is_stable_for_equal_keys() {
        let mut keys = vec![1.0, 0.0, 1.0, 0.0, 1.0];
        let mut vals = vec![10, 20, 11, 21, 12];
        sort_pairs::<SeqExec>(&mut keys, &mut vals);
        assert_eq!(vals, vec![20, 21, 10, 11, 12]);
        let mut keys = vec![1.0, 0.0, 1.0, 0.0, 1.0];
        let mut vals = vec![10, 20, 11, 21, 12];
        sort_pairs::<SimGpuExec<8>>(&mut keys, &mut vals);
        assert_eq!(vals, vec![20, 21, 10, 11, 12], "radix pair sort is stable");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn sort_pairs_length_mismatch_panics() {
        let mut keys = vec![1.0, 2.0];
        let mut vals = vec![1];
        sort_pairs::<SeqExec>(&mut keys, &mut vals);
    }
}
