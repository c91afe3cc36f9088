//! Policy-generic inclusive and exclusive scans (prefix sums).
//!
//! RAJA provides `RAJA::inclusive_scan` / `exclusive_scan`; the suite's
//! `SCAN`, `INDEXLIST_3LOOP`, and the fused halo kernels rely on them. The
//! parallel and simulated-device back-ends use the classic three-phase
//! blocked scan (block-local scan → scan of block totals → offset fixup),
//! which is the same structure GPU scan libraries (cub / rocPRIM) use.

use crate::policy::{ExecPolicy, ParExec, SeqExec, SimGpuExec};
use rayon::prelude::*;
use std::ops::Range;

/// Back-end hook for scans over `f64` data produced by an index map.
pub trait ScanPolicy: ExecPolicy {
    /// Writes the exclusive prefix sums of `map(range)` into `out` (so
    /// `out[0] == 0`) and returns the grand total.
    fn exclusive_scan(
        range: Range<usize>,
        out: &mut [f64],
        map: &(impl Fn(usize) -> f64 + Sync),
    ) -> f64;
}

impl ScanPolicy for SeqExec {
    fn exclusive_scan(
        range: Range<usize>,
        out: &mut [f64],
        map: &(impl Fn(usize) -> f64 + Sync),
    ) -> f64 {
        assert_eq!(out.len(), range.len(), "output length must match range");
        let mut acc = 0.0;
        for (slot, i) in out.iter_mut().zip(range) {
            *slot = acc;
            acc += map(i);
        }
        acc
    }
}

/// Shared blocked implementation for the parallel back-ends.
fn blocked_exclusive_scan(
    range: Range<usize>,
    out: &mut [f64],
    map: &(impl Fn(usize) -> f64 + Sync),
    block: usize,
    parallel: bool,
) -> f64 {
    assert_eq!(out.len(), range.len(), "output length must match range");
    let n = range.len();
    if n == 0 {
        return 0.0;
    }
    let start = range.start;
    let nblocks = n.div_ceil(block);

    // Phase 1: block-local exclusive scans, recording each block's total.
    let mut totals = vec![0.0f64; nblocks];
    let scan_block = |b: usize, chunk: &mut [f64]| -> f64 {
        let base = b * block;
        let mut acc = 0.0;
        for (off, slot) in chunk.iter_mut().enumerate() {
            *slot = acc;
            acc += map(start + base + off);
        }
        acc
    };
    if parallel {
        out.par_chunks_mut(block)
            .zip(totals.par_iter_mut())
            .enumerate()
            .for_each(|(b, (chunk, total))| *total = scan_block(b, chunk));
    } else {
        for (b, (chunk, total)) in out.chunks_mut(block).zip(totals.iter_mut()).enumerate() {
            *total = scan_block(b, chunk);
        }
    }

    // Phase 2: sequential exclusive scan of the (small) block totals.
    let mut acc = 0.0;
    let mut offsets = vec![0.0f64; nblocks];
    for (b, t) in totals.iter().enumerate() {
        offsets[b] = acc;
        acc += t;
    }

    // Phase 3: add each block's offset to its elements.
    if parallel {
        out.par_chunks_mut(block)
            .zip(offsets.par_iter())
            .for_each(|(chunk, &off)| {
                for v in chunk {
                    *v += off;
                }
            });
    } else {
        for (chunk, &off) in out.chunks_mut(block).zip(offsets.iter()) {
            for v in chunk {
                *v += off;
            }
        }
    }
    acc
}

impl ScanPolicy for ParExec {
    fn exclusive_scan(
        range: Range<usize>,
        out: &mut [f64],
        map: &(impl Fn(usize) -> f64 + Sync),
    ) -> f64 {
        blocked_exclusive_scan(range, out, map, 4096, true)
    }
}

impl<const B: usize> ScanPolicy for SimGpuExec<B> {
    fn exclusive_scan(
        range: Range<usize>,
        out: &mut [f64],
        map: &(impl Fn(usize) -> f64 + Sync),
    ) -> f64 {
        // Count the three device passes a real GPU scan performs, so that
        // launch-overhead accounting stays honest, then run the blocked scan.
        let cfg = gpusim::LaunchConfig::linear(range.len().max(1), B);
        for _ in 0..3 {
            gpusim::launch(&cfg, |_| {});
        }
        blocked_exclusive_scan(range, out, map, B, false)
    }
}

/// Exclusive scan: `out[k] = sum of map(range[0..k])`; returns the total.
pub fn exclusive_scan<P: ScanPolicy>(
    range: Range<usize>,
    out: &mut [f64],
    map: impl Fn(usize) -> f64 + Sync,
) -> f64 {
    P::exclusive_scan(range, out, &map)
}

/// Inclusive scan: `out[k] = sum of map(range[0..=k])`; returns the total.
pub fn inclusive_scan<P: ScanPolicy>(
    range: Range<usize>,
    out: &mut [f64],
    map: impl Fn(usize) -> f64 + Sync,
) -> f64 {
    let total = P::exclusive_scan(range.clone(), out, &map);
    // Shift from exclusive to inclusive by adding each element's own value.
    let start = range.start;
    for (k, slot) in out.iter_mut().enumerate() {
        *slot += map(start + k);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 13 + 5) % 17) as f64 - 8.0).collect()
    }

    fn reference_exclusive(d: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; d.len()];
        let mut acc = 0.0;
        for (o, v) in out.iter_mut().zip(d) {
            *o = acc;
            acc += v;
        }
        out
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn exclusive_scan_matches_reference_all_policies() {
        for n in [0, 1, 5, 64, 65, 1000, 4097] {
            let d = data(n);
            let expect = reference_exclusive(&d);
            let total_ref: f64 = d.iter().sum();

            let mut out = vec![0.0; n];
            let t = exclusive_scan::<SeqExec>(0..n, &mut out, |i| d[i]);
            assert_close(&out, &expect);
            assert!((t - total_ref).abs() < 1e-9);

            let mut out = vec![0.0; n];
            let t = exclusive_scan::<ParExec>(0..n, &mut out, |i| d[i]);
            assert_close(&out, &expect);
            assert!((t - total_ref).abs() < 1e-9);

            let mut out = vec![0.0; n];
            let t = exclusive_scan::<SimGpuExec<64>>(0..n, &mut out, |i| d[i]);
            assert_close(&out, &expect);
            assert!((t - total_ref).abs() < 1e-9);
        }
    }

    #[test]
    fn inclusive_scan_matches_reference() {
        let n = 333;
        let d = data(n);
        let mut expect = reference_exclusive(&d);
        for (e, v) in expect.iter_mut().zip(&d) {
            *e += v;
        }
        let mut out = vec![0.0; n];
        inclusive_scan::<ParExec>(0..n, &mut out, |i| d[i]);
        assert_close(&out, &expect);
        let mut out = vec![0.0; n];
        inclusive_scan::<SimGpuExec<32>>(0..n, &mut out, |i| d[i]);
        assert_close(&out, &expect);
    }

    #[test]
    fn offset_range_scans_correct_window() {
        let d = data(100);
        let mut out = vec![0.0; 10];
        exclusive_scan::<SeqExec>(40..50, &mut out, |i| d[i]);
        let expect = reference_exclusive(&d[40..50]);
        assert_close(&out, &expect);
    }

    #[test]
    #[should_panic(expected = "output length must match range")]
    fn mismatched_output_length_panics() {
        let mut out = vec![0.0; 3];
        exclusive_scan::<SeqExec>(0..5, &mut out, |_| 1.0);
    }
}
