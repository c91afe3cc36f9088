//! Structural cost of a host reduction: one `forall_reduce(ParExec, ..)` is
//! one pooled call. The fold's per-chunk partials are combined on the
//! caller; reducing them as a parallel iterator of their own would be a
//! second pooled call with its own slots, job and parts, and would first
//! gather the partials into a vector.
//!
//! A count, not a clock: the heap blocks the calling thread allocates. A
//! pooled call allocates them on the submitting thread (its result slots,
//! its job and the job's parts), so the reduction must cost exactly what
//! one `forall(ParExec, ..)` over the same range costs, which is one pooled
//! call by construction.
//!
//! Its own binary: the counting allocator (`common`) serves the whole
//! process, and the pool reads `RAYON_NUM_THREADS` once, so the one test
//! pins width 2 before the first parallel call.

mod common;

use common::blocks;
use raja::reduce::forall_reduce;
use raja::{ExecPolicy, ParExec};
use std::hint::black_box;

#[test]
fn a_par_reduction_is_one_pooled_call() {
    // Must precede the first parallel call: the pool reads it once.
    std::env::set_var("RAYON_NUM_THREADS", "2");
    const N: usize = 100_000;
    let x: Vec<f64> = (0..N).map(|i| (i % 97) as f64 * 0.5).collect();
    let map = |i: usize| x[i];
    let add = |a: f64, b: f64| a + b;
    let visit = |i: usize| {
        black_box(map(i));
    };
    // Warm up: the pool's threads and first-use state are not the call's.
    for _ in 0..3 {
        forall_reduce(ParExec, 0..N, 0.0, map, add);
        ParExec.forall(0..N, &visit);
    }

    let (one_call, ()) = blocks(|| ParExec.forall(0..N, &visit));
    let (reduction, got) = blocks(|| forall_reduce(ParExec, 0..N, 0.0, map, add));
    eprintln!("one pooled forall: {one_call} blocks; forall_reduce: {reduction} blocks");
    assert!(one_call > 0, "the reference call must be pooled at width 2");
    assert_eq!(
        reduction, one_call,
        "forall_reduce(ParExec, ..) allocated {reduction} blocks, one pooled call {one_call}: \
         are the fold's partials reduced by a second pooled call again?"
    );
    let want: f64 = x.iter().sum();
    assert!((got - want).abs() <= 1e-9 * want.abs(), "{got} vs {want}");
}
