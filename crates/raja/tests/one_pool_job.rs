//! Structural cost of a host reduction: one `forall_reduce::<ParExec>` is
//! one pooled call. The fold's per-chunk partials are combined on the
//! caller; reducing them as a parallel iterator of their own would be a
//! second pooled call with its own slots, job and parts, and would first
//! gather the partials into a vector.
//!
//! A count, not a clock: the heap blocks the calling thread allocates. A
//! pooled call allocates them on the submitting thread (its result slots,
//! its job and the job's parts), so the reduction must cost exactly what
//! one `map(..).reduce(..)` over the same range costs, which is one pooled
//! call by construction.
//!
//! Its own binary: the counting allocator serves the whole process, and the
//! pool reads `RAYON_NUM_THREADS` once, so the one test pins width 2 before
//! the first parallel call.

use raja::reduce::forall_reduce;
use raja::ParExec;
use rayon::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the blocks each thread asks for.
struct Counting;

thread_local! {
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread's last frees run after its locals are gone.
    let _ = BLOCKS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only a const-initialised
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` contract passes through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` contract passes through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Blocks this thread allocated while `f` ran, and what `f` returned.
fn blocks<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = BLOCKS.with(Cell::get);
    let out = f();
    (BLOCKS.with(Cell::get) - before, out)
}

#[test]
fn a_par_reduction_is_one_pooled_call() {
    // Must precede the first parallel call: the pool reads it once.
    std::env::set_var("RAYON_NUM_THREADS", "2");
    assert_eq!(rayon::current_num_threads(), 2);
    const N: usize = 100_000;
    let x: Vec<f64> = (0..N).map(|i| (i % 97) as f64 * 0.5).collect();
    let map = |i: usize| x[i];
    let add = |a: f64, b: f64| a + b;
    // Warm up: the pool's threads and first-use state are not the call's.
    for _ in 0..3 {
        forall_reduce::<ParExec, f64>(0..N, 0.0, map, add);
    }

    let (one_call, want) = blocks(|| (0..N).into_par_iter().map(map).reduce(|| 0.0, add));
    let (reduction, got) = blocks(|| forall_reduce::<ParExec, f64>(0..N, 0.0, map, add));
    eprintln!("one pooled map/reduce: {one_call} blocks; forall_reduce: {reduction} blocks");
    assert!(one_call > 0, "the reference call must be pooled at width 2");
    assert_eq!(
        reduction, one_call,
        "forall_reduce::<ParExec> allocated {reduction} blocks, one pooled call {one_call}: \
         are the fold's partials reduced by a second pooled call again?"
    );
    assert!((got - want).abs() <= 1e-9 * want.abs(), "{got} vs {want}");
}
