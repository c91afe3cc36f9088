//! Portable atomic operations.
//!
//! RAJA's `RAJA::atomicAdd<atomic_policy>` works uniformly across host and
//! device back-ends. The suite's `ATOMIC`, `PI_ATOMIC`, `DAXPY_ATOMIC`, and
//! `HISTOGRAM` kernels depend on it. Rust has no `AtomicF64`, so this module
//! provides one via compare-exchange on the bit representation — the exact
//! technique pre-sm_60 CUDA used for double-precision `atomicAdd`.

use std::sync::atomic::{AtomicU64, Ordering};

/// A `f64` with atomic read-modify-write operations.
///
/// All operations use relaxed ordering: RAJAPerf atomics are pure data
/// reductions with no cross-thread control dependencies, matching
/// `RAJA::atomicAdd`'s semantics (device atomics are unordered too).
#[repr(transparent)]
#[derive(Debug, Default)]
pub struct AtomicF64 {
    bits: AtomicU64,
}

impl AtomicF64 {
    /// Create with an initial value.
    pub fn new(v: f64) -> AtomicF64 {
        AtomicF64 {
            bits: AtomicU64::new(v.to_bits()),
        }
    }

    /// Atomically load the current value.
    #[inline]
    pub fn load(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Atomically replace the current value.
    #[inline]
    pub fn store(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Atomically add `v`, returning the previous value.
    #[inline]
    pub fn fetch_add(&self, v: f64) -> f64 {
        self.fetch_update(|old| old + v)
    }

    /// Atomically subtract `v`, returning the previous value.
    #[inline]
    pub fn fetch_sub(&self, v: f64) -> f64 {
        self.fetch_update(|old| old - v)
    }

    /// Atomically take `max(current, v)`, returning the previous value.
    #[inline]
    pub fn fetch_max(&self, v: f64) -> f64 {
        self.fetch_update(|old| old.max(v))
    }

    /// Atomically take `min(current, v)`, returning the previous value.
    #[inline]
    pub fn fetch_min(&self, v: f64) -> f64 {
        self.fetch_update(|old| old.min(v))
    }

    /// CAS loop applying `f` to the current value; returns the old value.
    #[inline]
    fn fetch_update(&self, f: impl Fn(f64) -> f64) -> f64 {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let old = f64::from_bits(cur);
            let new = f(old).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return old,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Consume the atomic and return the final value.
    pub fn into_inner(self) -> f64 {
        f64::from_bits(self.bits.into_inner())
    }
}

/// View a mutable `f64` slice as a slice of [`AtomicF64`] for the duration
/// of a kernel — the portable equivalent of passing a device pointer to an
/// atomic kernel. Safe because `AtomicF64` is `repr(transparent)` over
/// `AtomicU64`, which has the same layout as `u64`/`f64`.
pub fn as_atomic_slice(data: &mut [f64]) -> &[AtomicF64] {
    // SAFETY: f64 and AtomicF64 have identical size/alignment (both are
    // 8-byte plain data); the exclusive borrow guarantees no non-atomic
    // access can occur while the atomic view is alive.
    unsafe { std::slice::from_raw_parts(data.as_ptr() as *const AtomicF64, data.len()) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ParExec, SimGpuExec};
    use crate::{forall, ExecPolicy};

    #[test]
    fn fetch_add_accumulates() {
        let a = AtomicF64::new(1.0);
        assert_eq!(a.fetch_add(2.5), 1.0);
        assert_eq!(a.load(), 3.5);
    }

    #[test]
    fn fetch_min_max() {
        let a = AtomicF64::new(5.0);
        a.fetch_max(7.0);
        assert_eq!(a.load(), 7.0);
        a.fetch_max(3.0);
        assert_eq!(a.load(), 7.0);
        a.fetch_min(-1.0);
        assert_eq!(a.load(), -1.0);
    }

    fn concurrent_sum(policy: impl ExecPolicy) {
        let n = 10_000;
        let acc = AtomicF64::new(0.0);
        policy.forall(0..n, &|_| {
            acc.fetch_add(1.0);
        });
        assert_eq!(acc.load(), n as f64);
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        concurrent_sum(ParExec);
        concurrent_sum(SimGpuExec::default());
    }

    #[test]
    fn atomic_slice_view_roundtrips() {
        let mut data = vec![0.0f64; 8];
        {
            let atoms = as_atomic_slice(&mut data);
            for (i, a) in atoms.iter().enumerate() {
                a.fetch_add(i as f64);
            }
        }
        assert_eq!(data[3], 3.0);
        assert_eq!(data[7], 7.0);
    }

    #[test]
    fn histogram_via_atomic_slice() {
        let n = 4096;
        let bins = 10;
        let mut counts = vec![0.0f64; bins];
        {
            let atoms = as_atomic_slice(&mut counts);
            forall::<ParExec>(0..n, |i| {
                atoms[i % bins].fetch_add(1.0);
            });
        }
        let total: f64 = counts.iter().sum();
        assert_eq!(total, n as f64);
    }

    #[test]
    fn into_inner_returns_final_value() {
        let a = AtomicF64::new(2.0);
        a.fetch_add(3.0);
        assert_eq!(a.into_inner(), 5.0);
    }
}
