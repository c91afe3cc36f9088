//! Intentionally-failing kernels: positive controls for the suite's
//! fault-tolerance layer (per-kernel isolation, watchdog, retry).
//!
//! Same role [`crate::sanitize::fixtures`] plays for the sanitizer: they
//! implement [`KernelBase`] like real kernels but are deliberately excluded
//! from [`crate::registry`], so the suite only runs them when a test (or a
//! fault-injection exercise) asks for them by name.
//!
//! * [`Panicky`] (`Fixture_PANIC`) — panics unconditionally mid-execution:
//!   the non-transient crash the isolation layer must contain without
//!   retrying.
//! * [`Flaky`] (`Fixture_FLAKY`) — evaluates the `fixture.flaky` simfault
//!   failpoint each execution and fails only when it fires (message keeps
//!   the `simfault:` prefix, so the failure classifies as *transient* and
//!   retry-with-backoff applies). With the failpoint disarmed it is a
//!   well-behaved DAXPY-shaped kernel.
//! * [`Hang`] (`Fixture_HANG`) — spins in short sleeps for [`HANG_TOTAL`]:
//!   the stuck node the watchdog timeout must cut loose.

use crate::common;
use crate::{
    time_reps, AnalyticMetrics, Feature, Group, KernelBase, KernelInfo, PaperModel, Tuning,
    VariantId,
};
use perfmodel::Complexity;
use std::time::Duration;

const FIXTURE_VARIANTS: &[VariantId] = &[VariantId::BaseSeq, VariantId::BaseSimGpu];

/// How long [`Hang`] stays stuck (well past any test watchdog budget, short
/// enough that a detached hung thread drains quickly after the suite exits).
pub const HANG_TOTAL: std::time::Duration = std::time::Duration::from_secs(5);

fn fixture_info(name: &'static str) -> KernelInfo {
    KernelInfo {
        name,
        group: Group::Basic,
        features: &[Feature::Forall],
        complexity: Complexity::N,
        default_size: 1 << 12,
        default_reps: 1,
        paper_models: &[PaperModel::Cuda],
        variants: FIXTURE_VARIANTS,
    }
}

/// The DAXPY-shaped work every fixture does when it is not failing, so a
/// passing run produces a real checksum like any registry kernel.
fn daxpy_run(
    variant: VariantId,
    n: usize,
    reps: usize,
    tuning: &Tuning,
    seed: u64,
) -> (Duration, f64) {
    let x = common::init_unit(n, seed);
    let mut y = vec![0.0f64; n];
    let time = time_reps(reps, || {
        let p = gpusim::DevicePtr::new(&mut y);
        // SAFETY: the index is in bounds of the allocation the pointer was built
        // from, and each parallel iterate writes a distinct element, so writes
        // never alias.
        let body = |i: usize| unsafe { p.write(i, p.read(i) + 2.5 * x[i]) };
        match variant {
            VariantId::BaseSeq => (0..n).for_each(body),
            VariantId::BaseSimGpu => gpusim::launch_1d(n, tuning.gpu_block_size, body),
            _ => unreachable!("fixture variants are checked by `execute`"),
        }
    });
    (time, common::checksum(&y))
}

/// `Fixture_PANIC`: unconditionally panics mid-execution (no `simfault:`
/// prefix — a genuine, non-retryable kernel crash).
pub struct Panicky;

impl KernelBase for Panicky {
    fn info(&self) -> KernelInfo {
        fixture_info("Fixture_PANIC")
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 16.0 * n as f64,
            bytes_written: 8.0 * n as f64,
            flops: 2.0 * n as f64,
        }
    }

    fn run(&self, _v: VariantId, n: usize, _reps: usize, _tuning: &Tuning) -> (Duration, f64) {
        panic!("Fixture_PANIC crashed deliberately at n={n}");
    }
}

/// `Fixture_FLAKY`: fails only while the `fixture.flaky` failpoint is armed
/// and fires; otherwise a normal kernel. An `err`-mode injection surfaces
/// as a `simfault:`-prefixed panic (the transient shape the runner's retry
/// policy accepts), so `fixture.flaky=err:p,seed=s` gives a kernel that
/// deterministically fails, then succeeds on some retry.
pub struct Flaky;

impl KernelBase for Flaky {
    fn info(&self) -> KernelInfo {
        fixture_info("Fixture_FLAKY")
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 16.0 * n as f64,
            bytes_written: 8.0 * n as f64,
            flops: 2.0 * n as f64,
        }
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        if let Err(e) = simfault::fail_point("fixture.flaky") {
            panic!("simfault: {e}");
        }
        daxpy_run(variant, n, reps, tuning, 13)
    }
}

/// `Fixture_HANG`: sleeps for [`HANG_TOTAL`] in short increments — a stuck
/// node from the watchdog's point of view. (Short increments so a detached
/// watchdog-abandoned thread re-checks nothing but also holds no locks.)
pub struct Hang;

impl KernelBase for Hang {
    fn info(&self) -> KernelInfo {
        fixture_info("Fixture_HANG")
    }

    fn metrics(&self, n: usize) -> AnalyticMetrics {
        AnalyticMetrics {
            bytes_read: 16.0 * n as f64,
            bytes_written: 8.0 * n as f64,
            flops: 2.0 * n as f64,
        }
    }

    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64) {
        // Deliberately real wall-clock: this fixture must hang for actual
        // time so the watchdog fires, not for virtual checker time.
        #[allow(clippy::disallowed_methods)]
        let slept_from = std::time::Instant::now();
        while slept_from.elapsed() < HANG_TOTAL {
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        daxpy_run(variant, n, reps, tuning, 17)
    }
}

/// All faulty fixtures, boxed like registry kernels.
pub fn all() -> Vec<Box<dyn KernelBase>> {
    vec![Box::new(Panicky), Box::new(Flaky), Box::new(Hang)]
}

/// Look up a faulty fixture by kernel name.
pub fn find(name: &str) -> Option<Box<dyn KernelBase>> {
    all().into_iter().find(|k| k.info().name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_not_in_the_registry() {
        for k in all() {
            let name = k.info().name;
            assert!(
                crate::find(name).is_none(),
                "{name} must stay out of the registry"
            );
        }
    }

    #[test]
    fn panicky_panics_without_simfault_prefix() {
        let err = std::panic::catch_unwind(|| {
            Panicky.execute(VariantId::BaseSeq, 64, 1, &Tuning::default());
        })
        .expect_err("Fixture_PANIC must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("Fixture_PANIC"), "{msg}");
        assert!(!msg.starts_with("simfault:"), "genuine crash, not transient");
    }

    #[test]
    fn flaky_is_well_behaved_when_disarmed_and_matches_reference() {
        // No simfault config installed: Flaky (and Hang's post-sleep work)
        // must produce the deterministic DAXPY checksum.
        let a = Flaky.execute(VariantId::BaseSeq, 256, 1, &Tuning::default());
        let b = Flaky.execute(VariantId::BaseSimGpu, 256, 1, &Tuning::default());
        assert!((a.checksum - b.checksum).abs() < 1e-10);
    }
}
