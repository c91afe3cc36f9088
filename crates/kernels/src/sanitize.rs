//! `simsan` sweep API: run kernels under the simulated-device sanitizer.
//!
//! The real RAJAPerf suite is validated on GPUs with `compute-sanitizer`
//! (memcheck / racecheck / initcheck); this module is the equivalent sweep
//! for the simulated device. [`sanitize_kernel`] runs one kernel variant
//! inside a [`gpusim::sanitizer::SanitizerScope`] and returns the findings
//! together with sanitized and unsanitized timings (the overhead is worth
//! recording as run metadata, as Caliper does for instrumentation cost).
//! [`sanitize_all`] sweeps every simulated-device variant of every registry
//! kernel — the expectation, enforced by tests, is **zero findings**: the
//! suite's kernels are race-free, in-bounds, and correctly barriered.
//!
//! The [`fixtures`] module provides intentionally-broken kernels as
//! positive controls. They implement [`KernelBase`] like real kernels but
//! are *not* in the registry, so the suite never runs them by accident.

use crate::{AnalyticMetrics, KernelBase, KernelInfo, Tuning, VariantId};
use gpusim::sanitizer::{Finding, SanitizerScope};
use simsched::time::Instant;
use std::time::Duration;

/// Problem size [`sanitize_all`] uses when the caller does not specify one.
/// Shadow tracking costs a hash-map operation per instrumented access, so
/// the sweep runs at a reduced size — hazard classes are size-independent
/// (a race between two threads of one block shows up at any size that
/// fills a block).
pub const DEFAULT_SANITIZE_SIZE: usize = 4096;

/// The result of sanitizing one kernel variant.
#[derive(Debug, Clone)]
pub struct SanitizeOutcome {
    /// Kernel name (`Group_KERNEL`).
    pub kernel: String,
    /// Variant that was executed.
    pub variant: VariantId,
    /// Problem size used.
    pub problem_size: usize,
    /// The sanitizer's findings for this run.
    pub findings: Vec<Finding>,
    /// Total hazard occurrences (including deduplicated repeats).
    pub occurrences: u64,
    /// Device launches observed.
    pub launches: u64,
    /// Wall time of the sanitized run.
    pub sanitized_time: Duration,
    /// Wall time of an identical unsanitized run (overhead baseline).
    pub baseline_time: Duration,
}

impl SanitizeOutcome {
    /// True when the sanitizer saw no hazards.
    pub fn is_clean(&self) -> bool {
        self.occurrences == 0
    }

    /// Sanitized / baseline slowdown factor (≥ 1.0 in practice; 1.0 when
    /// the baseline is too fast to resolve).
    pub fn overhead_ratio(&self) -> f64 {
        let base = self.baseline_time.as_secs_f64();
        if base > 0.0 {
            (self.sanitized_time.as_secs_f64() / base).max(1.0)
        } else {
            1.0
        }
    }

    /// One-line summary for reports.
    pub fn summary(&self) -> String {
        format!(
            "{:<28} {:<12} {:>4} site(s) {:>6} occurrence(s)  overhead {:>5.1}x",
            self.kernel,
            self.variant.name(),
            self.findings.len(),
            self.occurrences,
            self.overhead_ratio(),
        )
    }
}

/// Run `variant` of `k` at size `n` under the sanitizer. Returns `None`
/// when the kernel does not implement the variant.
pub fn sanitize_kernel(
    k: &dyn KernelBase,
    variant: VariantId,
    n: usize,
    tuning: &Tuning,
) -> Option<SanitizeOutcome> {
    let info = k.info();
    if !info.variants.contains(&variant) {
        return None;
    }
    // Unsanitized baseline first, so the overhead ratio compares like runs.
    let start = Instant::now();
    k.execute(variant, n, 1, tuning);
    let baseline_time = start.elapsed();

    let scope = SanitizerScope::begin(format!("{}/{}", info.name, variant.name()));
    let start = Instant::now();
    k.execute(variant, n, 1, tuning);
    let sanitized_time = start.elapsed();
    let report = scope.finish();

    Some(SanitizeOutcome {
        kernel: info.name.to_string(),
        variant,
        problem_size: n,
        findings: report.findings,
        occurrences: report.occurrences,
        launches: report.launches,
        sanitized_time,
        baseline_time,
    })
}

/// The simulated-device variants the sweep covers.
pub const SANITIZED_VARIANTS: &[VariantId] = &[VariantId::BaseSimGpu, VariantId::RajaSimGpu];

/// Sweep every simulated-device variant of every registry kernel at size
/// `n` (or [`DEFAULT_SANITIZE_SIZE`]). Kernels without a simulated-device
/// variant are skipped.
pub fn sanitize_all(n: Option<usize>, tuning: &Tuning) -> Vec<SanitizeOutcome> {
    let n = n.unwrap_or(DEFAULT_SANITIZE_SIZE);
    let mut out = Vec::new();
    for k in crate::registry() {
        for &v in SANITIZED_VARIANTS {
            if let Some(outcome) = sanitize_kernel(k.as_ref(), v, n, tuning) {
                out.push(outcome);
            }
        }
    }
    out
}

/// Intentionally-hazardous kernels used as sanitizer positive controls.
///
/// Both are deliberately excluded from [`crate::registry`]: they exist so
/// tests (and `--sanitize` users) can confirm the sanitizer actually fires,
/// the same role `cuda-memcheck`'s own test kernels play.
pub mod fixtures {
    use super::*;
    use crate::common;
    use crate::{time_reps, Feature, Group, PaperModel};
    use perfmodel::Complexity;

    const FIXTURE_VARIANTS: &[VariantId] = &[
        VariantId::BaseSeq,
        VariantId::BaseSimGpu,
        VariantId::RajaSimGpu,
    ];

    fn fixture_info(name: &'static str, size: usize) -> KernelInfo {
        KernelInfo {
            name,
            group: Group::Basic,
            features: &[Feature::Forall],
            complexity: Complexity::N,
            default_size: size,
            default_reps: 1,
            paper_models: &[PaperModel::Cuda],
            variants: FIXTURE_VARIANTS,
        }
    }

    /// `Fixture_RACY_SUM`: every thread accumulates into `out[0]` with a
    /// plain read-modify-write instead of an atomic — the canonical global
    /// data race (`PI_ATOMIC` without the atomic). The sequential simulator
    /// computes the "right" answer anyway, which is exactly why the
    /// sanitizer must flag it.
    pub struct RacySum;

    impl KernelBase for RacySum {
        fn info(&self) -> KernelInfo {
            fixture_info("Fixture_RACY_SUM", 1 << 12)
        }

        fn metrics(&self, n: usize) -> AnalyticMetrics {
            AnalyticMetrics {
                bytes_read: 16.0 * n as f64,
                bytes_written: 8.0 * n as f64,
                flops: n as f64,
            }
        }

        fn run(
            &self,
            variant: VariantId,
            n: usize,
            reps: usize,
            tuning: &Tuning,
        ) -> (Duration, f64) {
            let x = common::init_unit(n, 7);
            let mut out = vec![0.0f64; 1];
            let time = time_reps(reps, || {
                out[0] = 0.0;
                let p = gpusim::DevicePtr::new(&mut out);
                let bs = tuning.gpu_block_size;
                // SAFETY: the index is in bounds of the allocation the pointer was built
                // from, and each parallel iterate writes a distinct element, so writes
                // never alias.
                let body = |i: usize| unsafe { p.write(0, p.read(0) + x[i]) };
                match variant {
                    VariantId::BaseSeq => (0..n).for_each(body),
                    VariantId::BaseSimGpu => gpusim::launch_1d(n, bs, body),
                    VariantId::RajaSimGpu => crate::dispatch_gpu_block!(bs, P, {
                        raja::forall::<P>(0..n, body)
                    }),
                    _ => unreachable!("fixture variants are checked by `execute`"),
                }
            });
            (time, common::checksum(&out))
        }
    }

    /// `Fixture_MISSING_BARRIER`: the block leader stages a value in shared
    /// memory and every other thread reads it *in the same phase* — a
    /// missing `__syncthreads()` between producer and consumers.
    pub struct MissingBarrier;

    impl KernelBase for MissingBarrier {
        fn info(&self) -> KernelInfo {
            fixture_info("Fixture_MISSING_BARRIER", 1 << 12)
        }

        fn metrics(&self, n: usize) -> AnalyticMetrics {
            AnalyticMetrics {
                bytes_read: 8.0 * n as f64,
                bytes_written: 8.0 * n as f64,
                flops: n as f64,
            }
        }

        fn run(
            &self,
            variant: VariantId,
            n: usize,
            reps: usize,
            tuning: &Tuning,
        ) -> (Duration, f64) {
            let x = common::init_unit(n, 11);
            let mut out = vec![0.0f64; n];
            let time = time_reps(reps, || match variant {
                VariantId::BaseSeq => {
                    let scale = x[0];
                    for i in 0..n {
                        out[i] = scale * x[i];
                    }
                }
                VariantId::BaseSimGpu | VariantId::RajaSimGpu => {
                    let p = gpusim::DevicePtr::new(&mut out);
                    let cfg = gpusim::LaunchConfig::linear(n, tuning.gpu_block_size)
                        .with_shared_f64(1);
                    gpusim::launch(&cfg, |block| {
                        // One phase: leader writes, everyone reads. The fix
                        // would be two `block.threads` calls (a barrier).
                        block.threads(|t, shared| {
                            if t.flat_thread() == 0 {
                                shared[0] = x[0];
                            }
                            let i = t.global_id_x();
                            if i < n {
                                // SAFETY: the index is in bounds of the allocation the pointer was built
                                // from, and each parallel iterate writes a distinct element, so writes
                                // never alias.
                                unsafe { p.write(i, shared[0] * x[i]) };
                            }
                        });
                    });
                }
                _ => unreachable!("fixture variants are checked by `execute`"),
            });
            (time, common::checksum(&out))
        }
    }

    /// Both fixtures, boxed like registry kernels.
    pub fn all() -> Vec<Box<dyn KernelBase>> {
        vec![Box::new(RacySum), Box::new(MissingBarrier)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::sanitizer::HazardKind;

    #[test]
    fn racy_fixture_is_flagged_with_coordinates() {
        let outcome = sanitize_kernel(
            &fixtures::RacySum,
            VariantId::RajaSimGpu,
            512,
            &Tuning::default(),
        )
        .expect("fixture supports RAJA_SimGpu");
        assert!(!outcome.is_clean(), "positive control must fire");
        let races: Vec<&Finding> = outcome
            .findings
            .iter()
            .filter(|f| {
                matches!(
                    f.kind,
                    HazardKind::WriteWriteRace | HazardKind::ReadWriteRace
                )
            })
            .collect();
        assert!(!races.is_empty(), "races detected: {:#?}", outcome.findings);
        let f = races[0];
        assert_eq!(f.label, "Fixture_RACY_SUM/RAJA_SimGpu");
        assert_eq!(f.index, 0, "the contended cell");
        assert_eq!(f.region, "raja::forall<SimGpu>");
        assert!(f.other_thread.is_some(), "both racing threads reported");
        // 512 elements in 256-thread blocks: the hazard is intra-block, so
        // it fires in phase 0 of each block.
        assert_eq!(f.phase, 0);
    }

    #[test]
    fn missing_barrier_fixture_is_flagged_in_shared_memory() {
        let outcome = sanitize_kernel(
            &fixtures::MissingBarrier,
            VariantId::BaseSimGpu,
            512,
            &Tuning::default(),
        )
        .expect("fixture supports Base_SimGpu");
        assert!(!outcome.is_clean());
        let hits: Vec<&Finding> = outcome
            .findings
            .iter()
            .filter(|f| f.kind == HazardKind::MissingBarrier)
            .collect();
        assert!(!hits.is_empty(), "{:#?}", outcome.findings);
        let f = hits[0];
        assert_eq!(f.index, 0, "shared word 0");
        assert_eq!(
            f.other_thread,
            Some(gpusim::Dim3::d3(0, 0, 0)),
            "the leader wrote it"
        );
        assert!(f.thread.x > 0, "a non-leader thread read it");
    }

    #[test]
    fn unsupported_variant_returns_none() {
        let r = sanitize_kernel(
            &fixtures::RacySum,
            VariantId::RajaPar,
            128,
            &Tuning::default(),
        );
        assert!(r.is_none());
    }

    #[test]
    fn representative_real_kernels_are_clean() {
        // The shared-memory tile kernel (barriered), a reduction (per-block
        // partials), and an atomic kernel (through raja::atomic) — the
        // three patterns most likely to false-positive if the race windows
        // were wrong.
        for name in ["Basic_MAT_MAT_SHARED", "Stream_DOT", "Basic_PI_ATOMIC"] {
            let k = crate::find(name).expect(name);
            for &v in SANITIZED_VARIANTS {
                if let Some(o) = sanitize_kernel(k, v, 2048, &Tuning::default()) {
                    assert!(
                        o.is_clean(),
                        "{name}/{}: {:#?}",
                        v.name(),
                        o.findings
                    );
                    assert!(o.launches > 0, "{name} launched nothing");
                }
            }
        }
    }

    #[test]
    fn full_registry_sweep_is_clean() {
        // The acceptance bar: zero findings across every simulated-device
        // variant of all 76 kernels.
        let outcomes = sanitize_all(Some(1024), &Tuning::default());
        assert!(!outcomes.is_empty());
        let dirty: Vec<String> = outcomes
            .iter()
            .filter(|o| !o.is_clean())
            .map(|o| o.summary())
            .collect();
        assert!(dirty.is_empty(), "hazards in real kernels:\n{}", dirty.join("\n"));
    }
}
