//! The RAJA Performance Suite kernels.
//!
//! All 76 kernels of the paper's Table I, organized into the seven groups
//! (§II-A): [`algorithm`], [`apps`], [`basic`], [`comm`], [`lcals`],
//! [`polybench`], and [`stream`]. A kernel is four things, and only these
//! (the [`KernelBase`] contract):
//!
//! * `info` — its Table I row: name, group, features, complexity, and the
//!   *variants* it implements — Base (direct) and RAJA (through the
//!   portability layer) for each back-end: sequential, host-parallel (the
//!   OpenMP stand-in), and simulated GPU (the CUDA/HIP stand-in);
//! * `metrics` — exact analytic counts per repetition (§II-B): bytes read,
//!   bytes written, FLOPs — the inputs to Fig. 1 and the performance models;
//! * `run` — untimed setup, the per-variant loops under [`time_reps`], and
//!   the untimed *checksum* that validates every variant against the
//!   reference sequential implementation;
//! * optionally `shape` — the microarchitectural descriptors the
//!   TMA/roofline models need that its loop structure dictates.
//!
//! The suite owns the rest, once, as provided trait methods:
//! [`KernelBase::execute`] is the run protocol (variant check → `run` →
//! [`RunResult`] with `reps` and `metrics`), and [`KernelBase::signature`]
//! builds the [`ExecSignature`] from `info`'s name and complexity and
//! `metrics`' counts before `shape` refines it — so a kernel cannot
//! mis-report any of them.
//!
//! The [`registry`] lists every kernel with its Table I annotations
//! (programming models, features, complexity).

// The suite's kernels are deliberately written as C-style indexed loops —
// that is the computational idiom the paper studies — so the iterator-style
// rewrite clippy suggests would misrepresent the kernels.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::manual_memcpy)]

use perfmodel::{Complexity, ExecSignature};
use simsched::time::Instant;
use std::time::Duration;

pub mod algorithm;
pub mod apps;
pub mod basic;
pub mod comm;
pub mod common;
pub mod faulty;
pub mod lcals;
pub mod polybench;
pub mod sanitize;
pub mod stream;

/// The seven kernel groups of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Group {
    /// Parallel-construct and memory-operation kernels.
    Algorithm,
    /// Kernels from LLNL multiphysics applications.
    Apps,
    /// Small kernels that challenge compilers.
    Basic,
    /// MPI halo-exchange communication patterns.
    Comm,
    /// Livermore Compiler Analysis Loop Suite.
    Lcals,
    /// Polyhedral-optimization study kernels.
    Polybench,
    /// McCalpin STREAM kernels.
    Stream,
}

impl Group {
    /// All groups in Table I order.
    pub fn all() -> [Group; 7] {
        [
            Group::Algorithm,
            Group::Apps,
            Group::Basic,
            Group::Comm,
            Group::Lcals,
            Group::Polybench,
            Group::Stream,
        ]
    }

    /// Display name used in kernel names (`Stream_TRIAD`).
    pub fn name(&self) -> &'static str {
        match self {
            Group::Algorithm => "Algorithm",
            Group::Apps => "Apps",
            Group::Basic => "Basic",
            Group::Comm => "Comm",
            Group::Lcals => "Lcals",
            Group::Polybench => "Polybench",
            Group::Stream => "Stream",
        }
    }
}

/// RAJA features a kernel exercises (Table I "Features" columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feature {
    /// `RAJA::forall` loop execution.
    Forall,
    /// Nested (`RAJA::kernel`) execution.
    Kernel,
    /// Sorts.
    Sort,
    /// Scans.
    Scan,
    /// Reductions.
    Reduction,
    /// Atomic operations.
    Atomic,
    /// Data views/layouts.
    View,
    /// Workgroup (fused-loop) constructs.
    Workgroup,
    /// MPI communication.
    Mpi,
}

/// Programming models a kernel is implemented in upstream (Table I columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperModel {
    /// Sequential C++.
    Seq,
    /// OpenMP host threading.
    OpenMp,
    /// OpenMP target offload.
    OmpTarget,
    /// CUDA.
    Cuda,
    /// HIP/ROCm.
    Hip,
    /// SYCL.
    Sycl,
    /// Kokkos (maintained by the Kokkos team; inventory only).
    Kokkos,
}

/// Execution variants in this reproduction, mirroring RAJAPerf's
/// Base/RAJA × back-end matrix. `Par` stands in for OpenMP; `SimGpu` for
/// CUDA/HIP (see the `gpusim` crate for the substitution rationale).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VariantId {
    /// Direct sequential loops (the reference implementation).
    BaseSeq,
    /// Portability layer, sequential policy.
    RajaSeq,
    /// Direct rayon parallel loops.
    BasePar,
    /// Portability layer, parallel policy.
    RajaPar,
    /// Direct simulated-device launches.
    BaseSimGpu,
    /// Portability layer, simulated-device policy.
    RajaSimGpu,
}

impl VariantId {
    /// All variants in canonical order.
    pub fn all() -> [VariantId; 6] {
        [
            VariantId::BaseSeq,
            VariantId::RajaSeq,
            VariantId::BasePar,
            VariantId::RajaPar,
            VariantId::BaseSimGpu,
            VariantId::RajaSimGpu,
        ]
    }

    /// RAJAPerf-style display name.
    pub fn name(&self) -> &'static str {
        match self {
            VariantId::BaseSeq => "Base_Seq",
            VariantId::RajaSeq => "RAJA_Seq",
            VariantId::BasePar => "Base_Par",
            VariantId::RajaPar => "RAJA_Par",
            VariantId::BaseSimGpu => "Base_SimGpu",
            VariantId::RajaSimGpu => "RAJA_SimGpu",
        }
    }

    /// Parse a display name.
    pub fn parse(s: &str) -> Option<VariantId> {
        VariantId::all().into_iter().find(|v| v.name() == s)
    }

    /// Whether this is a RAJA (portability-layer) variant.
    pub fn is_raja(&self) -> bool {
        matches!(
            self,
            VariantId::RajaSeq | VariantId::RajaPar | VariantId::RajaSimGpu
        )
    }
}

/// Runtime tuning parameters (RAJAPerf's GPU block-size tunings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuning {
    /// Thread-block size for simulated-device variants.
    pub gpu_block_size: usize,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            gpu_block_size: gpusim::DEFAULT_BLOCK_SIZE,
        }
    }
}

/// Analytic metrics per repetition (§II-B): the platform-independent
/// counters RAJAPerf computes for every kernel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AnalyticMetrics {
    /// Bytes read from memory per rep.
    pub bytes_read: f64,
    /// Bytes written to memory per rep.
    pub bytes_written: f64,
    /// Floating-point operations per rep.
    pub flops: f64,
}

impl AnalyticMetrics {
    /// FLOPs per byte of memory touched (the derived metric of §II-B).
    pub fn flops_per_byte(&self) -> f64 {
        let total = self.bytes_read + self.bytes_written;
        if total > 0.0 {
            self.flops / total
        } else {
            0.0
        }
    }
}

/// Static description of a kernel (its Table I row).
#[derive(Debug, Clone)]
pub struct KernelInfo {
    /// Full name, `Group_KERNEL`.
    pub name: &'static str,
    /// Group membership.
    pub group: Group,
    /// RAJA features exercised.
    pub features: &'static [Feature],
    /// Work complexity annotation.
    pub complexity: Complexity,
    /// Default problem size (stored elements).
    pub default_size: usize,
    /// Default repetition count at the default size.
    pub default_reps: usize,
    /// Programming models implemented upstream (Table I columns).
    pub paper_models: &'static [PaperModel],
    /// Variants available in this reproduction.
    pub variants: &'static [VariantId],
}

/// Result of executing a kernel variant.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Order-tolerant checksum of the kernel's outputs; equal (within FP
    /// reduction tolerance) across variants.
    pub checksum: f64,
    /// Wall time for all repetitions.
    pub time: Duration,
    /// Repetitions executed.
    pub reps: usize,
    /// Analytic metrics for one repetition at this size.
    pub metrics: AnalyticMetrics,
}

impl RunResult {
    /// Mean wall time per repetition, seconds.
    pub fn time_per_rep(&self) -> f64 {
        self.time.as_secs_f64() / self.reps.max(1) as f64
    }
}

/// The interface every suite kernel implements (the contract is in the
/// [crate docs](crate)): `info`, `metrics`, `run` and optionally `shape` are
/// the kernel's; `execute` and `signature` are provided.
pub trait KernelBase: Send + Sync {
    /// Static description (Table I row).
    fn info(&self) -> KernelInfo;

    /// Analytic metrics per repetition at problem size `n`.
    fn metrics(&self, n: usize) -> AnalyticMetrics;

    /// The kernel's own part of an execution: set up its data (untimed),
    /// run `reps` repetitions of `variant` under [`time_reps`], and
    /// checksum the outputs (untimed). Returns the timed span and the
    /// checksum. Callers go through [`Self::execute`], which has already
    /// checked that `variant` is in `info().variants`.
    fn run(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> (Duration, f64);

    /// Set the structural descriptors (reuse, branches, atomics, launches,
    /// …) this kernel's loop structure dictates on its base signature. The
    /// default leaves the streaming defaults.
    fn shape(&self, _n: usize, _s: &mut ExecSignature) {}

    /// The execution signature at problem size `n` for the performance
    /// models: streaming defaults carrying this kernel's Table I name and
    /// complexity and the byte/FLOP counts of [`Self::metrics`], then
    /// [`Self::shape`].
    fn signature(&self, n: usize) -> ExecSignature {
        let m = self.metrics(n);
        let info = self.info();
        let mut s = ExecSignature::streaming(info.name, n);
        s.flops = m.flops;
        s.bytes_read = m.bytes_read;
        s.bytes_written = m.bytes_written;
        s.complexity = info.complexity;
        self.shape(n, &mut s);
        s
    }

    /// Execute `reps` repetitions of `variant` at problem size `n`,
    /// returning timing, metrics, and the output checksum.
    ///
    /// # Panics
    /// Panics if `variant` is not in `info().variants`.
    fn execute(&self, variant: VariantId, n: usize, reps: usize, tuning: &Tuning) -> RunResult {
        check_variant(&self.info(), variant);
        let (time, checksum) = self.run(variant, n, reps, tuning);
        RunResult {
            checksum,
            time,
            reps,
            metrics: self.metrics(n),
        }
    }
}

/// Time a closure over `reps` repetitions (the standard kernel timing
/// harness; setup happens before, checksum after).
///
/// Each repetition routes the loop counter and the body's result through
/// [`std::hint::black_box`], so the optimizer can neither collapse the rep
/// loop nor discard a result it could otherwise prove unused — keeping
/// release-mode timings honest. The body itself stays transparent (only its
/// *result* is pinned): making the closure opaque instead would strip
/// aliasing facts from its captures and deoptimize the very loops being
/// measured.
pub fn time_reps<T>(reps: usize, mut body: impl FnMut() -> T) -> Duration {
    let start = Instant::now();
    for i in 0..reps {
        std::hint::black_box(i);
        std::hint::black_box(body());
    }
    start.elapsed()
}

/// Assert that `variant` is supported, with a clear message.
pub fn check_variant(info: &KernelInfo, variant: VariantId) {
    assert!(
        info.variants.contains(&variant),
        "kernel {} does not implement variant {}",
        info.name,
        variant.name()
    );
}

/// Dispatch an elementwise `body(i)` over every variant back-end. Shared by
/// the map-style kernels, whose only difference is the loop body; the Base
/// arms are direct (plain loop / rayon / device launch) and the RAJA arms go
/// through the portability layer.
pub fn run_elementwise(variant: VariantId, n: usize, bs: usize, body: impl Fn(usize) + Sync) {
    use raja::policy::{ExecPolicy, ParExec, SeqExec, SimGpuExec};
    use rayon::prelude::*;
    match variant {
        VariantId::BaseSeq => (0..n).for_each(&body),
        VariantId::BasePar => (0..n).into_par_iter().for_each(&body),
        VariantId::BaseSimGpu => gpusim::launch_1d(n, bs, &body),
        VariantId::RajaSeq => SeqExec.forall(0..n, &body),
        VariantId::RajaPar => ParExec.forall(0..n, &body),
        VariantId::RajaSimGpu => SimGpuExec::new(bs).forall(0..n, &body),
    }
}

/// The RAJA arms of the binning kernels (`MULTI_REDUCE`, `HISTOGRAM`):
/// `bins` receives the per-bin sums of `map(i) = (bin, value)` over
/// `0..n` through the portability layer's multi-reduce
/// ([`raja::reduce::multi_reduce_sum`]). Their parallel Base arms add
/// atomically into shared bins, as upstream's do.
pub fn run_multi_reduce_raja(
    variant: VariantId,
    n: usize,
    bs: usize,
    bins: &mut [f64],
    map: impl Fn(usize) -> (usize, f64) + Sync,
) {
    use raja::policy::{ParExec, SeqExec, SimGpuExec};
    use raja::reduce::multi_reduce_sum;
    match variant {
        VariantId::RajaSeq => multi_reduce_sum(SeqExec, 0..n, bins, map),
        VariantId::RajaPar => multi_reduce_sum(ParExec, 0..n, bins, map),
        VariantId::RajaSimGpu => multi_reduce_sum(SimGpuExec::new(bs), 0..n, bins, map),
        _ => unreachable!("{} is not a RAJA variant", variant.name()),
    }
}

/// Variant sets used by kernel `info()` declarations.
pub const ALL_VARIANTS: &[VariantId] = &[
    VariantId::BaseSeq,
    VariantId::RajaSeq,
    VariantId::BasePar,
    VariantId::RajaPar,
    VariantId::BaseSimGpu,
    VariantId::RajaSimGpu,
];

/// Sequential-only variants (kernels whose upstream coverage is Seq-only).
pub const SEQ_VARIANTS: &[VariantId] = &[VariantId::BaseSeq, VariantId::RajaSeq];

/// Run every supported variant of `k` at size `n` and assert the checksums
/// agree with the Base_Seq reference within `rel` relative tolerance.
/// Returns the per-variant checksums. Used by unit and integration tests.
pub fn verify_variants(k: &dyn KernelBase, n: usize, rel: f64) -> Vec<(VariantId, f64)> {
    let info = k.info();
    let tuning = Tuning::default();
    let reference = k.execute(VariantId::BaseSeq, n, 1, &tuning).checksum;
    let mut out = Vec::new();
    for &v in info.variants {
        let r = k.execute(v, n, 1, &tuning);
        let denom = reference.abs().max(f64::MIN_POSITIVE);
        let rel_err = (r.checksum - reference).abs() / denom;
        assert!(
            common::close(r.checksum, reference, rel),
            "{}: variant {} checksum {} != reference {} (relative error {:.3e} > tolerance {:.1e})",
            info.name,
            v.name(),
            r.checksum,
            reference,
            rel_err,
            rel
        );
        out.push((v, r.checksum));
    }
    out
}

/// The full suite registry: every kernel of Table I, grouped and ordered as
/// in the paper.
///
/// Built once and served from a static: kernels are stateless descriptor
/// objects, and selection/lookup paths (`find`, per-sweep-cell kernel
/// filters) used to rebuild and re-box all 76 entries on every call.
pub fn registry() -> &'static [Box<dyn KernelBase>] {
    static REGISTRY: std::sync::OnceLock<Vec<Box<dyn KernelBase>>> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut v: Vec<Box<dyn KernelBase>> = Vec::with_capacity(76);
        algorithm::register(&mut v);
        apps::register(&mut v);
        basic::register(&mut v);
        comm::register(&mut v);
        lcals::register(&mut v);
        polybench::register(&mut v);
        stream::register(&mut v);
        v
    })
}

/// Find a kernel by its full name.
pub fn find(name: &str) -> Option<&'static dyn KernelBase> {
    registry()
        .iter()
        .find(|k| k.info().name == name)
        .map(|k| k.as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_76_kernels() {
        let r = registry();
        assert_eq!(r.len(), 76, "Table I lists 76 kernels");
        // Group counts from Table I.
        let count = |g: Group| r.iter().filter(|k| k.info().group == g).count();
        assert_eq!(count(Group::Algorithm), 8);
        assert_eq!(count(Group::Apps), 15);
        assert_eq!(count(Group::Basic), 19);
        assert_eq!(count(Group::Comm), 5);
        assert_eq!(count(Group::Lcals), 11);
        assert_eq!(count(Group::Polybench), 13);
        assert_eq!(count(Group::Stream), 5);
    }

    #[test]
    fn kernel_names_are_unique_and_prefixed_by_group() {
        let r = registry();
        let mut names = std::collections::HashSet::new();
        for k in r {
            let info = k.info();
            assert!(names.insert(info.name), "duplicate kernel {}", info.name);
            assert!(
                info.name.starts_with(info.group.name()),
                "{} not prefixed by {}",
                info.name,
                info.group.name()
            );
        }
    }

    #[test]
    fn every_kernel_has_base_and_raja_seq() {
        for k in registry() {
            let info = k.info();
            assert!(info.variants.contains(&VariantId::BaseSeq), "{}", info.name);
            assert!(info.variants.contains(&VariantId::RajaSeq), "{}", info.name);
        }
    }

    #[test]
    fn signatures_carry_metrics() {
        for k in registry() {
            let info = k.info();
            let n = info.default_size.min(10_000);
            let m = k.metrics(n);
            let s = k.signature(n);
            assert_eq!(s.flops, m.flops, "{}", info.name);
            assert_eq!(s.bytes_read, m.bytes_read, "{}", info.name);
            assert_eq!(s.bytes_written, m.bytes_written, "{}", info.name);
            assert!(s.problem_size == n);
        }
    }

    #[test]
    fn time_reps_is_not_dead_code_eliminated() {
        // A no-op body must still cost one opaque call per rep; if the
        // optimizer deleted the loop the measured time would be ~0
        // regardless of rep count. 10M reps at a conservative floor of
        // 0.1 ns per call is 1 ms.
        let reps = 10_000_000;
        let d = time_reps(reps, || {});
        assert!(
            d >= Duration::from_millis(1),
            "no-op body measured {d:?} over {reps} reps: time_reps was optimized away"
        );
    }

    #[test]
    fn variant_names_roundtrip() {
        for v in VariantId::all() {
            assert_eq!(VariantId::parse(v.name()), Some(v));
        }
        assert_eq!(VariantId::parse("nope"), None);
    }

    #[test]
    fn find_locates_kernels() {
        assert!(find("Stream_TRIAD").is_some());
        assert!(find("No_SUCH").is_none());
    }

    /// Test double whose RAJA_Seq variant drifts from the reference by a
    /// controlled factor — exercises the verify_variants failure path.
    struct DriftingKernel {
        drift: f64,
    }

    impl KernelBase for DriftingKernel {
        fn info(&self) -> KernelInfo {
            KernelInfo {
                name: "Test_DRIFT",
                group: Group::Basic,
                features: &[Feature::Forall],
                complexity: Complexity::N,
                default_size: 64,
                default_reps: 1,
                paper_models: &[PaperModel::Seq],
                variants: SEQ_VARIANTS,
            }
        }

        fn metrics(&self, n: usize) -> AnalyticMetrics {
            AnalyticMetrics {
                bytes_read: 8.0 * n as f64,
                bytes_written: 8.0 * n as f64,
                flops: n as f64,
            }
        }

        fn run(&self, variant: VariantId, n: usize, _reps: usize, _t: &Tuning) -> (Duration, f64) {
            let scale = match variant {
                VariantId::RajaSeq => self.drift,
                _ => 1.0,
            };
            (Duration::from_micros(1), n as f64 * scale)
        }
    }

    #[test]
    fn verify_variants_reports_nonzero_relative_error_on_mismatch() {
        let broken = DriftingKernel { drift: 1.1 }; // 10% off the reference
        let err = std::panic::catch_unwind(|| verify_variants(&broken, 64, 1e-8))
            .expect_err("10% drift must fail an 1e-8 tolerance");
        let msg = err
            .downcast_ref::<String>()
            .expect("assert! panics with a String");
        assert!(msg.contains("Test_DRIFT"), "{msg}");
        assert!(msg.contains("variant RAJA_Seq"), "{msg}");
        assert!(
            msg.contains("relative error 1.000e-1"),
            "the 10% drift is quantified: {msg}"
        );
        assert!(msg.contains("tolerance 1.0e-8"), "{msg}");
    }

    #[test]
    fn verify_variants_accepts_drift_within_tolerance() {
        let nearly = DriftingKernel { drift: 1.0 + 1e-12 };
        let checks = verify_variants(&nearly, 64, 1e-8);
        assert_eq!(checks.len(), SEQ_VARIANTS.len());
    }

    #[test]
    #[should_panic(expected = "kernel Test_DRIFT does not implement variant Base_SimGpu")]
    fn check_variant_surfaces_unsupported_variants() {
        let k = DriftingKernel { drift: 1.0 };
        k.execute(VariantId::BaseSimGpu, 64, 1, &Tuning::default());
    }
}
