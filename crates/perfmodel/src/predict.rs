//! Execution-time prediction and cross-architecture speedups.
//!
//! The paper's Figs. 7–10 relate each kernel's bottleneck profile to its
//! measured speedup on SPR-HBM, P9-V100 and EPYC-MI250X over the SPR-DDR
//! baseline. We predict per-kernel execution time with a bounded-resource
//! (roofline-style) model:
//!
//! ```text
//! t_rank = max(mem, flop, issue, atomic) + launches·overhead + mpi
//! ```
//!
//! where each term is the rank's work divided by the rank's share of the
//! machine's *sustained* rate (Table II achieved figures). The problem is
//! decomposed over Table III's rank counts, and each rank's work is derived
//! from the kernel's own metric formulas via
//! [`ExecSignature::scaled_to`] — so super-linear kernels automatically do
//! more total work on machines with fewer ranks, reproducing the paper's
//! Polybench-on-GPU caveat.

use crate::machine::{Machine, MachineKind};
use crate::signature::ExecSignature;
use serde::Serialize;

/// Fraction of theoretical issue bandwidth sustainable by real kernels.
/// GPUs rarely keep every scheduler slot busy on irregular code.
const ISSUE_SUSTAIN_CPU: f64 = 0.8;
const ISSUE_SUSTAIN_GPU: f64 = 0.12;

/// The predicted time and its components, per repetition, seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PredictedTime {
    /// Total predicted time for one repetition (slowest rank ≈ any rank,
    /// work being balanced).
    pub total_s: f64,
    /// Memory-bandwidth term.
    pub mem_s: f64,
    /// FP-throughput term.
    pub flop_s: f64,
    /// Instruction-issue term.
    pub issue_s: f64,
    /// Atomic-serialization term.
    pub atomic_s: f64,
    /// Kernel-launch overhead term.
    pub launch_s: f64,
    /// Message-passing term.
    pub mpi_s: f64,
}

impl PredictedTime {
    /// The name of the dominant bounded resource.
    pub fn dominant(&self) -> &'static str {
        let pairs = [
            ("memory", self.mem_s),
            ("flops", self.flop_s),
            ("issue", self.issue_s),
            ("atomics", self.atomic_s),
            ("launch", self.launch_s),
            ("mpi", self.mpi_s),
        ];
        pairs
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(n, _)| *n)
            .unwrap_or("memory")
    }
}

/// Achieved memory bandwidth implied by a prediction, B/s per node.
pub fn achieved_bandwidth(machine: &Machine, sig: &ExecSignature, t: &PredictedTime) -> f64 {
    if t.total_s <= 0.0 {
        return 0.0;
    }
    // Total traffic over all ranks divided by wall time.
    let n_rank = (sig.problem_size / machine.ranks).max(1);
    let s = sig.scaled_to(n_rank);
    s.bytes_total() * machine.ranks as f64 / t.total_s
}

/// Achieved FLOP rate implied by a prediction, FLOP/s per node.
pub fn achieved_flops(machine: &Machine, sig: &ExecSignature, t: &PredictedTime) -> f64 {
    if t.total_s <= 0.0 {
        return 0.0;
    }
    let n_rank = (sig.problem_size / machine.ranks).max(1);
    let s = sig.scaled_to(n_rank);
    s.flops * machine.ranks as f64 / t.total_s
}

/// Predict one repetition's execution time for `sig` (given at full node
/// problem size) on `machine`.
pub fn predict_time(machine: &Machine, sig: &ExecSignature) -> PredictedTime {
    let n_rank = (sig.problem_size / machine.ranks).max(1);
    let s = sig.scaled_to(n_rank);

    // Memory: DRAM traffic at the rank's bandwidth share. On GPUs,
    // uncoalesced access wastes sector bandwidth (CPU caches absorb strided
    // access much better, so coalescing only derates device bandwidth).
    let coalescing = match machine.kind {
        MachineKind::Cpu => 1.0,
        MachineKind::Gpu => s.gpu_coalescing.clamp(0.003, 1.0),
    };
    // Shared-bus model: reads and writes queue on the same memory system
    // at their respective sustained rates.
    let read_dram = s.bytes_read * (1.0 - s.cache_reuse);
    let write_dram = s.bytes_written * (1.0 - s.cache_reuse);
    let mem_s = read_dram / (machine.read_bw_per_rank() * coalescing)
        + write_dram / (machine.write_bw_per_rank() * coalescing);

    // FP: at the kernel's sustainable fraction of the machine's measured
    // dense-kernel ceiling, never exceeding 95% of theoretical peak.
    let eff = match machine.kind {
        MachineKind::Cpu => s.flop_efficiency,
        MachineKind::Gpu => s.gpu_flop_efficiency.unwrap_or(s.flop_efficiency),
    };
    // Even FMA-dense straight-line code tops out near ~45% of the
    // theoretical dual-issue peak (the paper's best case, EDGE3D on
    // MI250X, reaches 44%).
    let flop_ceiling = (machine.achieved_flops_node * eff)
        .min(0.45 * machine.peak_flops_node)
        / machine.ranks as f64;
    let flop_s = if s.flops > 0.0 {
        s.flops / flop_ceiling.max(1.0)
    } else {
        0.0
    };

    // Issue: μop stream at sustained issue bandwidth.
    let sustain = match machine.kind {
        MachineKind::Cpu => ISSUE_SUSTAIN_CPU,
        MachineKind::Gpu => ISSUE_SUSTAIN_GPU,
    };
    let issue_s = s.uops() / (machine.uop_rate_per_rank() * sustain * s.simd_packing());

    // Atomics: only the *contended* fraction serializes; disjoint
    // per-element atomics proceed at near-memory rate on both CPUs and
    // devices.
    let atomic_s =
        s.atomics * s.atomic_contention / (machine.atomic_rate / machine.ranks as f64);

    // Launch overhead: per device-kernel launch (zero on CPUs).
    let launch_s = s.kernel_launches * machine.launch_overhead_s;

    // MPI: latency per message plus wire time.
    let mpi_s = s.mpi_messages * machine.net_latency_s + s.mpi_bytes / machine.net_bw;

    let total_s = mem_s.max(flop_s).max(issue_s).max(atomic_s) + launch_s + mpi_s;
    PredictedTime {
        total_s,
        mem_s,
        flop_s,
        issue_s,
        atomic_s,
        launch_s,
        mpi_s,
    }
}

/// Speedup of `machine` over `baseline` for the same kernel signature
/// (values > 1 mean `machine` is faster).
pub fn speedup(baseline: &Machine, machine: &Machine, sig: &ExecSignature) -> f64 {
    let t0 = predict_time(baseline, sig).total_s;
    let t1 = predict_time(machine, sig).total_s;
    if t1 > 0.0 {
        t0 / t1
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineId;
    use crate::signature::{Complexity, ExecSignature};

    fn triad(n: usize) -> ExecSignature {
        let mut s = ExecSignature::streaming("Stream_TRIAD", n);
        s.flops = 2.0 * n as f64;
        s.bytes_read = 16.0 * n as f64;
        s.bytes_written = 8.0 * n as f64;
        s
    }

    fn matmul(n: usize) -> ExecSignature {
        let mut s = ExecSignature::streaming("Basic_MAT_MAT_SHARED", n);
        s.complexity = Complexity::NSqrtN;
        s.flops = 2.0 * (n as f64).powf(1.5);
        s.bytes_read = 16.0 * n as f64;
        s.bytes_written = 8.0 * n as f64;
        s.cache_reuse = 0.95;
        s.flop_efficiency = 1.0;
        s
    }

    const N: usize = 32_000_000;

    #[test]
    fn triad_is_memory_bound_everywhere() {
        for id in MachineId::all() {
            let m = Machine::get(id);
            let t = predict_time(&m, &triad(N));
            assert_eq!(t.dominant(), "memory", "{id:?}: {t:?}");
        }
    }

    #[test]
    fn triad_achieves_the_bandwidth_ceiling() {
        // TRIAD being the bandwidth-ceiling kernel, its achieved bandwidth
        // must come out at the machine's sustained figure.
        for id in MachineId::all() {
            let m = Machine::get(id);
            let sig = triad(N);
            let t = predict_time(&m, &sig);
            let bw = achieved_bandwidth(&m, &sig, &t);
            // Within 10%: GPU timings legitimately include one launch
            // overhead per rep at this problem size.
            assert!(
                (bw / m.achieved_bw_node - 1.0).abs() < 0.10,
                "{id:?}: {bw:e} vs {:e}",
                m.achieved_bw_node
            );
        }
    }

    #[test]
    fn memory_bound_speedups_track_bandwidth_ratios() {
        let ddr = Machine::get(MachineId::SprDdr);
        let sig = triad(N);
        // HBM/DDR sustained bandwidth ratio ≈ 2.2; MI250X/DDR ≈ 20.4.
        let s_hbm = speedup(&ddr, &Machine::get(MachineId::SprHbm), &sig);
        assert!((1.8..2.8).contains(&s_hbm), "HBM speedup {s_hbm}");
        let s_mi = speedup(&ddr, &Machine::get(MachineId::EpycMi250x), &sig);
        assert!((15.0..25.0).contains(&s_mi), "MI250X speedup {s_mi}");
        let s_v100 = speedup(&ddr, &Machine::get(MachineId::P9V100), &sig);
        assert!((5.0..8.5).contains(&s_v100), "V100 speedup {s_v100}");
    }

    #[test]
    fn matmul_achieves_the_flops_ceiling() {
        for id in MachineId::all() {
            let m = Machine::get(id);
            let sig = matmul(N);
            let t = predict_time(&m, &sig);
            let fl = achieved_flops(&m, &sig, &t);
            // flop-bound and the ceiling kernel: achieves ~its ceiling.
            assert_eq!(t.dominant(), "flops", "{id:?}");
            assert!(
                (fl / m.achieved_flops_node - 1.0).abs() < 0.2,
                "{id:?}: {fl:e} vs {:e}",
                m.achieved_flops_node
            );
        }
    }

    #[test]
    fn flop_bound_kernel_gains_little_from_hbm() {
        let ddr = Machine::get(MachineId::SprDdr);
        let hbm = Machine::get(MachineId::SprHbm);
        let s = speedup(&ddr, &hbm, &matmul(N));
        assert!(s < 1.2, "matmul HBM speedup should be ~1: {s}");
    }

    #[test]
    fn superlinear_kernels_do_more_work_on_fewer_ranks() {
        // The same O(N^{3/2}) kernel: per-node total work is larger when
        // decomposed over 8 ranks than over 112 (paper §V-B/C caveat).
        let sig = matmul(N);
        let w_cpu = 112.0 * sig.scaled_to(N / 112).flops;
        let w_gpu = 8.0 * sig.scaled_to(N / 8).flops;
        assert!(w_gpu > 2.0 * w_cpu);
    }

    #[test]
    fn atomic_kernel_does_not_speed_up_on_gpu() {
        let mut s = ExecSignature::streaming("Basic_PI_ATOMIC", N);
        s.flops = 4.0 * N as f64;
        s.atomics = N as f64;
        let ddr = Machine::get(MachineId::SprDdr);
        let v100 = Machine::get(MachineId::P9V100);
        let sp = speedup(&ddr, &v100, &s);
        assert!(sp < 1.5, "PI_ATOMIC V100 speedup {sp}");
    }

    #[test]
    fn launch_bound_kernel_is_penalized_on_gpu() {
        let mut s = ExecSignature::streaming("Comm_HALO_PACKING", 1_000_000);
        s.bytes_read = 8.0 * 1e6;
        s.bytes_written = 8.0 * 1e6;
        s.kernel_launches = 52.0; // one per pack/unpack list
        let v100 = Machine::get(MachineId::P9V100);
        let t = predict_time(&v100, &s);
        assert!(t.launch_s > 0.0);
        assert_eq!(t.dominant(), "launch", "{t:?}");
    }

    #[test]
    fn mpi_term_dominates_comm_kernels() {
        let mut s = ExecSignature::streaming("Comm_HALO_EXCHANGE", N);
        s.mpi_messages = 26.0;
        s.mpi_bytes = 26.0 * 64_000.0;
        s.bytes_read = 1e5;
        let ddr = Machine::get(MachineId::SprDdr);
        let t = predict_time(&ddr, &s);
        assert!(t.mpi_s > t.mem_s, "{t:?}");
    }

    #[test]
    fn components_are_nonnegative_and_total_bounds_max() {
        let m = Machine::get(MachineId::EpycMi250x);
        let t = predict_time(&m, &triad(N));
        for v in [t.mem_s, t.flop_s, t.issue_s, t.atomic_s, t.launch_s, t.mpi_s] {
            assert!(v >= 0.0);
        }
        assert!(t.total_s >= t.mem_s.max(t.flop_s));
    }
}
