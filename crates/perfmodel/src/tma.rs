//! Top-down Microarchitecture Analysis (TMA) slot model for the CPU
//! systems.
//!
//! The paper collects Intel's top-down counters through PAPI and analyses
//! the top two hierarchy levels (Fig. 2): **Frontend Bound**, **Bad
//! Speculation**, **Retiring**, and **Backend Bound**, the latter split into
//! **Core Bound** and **Memory Bound** (§III-A). Without the hardware, we
//! reproduce the attribution analytically from cycle-demand accounting:
//!
//! * `retire_cycles` — μops / issue width, divided by the kernel's SIMD
//!   packing (regular, vectorizable bodies retire several elements per
//!   μop), plus serialized atomic RMW latency (atomics retire slowly but
//!   *do* retire, which is why the paper sees `PI_ATOMIC` as extremely
//!   retiring-bound);
//! * `fp_cycles` — FP work at the kernel's sustainable FP rate: saturated
//!   FP ports show up as **Core Bound** when they exceed both retire and
//!   memory demand (the paper's 2MM/ATAX observation);
//! * `mem_cycles` — DRAM traffic at the core's share of sustained
//!   bandwidth: bandwidth saturation shows up as **Memory Bound**, and is
//!   directly relieved by the HBM machine's higher per-core bytes/cycle
//!   (the paper's central SCAN/GESUMMV observation in Figs. 3–4);
//! * `fe_cycles` — instruction-delivery pressure proportional to body
//!   footprint (the large finite-element App kernels);
//! * `bs_cycles` — branch misprediction recovery.
//!
//! Fractions are slots over `total = max(retire, fp, mem) + fe + bs`; the
//! backend stall `max(...) − retire` is split between Memory and Core in
//! proportion to each resource's excess demand. The five fractions sum
//! to 1.

use crate::machine::{Machine, MachineKind};
use crate::signature::ExecSignature;
use serde::Serialize;

/// Branch misprediction recovery penalty, cycles (typical for modern OoO).
const MISPREDICT_PENALTY: f64 = 15.0;

/// Serialized atomic read-modify-write latency, cycles.
const ATOMIC_LATENCY: f64 = 20.0;

/// The top-two-level TMA breakdown. Fractions of pipeline slots; sums to 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TmaBreakdown {
    /// Instruction fetch/decode starvation.
    pub frontend_bound: f64,
    /// Slots wasted on mispredicted paths.
    pub bad_speculation: f64,
    /// Slots retiring useful μops.
    pub retiring: f64,
    /// Backend stalls from core-resource (FP port) saturation.
    pub core_bound: f64,
    /// Backend stalls from memory-subsystem saturation.
    pub memory_bound: f64,
}

impl TmaBreakdown {
    /// The five metrics as the tuple used for clustering (§IV):
    /// `[frontend, bad_speculation, retiring, core, memory]`.
    pub fn tuple(&self) -> [f64; 5] {
        [
            self.frontend_bound,
            self.bad_speculation,
            self.retiring,
            self.core_bound,
            self.memory_bound,
        ]
    }

    /// Sum of all five fractions (1.0 up to rounding).
    pub fn sum(&self) -> f64 {
        self.frontend_bound + self.bad_speculation + self.retiring + self.core_bound
            + self.memory_bound
    }
}

/// Compute the TMA breakdown for `sig` running one rank's share on a CPU
/// machine.
///
/// # Panics
/// Panics when called for a GPU machine — the paper (and this model) uses
/// the instruction roofline there instead.
pub fn tma_breakdown(machine: &Machine, sig: &ExecSignature) -> TmaBreakdown {
    assert!(
        machine.kind == MachineKind::Cpu,
        "TMA applies to CPU machines; use the roofline model for GPUs"
    );
    // Per-rank share of the problem; on the CPU systems one rank = one core.
    let n_rank = (sig.problem_size / machine.ranks).max(1);
    let s = sig.scaled_to(n_rank);

    // Cycle demands per core.
    let retire_cycles =
        s.uops() / machine.issue_width / s.simd_packing() + s.atomics * ATOMIC_LATENCY;
    let fp_per_cycle_peak =
        machine.peak_flops_node / machine.cores_per_node as f64 / machine.freq_hz;
    let fp_rate = (fp_per_cycle_peak * s.flop_efficiency)
        .clamp(1e-3, fp_per_cycle_peak);
    let fp_cycles = s.flops / fp_rate;
    let bytes_per_cycle =
        machine.achieved_bw_node / machine.cores_per_node as f64 / machine.freq_hz;
    // Stores retire through the store buffer and rarely stall issue, so
    // write traffic contributes far less to Memory Bound than read misses
    // (this is why the paper sees write-only kernels like INIT_VIEW1D and
    // NESTED_INIT as retiring-bound rather than memory-bound).
    const WRITE_STALL_FACTOR: f64 = 0.15;
    let read_dram = s.bytes_read * (1.0 - s.cache_reuse);
    let write_dram = s.bytes_written * (1.0 - s.cache_reuse);
    let mem_cycles = (read_dram + WRITE_STALL_FACTOR * write_dram) / bytes_per_cycle;
    let fe_cycles = s.icache_pressure * (s.uops() / machine.issue_width / s.simd_packing());
    let bs_cycles = s.branches * s.branch_mispredict_rate * MISPREDICT_PENALTY;

    let bottleneck = retire_cycles.max(fp_cycles).max(mem_cycles);
    let total = (bottleneck + fe_cycles + bs_cycles).max(1e-12);

    let backend_stall = bottleneck - retire_cycles;
    let mem_excess = (mem_cycles - retire_cycles).max(0.0);
    let core_excess = (fp_cycles - retire_cycles).max(0.0);
    let excess = mem_excess + core_excess;
    let (memory_bound, core_bound) = if backend_stall > 0.0 && excess > 0.0 {
        (
            backend_stall * (mem_excess / excess) / total,
            backend_stall * (core_excess / excess) / total,
        )
    } else {
        (0.0, 0.0)
    };

    TmaBreakdown {
        frontend_bound: fe_cycles / total,
        bad_speculation: bs_cycles / total,
        retiring: retire_cycles / total,
        core_bound,
        memory_bound,
    }
}

/// One node of the TMA hierarchy (Fig. 2).
#[derive(Debug, Clone)]
pub struct TmaNode {
    /// Category name.
    pub name: &'static str,
    /// What the category measures.
    pub description: &'static str,
    /// Sub-categories.
    pub children: Vec<TmaNode>,
}

/// The top-down hierarchy of Fig. 2, down to the levels the paper uses
/// (plus the memory-level split it mentions).
pub fn tma_hierarchy() -> TmaNode {
    TmaNode {
        name: "Pipeline Slots",
        description: "all issue slots of the out-of-order core",
        children: vec![
            TmaNode {
                name: "Frontend Bound",
                description: "instruction fetch latency and bandwidth",
                children: vec![
                    leaf("Fetch Latency", "icache/iTLB misses, branch resteers"),
                    leaf("Fetch Bandwidth", "decoder throughput"),
                ],
            },
            TmaNode {
                name: "Bad Speculation",
                description: "costs of the CPU's predictive mechanisms",
                children: vec![
                    leaf("Branch Mispredicts", "wrong-path execution"),
                    leaf("Machine Clears", "memory-ordering or SMC clears"),
                ],
            },
            TmaNode {
                name: "Retiring",
                description: "rate of completing and retiring instructions",
                children: vec![leaf("Base", "regular μops"), leaf("Microcode", "MS-ROM μops")],
            },
            TmaNode {
                name: "Backend Bound",
                description: "delays from data or execution-resource availability",
                children: vec![
                    TmaNode {
                        name: "Core Bound",
                        description: "saturation within the CPU core (FP ports, dividers)",
                        children: vec![],
                    },
                    TmaNode {
                        name: "Memory Bound",
                        description: "saturation within the memory subsystem",
                        children: vec![
                            leaf("L1 Bound", "L1 data-cache stalls"),
                            leaf("L2 Bound", "L2 stalls"),
                            leaf("L3 Bound", "L3 stalls"),
                            leaf("DRAM Bound", "external memory bandwidth/latency"),
                        ],
                    },
                ],
            },
        ],
    }
}

fn leaf(name: &'static str, description: &'static str) -> TmaNode {
    TmaNode {
        name,
        description,
        children: vec![],
    }
}

impl TmaNode {
    /// Render the hierarchy as an indented text tree (the Fig. 2 stand-in).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        out.push_str(&format!(
            "{}{} — {}\n",
            "  ".repeat(depth),
            self.name,
            self.description
        ));
        for c in &self.children {
            c.render_into(depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineId;
    use crate::signature::ExecSignature;

    /// A TRIAD-like streaming signature at node scale (32M doubles).
    fn triad_sig() -> ExecSignature {
        let n = 32_000_000usize;
        let mut s = ExecSignature::streaming("Stream_TRIAD", n);
        s.flops = 2.0 * n as f64;
        s.bytes_read = 16.0 * n as f64;
        s.bytes_written = 8.0 * n as f64;
        s
    }

    /// A dense-matmul-like signature (high flops/byte, high reuse).
    fn matmul_sig() -> ExecSignature {
        let n = 32_000_000usize;
        let mut s = ExecSignature::streaming("Basic_MAT_MAT_SHARED", n);
        s.complexity = crate::signature::Complexity::NSqrtN;
        s.flops = 2.0 * (n as f64).powf(1.5);
        s.bytes_read = 16.0 * n as f64;
        s.bytes_written = 8.0 * n as f64;
        s.cache_reuse = 0.9;
        s.flop_efficiency = 1.0;
        s
    }

    /// A PI_ATOMIC-like signature: no arrays, one atomic per iteration.
    fn atomic_sig() -> ExecSignature {
        let n = 32_000_000usize;
        let mut s = ExecSignature::streaming("Basic_PI_ATOMIC", n);
        s.flops = 4.0 * n as f64;
        s.atomics = n as f64;
        s
    }

    #[test]
    fn fractions_sum_to_one() {
        let m = Machine::get(MachineId::SprDdr);
        for sig in [triad_sig(), matmul_sig(), atomic_sig()] {
            let t = tma_breakdown(&m, &sig);
            assert!((t.sum() - 1.0).abs() < 1e-9, "{sig:?} sums to {}", t.sum());
            for v in t.tuple() {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn streaming_kernel_is_memory_bound_on_ddr() {
        let m = Machine::get(MachineId::SprDdr);
        let t = tma_breakdown(&m, &triad_sig());
        assert!(t.memory_bound > 0.7, "TRIAD memory bound: {t:?}");
        assert!(t.retiring < 0.25);
    }

    #[test]
    fn hbm_relieves_memory_bound() {
        let ddr = tma_breakdown(&Machine::get(MachineId::SprDdr), &triad_sig());
        let hbm = tma_breakdown(&Machine::get(MachineId::SprHbm), &triad_sig());
        assert!(
            hbm.memory_bound < ddr.memory_bound - 0.1,
            "DDR {} vs HBM {}",
            ddr.memory_bound,
            hbm.memory_bound
        );
    }

    #[test]
    fn matmul_is_core_or_retire_bound_not_memory_bound() {
        let m = Machine::get(MachineId::SprDdr);
        let t = tma_breakdown(&m, &matmul_sig());
        assert!(t.memory_bound < 0.2, "{t:?}");
        assert!(t.core_bound + t.retiring > 0.6, "{t:?}");
    }

    #[test]
    fn atomic_kernel_is_retiring_bound() {
        let m = Machine::get(MachineId::SprDdr);
        let t = tma_breakdown(&m, &atomic_sig());
        assert!(t.retiring > 0.8, "PI_ATOMIC retiring: {t:?}");
    }

    #[test]
    fn icache_pressure_creates_frontend_bound() {
        let m = Machine::get(MachineId::SprDdr);
        let mut s = triad_sig();
        s.cache_reuse = 0.95; // keep memory out of the way
        s.icache_pressure = 0.5;
        let t = tma_breakdown(&m, &s);
        assert!(t.frontend_bound > 0.2, "{t:?}");
    }

    #[test]
    fn mispredicted_branches_create_bad_speculation() {
        let m = Machine::get(MachineId::SprDdr);
        let mut s = ExecSignature::streaming("branchy", 32_000_000);
        s.branches = s.iterations;
        s.branch_mispredict_rate = 0.2;
        s.cache_reuse = 0.9;
        let t = tma_breakdown(&m, &s);
        assert!(t.bad_speculation > 0.3, "{t:?}");
    }

    #[test]
    #[should_panic(expected = "TMA applies to CPU machines")]
    fn tma_on_gpu_panics() {
        let m = Machine::get(MachineId::P9V100);
        let _ = tma_breakdown(&m, &triad_sig());
    }

    #[test]
    fn hierarchy_has_expected_shape() {
        let h = tma_hierarchy();
        assert_eq!(h.children.len(), 4, "four level-1 categories");
        let backend = &h.children[3];
        assert_eq!(backend.children.len(), 2, "core + memory");
        let text = h.render();
        for name in [
            "Frontend Bound",
            "Bad Speculation",
            "Retiring",
            "Backend Bound",
            "Core Bound",
            "Memory Bound",
            "DRAM Bound",
        ] {
            assert!(text.contains(name), "hierarchy text missing {name}");
        }
    }
}
