//! Instruction roofline model for GPUs (Ding & Williams; paper §III-B).
//!
//! The paper collects Nsight Compute counters (Table IV) on the V100 and
//! plots, per cache level, each kernel's *instruction intensity* (warp
//! instructions per transaction) against its *performance* (warp GIPS),
//! under ceilings given by the theoretical instruction rate (horizontal
//! roof) and per-level transaction bandwidth (diagonal roof). This module
//! computes the same quantities analytically:
//!
//! * warp instructions = thread μops / 32 (the Table IV thread→warp
//!   convention);
//! * transactions = traffic at the level divided by the 32-byte sector
//!   size, with per-level traffic derived from the kernel's cache-reuse
//!   descriptor (L1 sees all access traffic; L2 sees L1 misses; HBM sees
//!   the DRAM traffic);
//! * time from the [`crate::predict`] model, giving GIPS.

use crate::machine::{Machine, MachineKind};
use crate::predict::predict_time;
use crate::signature::ExecSignature;
use serde::Serialize;

/// Memory-transaction granularity (an NVIDIA sector), bytes.
pub const SECTOR_BYTES: f64 = 32.0;

/// The three cache layers of Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CacheLevel {
    /// L1/texture cache.
    L1,
    /// Device-wide L2.
    L2,
    /// HBM device memory.
    Hbm,
}

impl CacheLevel {
    /// All levels, innermost first.
    pub fn all() -> [CacheLevel; 3] {
        [CacheLevel::L1, CacheLevel::L2, CacheLevel::Hbm]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            CacheLevel::L1 => "L1",
            CacheLevel::L2 => "L2",
            CacheLevel::Hbm => "HBM",
        }
    }
}

/// Per-level ceilings of the instruction roofline for a GPU machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RooflineCeilings {
    /// Theoretical peak warp instructions per second (the horizontal roof),
    /// in GIPS.
    pub peak_warp_gips: f64,
    /// L1 transaction bandwidth, GTXN/s (diagonal roof).
    pub l1_gtxn_s: f64,
    /// L2 transaction bandwidth, GTXN/s.
    pub l2_gtxn_s: f64,
    /// HBM transaction bandwidth, GTXN/s.
    pub hbm_gtxn_s: f64,
}

/// Ceilings for the GPU machines. V100 constants follow Ding & Williams
/// (80 SMs × 4 schedulers × 1.53 GHz ≈ 489.6 warp GIPS; L1 12,828 GB/s,
/// L2 2,996 GB/s, HBM 828 GB/s ÷ 32 B sectors), scaled by units per node.
/// MI250X ceilings are derived the same way from its CU count and
/// bandwidths.
pub fn ceilings(machine: &Machine) -> RooflineCeilings {
    assert!(
        machine.kind == MachineKind::Gpu,
        "instruction roofline applies to GPU machines"
    );
    let units = machine.units_per_node as f64;
    match machine.id {
        crate::machine::MachineId::P9V100 => RooflineCeilings {
            peak_warp_gips: 489.6 * units,
            l1_gtxn_s: 12828.0 / 32.0 * units,
            l2_gtxn_s: 2996.0 / 32.0 * units,
            hbm_gtxn_s: 828.0 / 32.0 * units,
        },
        _ => RooflineCeilings {
            // MI250X per GCD: 110 CUs × 4 SIMDs × 1.7 GHz; LDS/L2/HBM
            // bandwidths from vendor documentation.
            peak_warp_gips: 110.0 * 4.0 * 1.7 * units,
            l1_gtxn_s: 13000.0 / 32.0 * units,
            l2_gtxn_s: 3500.0 / 32.0 * units,
            hbm_gtxn_s: 1638.0 / 32.0 * units,
        },
    }
}

/// A kernel's point on the instruction roofline at one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RooflinePoint {
    /// Cache level.
    pub level: CacheLevel,
    /// Warp instructions per transaction at this level.
    pub intensity: f64,
    /// Achieved warp GIPS.
    pub warp_gips: f64,
    /// Transactions per second at this level, in GTXN/s.
    pub gtxn_s: f64,
}

/// Per-level memory traffic implied by the signature's reuse descriptor:
/// the L1 sees every access; hits within the reused fraction are absorbed
/// 60% at L1 and 40% at L2 (a typical split for blocked kernels); the DRAM
/// traffic is the unreused remainder.
fn traffic_bytes(sig: &ExecSignature, level: CacheLevel) -> f64 {
    let total = sig.bytes_total();
    match level {
        CacheLevel::L1 => total,
        CacheLevel::L2 => total * (1.0 - 0.6 * sig.cache_reuse),
        CacheLevel::Hbm => sig.dram_bytes(),
    }
}

/// Compute the kernel's roofline point at `level` on a GPU machine
/// (node-aggregate: all ranks' traffic and instructions over the predicted
/// wall time).
pub fn roofline_point(machine: &Machine, sig: &ExecSignature, level: CacheLevel) -> RooflinePoint {
    assert!(
        machine.kind == MachineKind::Gpu,
        "instruction roofline applies to GPU machines"
    );
    let t = predict_time(machine, sig);
    let n_rank = (sig.problem_size / machine.ranks).max(1);
    let s = sig.scaled_to(n_rank);
    let ranks = machine.ranks as f64;
    let warp_instr = s.uops() * ranks / 32.0;
    let txn = (traffic_bytes(&s, level) * ranks / SECTOR_BYTES).max(1.0);
    let secs = t.total_s.max(1e-12);
    RooflinePoint {
        level,
        intensity: warp_instr / txn,
        warp_gips: warp_instr / secs / 1e9,
        gtxn_s: txn / secs / 1e9,
    }
}

/// Whether a point sits under the diagonal (bandwidth) roof rather than the
/// horizontal (instruction) roof — i.e. the kernel is memory-bound at this
/// level.
pub fn is_bandwidth_limited(c: &RooflineCeilings, p: &RooflinePoint) -> bool {
    let bw_roof = match p.level {
        CacheLevel::L1 => c.l1_gtxn_s,
        CacheLevel::L2 => c.l2_gtxn_s,
        CacheLevel::Hbm => c.hbm_gtxn_s,
    };
    // At this intensity, the bandwidth roof caps GIPS at intensity × roof.
    p.intensity * bw_roof < c.peak_warp_gips
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineId};

    const N: usize = 32_000_000;

    fn triad() -> ExecSignature {
        let mut s = ExecSignature::streaming("Stream_TRIAD", N);
        s.flops = 2.0 * N as f64;
        s.bytes_read = 16.0 * N as f64;
        s.bytes_written = 8.0 * N as f64;
        s
    }

    fn matmul() -> ExecSignature {
        let mut s = ExecSignature::streaming("Basic_MAT_MAT_SHARED", N);
        s.complexity = crate::signature::Complexity::NSqrtN;
        s.flops = 2.0 * (N as f64).powf(1.5);
        s.bytes_read = 16.0 * N as f64;
        s.bytes_written = 8.0 * N as f64;
        s.cache_reuse = 0.95;
        s.flop_efficiency = 1.0;
        s
    }

    #[test]
    fn v100_ceilings_match_ding_williams_per_gpu() {
        let m = Machine::get(MachineId::P9V100);
        let c = ceilings(&m);
        assert!((c.peak_warp_gips / 4.0 - 489.6).abs() < 0.1);
        assert!((c.hbm_gtxn_s / 4.0 - 25.875).abs() < 0.01);
    }

    #[test]
    fn points_under_the_roofs() {
        let m = Machine::get(MachineId::P9V100);
        let c = ceilings(&m);
        for sig in [triad(), matmul()] {
            for level in CacheLevel::all() {
                let p = roofline_point(&m, &sig, level);
                assert!(p.warp_gips <= c.peak_warp_gips * 1.05, "{sig:?} {level:?} {p:?}");
                let bw_roof = match level {
                    CacheLevel::L1 => c.l1_gtxn_s,
                    CacheLevel::L2 => c.l2_gtxn_s,
                    CacheLevel::Hbm => c.hbm_gtxn_s,
                };
                assert!(p.gtxn_s <= bw_roof * 1.05, "{sig:?} {level:?} {p:?}");
            }
        }
    }

    #[test]
    fn streaming_kernel_saturates_hbm_transactions() {
        let m = Machine::get(MachineId::P9V100);
        let c = ceilings(&m);
        let p = roofline_point(&m, &triad(), CacheLevel::Hbm);
        // TRIAD achieves 92.6% of peak bandwidth on this machine.
        assert!(p.gtxn_s > 0.8 * c.hbm_gtxn_s, "{p:?} vs {c:?}");
        assert!(is_bandwidth_limited(&c, &p), "{p:?}");
    }

    #[test]
    fn intensity_rises_through_the_hierarchy_for_reused_kernels() {
        // With reuse, HBM sees less traffic than L1 → fewer transactions →
        // higher intensity.
        let m = Machine::get(MachineId::P9V100);
        let l1 = roofline_point(&m, &matmul(), CacheLevel::L1);
        let hbm = roofline_point(&m, &matmul(), CacheLevel::Hbm);
        assert!(hbm.intensity > 2.0 * l1.intensity, "{l1:?} vs {hbm:?}");
    }

    #[test]
    fn compute_bound_kernel_is_not_bandwidth_limited_at_hbm() {
        let m = Machine::get(MachineId::P9V100);
        let c = ceilings(&m);
        let p = roofline_point(&m, &matmul(), CacheLevel::Hbm);
        assert!(!is_bandwidth_limited(&c, &p), "{p:?}");
    }

    #[test]
    #[should_panic(expected = "applies to GPU machines")]
    fn roofline_on_cpu_panics() {
        let m = Machine::get(MachineId::SprDdr);
        let _ = roofline_point(&m, &triad(), CacheLevel::L1);
    }
}
