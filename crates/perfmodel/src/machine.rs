//! Descriptors of the four evaluation systems (paper Tables II and III).

use serde::Serialize;

/// CPU vs GPU execution (determines which hardware-metric model applies:
/// TMA on CPUs, instruction roofline on GPUs — paper §III-A/B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum MachineKind {
    /// CPU-only node; kernels run with the `RAJA_Seq` variant across MPI
    /// ranks.
    Cpu,
    /// CPU+GPU node; kernels run with the device variant, one rank per GPU.
    Gpu,
}

/// The four systems of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum MachineId {
    /// Poodle with DDR memory (Intel Sapphire Rapids) — the baseline.
    SprDdr,
    /// Poodle with high-bandwidth memory (Intel Sapphire Rapids + HBM).
    SprHbm,
    /// Sierra (IBM Power9 + 4× NVIDIA V100).
    P9V100,
    /// Tioga (AMD EPYC + 4× MI250X = 8 GCDs).
    EpycMi250x,
}

impl MachineId {
    /// All machines, baseline first.
    pub fn all() -> [MachineId; 4] {
        [
            MachineId::SprDdr,
            MachineId::SprHbm,
            MachineId::P9V100,
            MachineId::EpycMi250x,
        ]
    }

    /// The paper's shorthand.
    pub fn shorthand(&self) -> &'static str {
        match self {
            MachineId::SprDdr => "SPR-DDR",
            MachineId::SprHbm => "SPR-HBM",
            MachineId::P9V100 => "P9-V100",
            MachineId::EpycMi250x => "EPYC-MI250X",
        }
    }
}

/// A machine model: Table II hardware parameters plus the microarchitectural
/// constants the TMA/roofline/time models need.
///
/// "Achieved" figures are the measured ceilings the paper reports
/// (Basic_MAT_MAT_SHARED for FLOPS, Stream_TRIAD for bandwidth); we adopt
/// them as sustained-rate ceilings since this container cannot measure the
/// real hardware.
#[derive(Debug, Clone, Serialize)]
pub struct Machine {
    /// Identity.
    pub id: MachineId,
    /// System name (Table II).
    pub system: &'static str,
    /// Architecture executing the kernels.
    pub architecture: &'static str,
    /// CPU or GPU metric model.
    pub kind: MachineKind,
    /// Compute units per node as listed in Table II (sockets or GPUs/GCDs).
    pub units_per_node: usize,
    /// MPI ranks used per node (Table III).
    pub ranks: usize,
    /// RAJAPerf variant name used on this machine (Table III).
    pub variant: &'static str,
    /// GPU block-size tuning (Table III; None on CPUs).
    pub gpu_block_size: Option<usize>,
    /// Peak node FLOPS (double precision), FLOP/s.
    pub peak_flops_node: f64,
    /// Peak node memory bandwidth, B/s.
    pub peak_bw_node: f64,
    /// Sustained FLOPS ceiling, FLOP/s (Table II "Basic_MAT_MAT").
    pub achieved_flops_node: f64,
    /// Sustained bandwidth ceiling, B/s (Table II "Stream_TRIAD").
    pub achieved_bw_node: f64,
    /// Sustained pure-read bandwidth, B/s. The memory system is modeled as
    /// a shared bus: `t_mem = reads/read_bw + writes/write_bw`, calibrated
    /// so Stream_TRIAD's 2:1 read:write mix reproduces the Table II
    /// achieved figure.
    pub achieved_read_bw_node: f64,
    /// Sustained pure-write bandwidth, B/s. Sapphire Rapids HBM sustains
    /// far less write than read bandwidth (visible in its 33.7% TRIAD
    /// efficiency), which is why write-dominated kernels (MEMSET,
    /// INIT_VIEW1D, NESTED_INIT) gain on the V100 but not proportionally on
    /// SPR-HBM (§V-B). GPUs stream writes symmetrically.
    pub achieved_write_bw_node: f64,
    /// Core/SM clock, Hz.
    pub freq_hz: f64,
    /// Hardware cores (CPU) or SMs/CUs (GPU) per node.
    pub cores_per_node: usize,
    /// Pipeline issue width (TMA slots per cycle per core).
    pub issue_width: f64,
    /// Per-kernel-launch overhead, seconds (0 on CPUs).
    pub launch_overhead_s: f64,
    /// Network latency per message, seconds.
    pub net_latency_s: f64,
    /// Network bandwidth per rank, B/s.
    pub net_bw: f64,
    /// Atomic RMW throughput, ops/s per node (serialization-limited).
    pub atomic_rate: f64,
}

impl Machine {
    /// Look up a machine descriptor.
    pub fn get(id: MachineId) -> Machine {
        const TB: f64 = 1e12;
        match id {
            // Table II row 1: 4.7 TFLOPS peak, 0.8 achieved (18.0%);
            // 0.6 TB/s peak, 0.5 achieved (77.7%). 2×56-core SPR, 112 ranks.
            MachineId::SprDdr => Machine {
                id,
                system: "Poodle (DDR)",
                architecture: "Intel Sapphire Rapids",
                kind: MachineKind::Cpu,
                units_per_node: 2,
                ranks: 112,
                variant: "RAJA_Seq",
                gpu_block_size: None,
                peak_flops_node: 4.7 * TB,
                peak_bw_node: 0.6 * TB,
                achieved_flops_node: 0.8 * TB,
                achieved_bw_node: 0.5 * TB,
                achieved_read_bw_node: 0.6 * TB,
                achieved_write_bw_node: 0.375 * TB,
                freq_hz: 2.0e9,
                cores_per_node: 112,
                issue_width: 4.0,
                launch_overhead_s: 0.0,
                net_latency_s: 1.5e-6,
                net_bw: 12.5e9,
                atomic_rate: 1.0e10,
            },
            // Table II row 2: same compute, HBM: 3.3 TB/s peak, 33.7%
            // achieved → 1.11 TB/s sustained.
            MachineId::SprHbm => Machine {
                id,
                system: "Poodle (HBM)",
                architecture: "Intel Sapphire Rapids",
                kind: MachineKind::Cpu,
                units_per_node: 2,
                ranks: 112,
                variant: "RAJA_Seq",
                gpu_block_size: None,
                peak_flops_node: 4.7 * TB,
                peak_bw_node: 3.3 * TB,
                achieved_flops_node: 0.7 * TB,
                achieved_bw_node: 3.3 * 0.337 * TB,
                achieved_read_bw_node: 1.7 * TB,
                achieved_write_bw_node: 0.55 * TB,
                freq_hz: 2.0e9,
                cores_per_node: 112,
                issue_width: 4.0,
                launch_overhead_s: 0.0,
                net_latency_s: 1.5e-6,
                net_bw: 12.5e9,
                atomic_rate: 1.0e10,
            },
            // Table II row 3: 4 V100s: 31.2 TFLOPS peak, 7.0 achieved
            // (22.4%); 3.6 TB/s peak, 3.3 achieved (92.6%).
            MachineId::P9V100 => Machine {
                id,
                system: "Sierra",
                architecture: "NVIDIA V100",
                kind: MachineKind::Gpu,
                units_per_node: 4,
                ranks: 4,
                variant: "RAJA_CUDA",
                gpu_block_size: Some(256),
                peak_flops_node: 31.2 * TB,
                peak_bw_node: 3.6 * TB,
                achieved_flops_node: 7.0 * TB,
                achieved_bw_node: 3.3 * TB,
                achieved_read_bw_node: 3.3 * TB,
                achieved_write_bw_node: 3.3 * TB,
                freq_hz: 1.53e9,
                cores_per_node: 4 * 80, // SMs
                issue_width: 4.0,       // warp schedulers per SM
                launch_overhead_s: 5.0e-6,
                net_latency_s: 1.5e-6,
                net_bw: 12.5e9,
                atomic_rate: 2.0e9,
            },
            // Table II row 4: 8 GCDs: 191.5 TFLOPS peak, 13.3 achieved
            // (7.0%); 12.8 TB/s peak, 10.2 achieved (79.5%).
            MachineId::EpycMi250x => Machine {
                id,
                system: "Tioga",
                architecture: "AMD MI250X",
                kind: MachineKind::Gpu,
                units_per_node: 8,
                ranks: 8,
                variant: "RAJA_HIP",
                gpu_block_size: Some(256),
                peak_flops_node: 191.5 * TB,
                peak_bw_node: 12.8 * TB,
                achieved_flops_node: 13.3 * TB,
                achieved_bw_node: 10.2 * TB,
                achieved_read_bw_node: 10.2 * TB,
                achieved_write_bw_node: 10.2 * TB,
                freq_hz: 1.7e9,
                cores_per_node: 8 * 110, // CUs
                issue_width: 4.0,
                launch_overhead_s: 6.0e-6,
                net_latency_s: 1.5e-6,
                net_bw: 12.5e9,
                atomic_rate: 2.4e9,
            },
        }
    }

    /// Fraction of the theoretical FLOPS the FLOPS-ceiling kernel achieves
    /// (Table II "% exp" for Basic_MAT_MAT).
    pub fn flops_pct_of_peak(&self) -> f64 {
        100.0 * self.achieved_flops_node / self.peak_flops_node
    }

    /// Fraction of the theoretical bandwidth Stream_TRIAD achieves
    /// (Table II "% exp").
    pub fn bw_pct_of_peak(&self) -> f64 {
        100.0 * self.achieved_bw_node / self.peak_bw_node
    }

    /// Per-rank share of the sustained bandwidth.
    pub fn bw_per_rank(&self) -> f64 {
        self.achieved_bw_node / self.ranks as f64
    }

    /// Per-rank share of the sustained read bandwidth.
    pub fn read_bw_per_rank(&self) -> f64 {
        self.achieved_read_bw_node / self.ranks as f64
    }

    /// Per-rank share of the sustained write bandwidth.
    pub fn write_bw_per_rank(&self) -> f64 {
        self.achieved_write_bw_node / self.ranks as f64
    }

    /// Aggregate micro-op issue throughput per rank (slots/s).
    pub fn uop_rate_per_rank(&self) -> f64 {
        let cores_per_rank = self.cores_per_node as f64 / self.ranks as f64;
        // GPUs issue one warp instruction covering 32 lanes per slot, so the
        // per-thread uop throughput is 32× the scheduler slot rate.
        let lane_factor = match self.kind {
            MachineKind::Cpu => 1.0,
            MachineKind::Gpu => 32.0,
        };
        cores_per_rank * self.issue_width * self.freq_hz * lane_factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_percentages_match_paper() {
        let m = Machine::get(MachineId::SprDdr);
        assert!((m.flops_pct_of_peak() - 18.0).abs() < 1.0, "{}", m.flops_pct_of_peak());
        assert!((m.bw_pct_of_peak() - 77.7).abs() < 6.0, "{}", m.bw_pct_of_peak());
        let m = Machine::get(MachineId::SprHbm);
        assert!((m.flops_pct_of_peak() - 15.5).abs() < 1.0);
        assert!((m.bw_pct_of_peak() - 33.7).abs() < 1.0);
        let m = Machine::get(MachineId::P9V100);
        assert!((m.flops_pct_of_peak() - 22.4).abs() < 1.0);
        assert!((m.bw_pct_of_peak() - 92.6).abs() < 1.0);
        let m = Machine::get(MachineId::EpycMi250x);
        assert!((m.flops_pct_of_peak() - 7.0).abs() < 0.5);
        assert!((m.bw_pct_of_peak() - 79.5).abs() < 1.0);
    }

    #[test]
    fn table3_run_parameters() {
        assert_eq!(Machine::get(MachineId::SprDdr).ranks, 112);
        assert_eq!(Machine::get(MachineId::SprDdr).variant, "RAJA_Seq");
        assert_eq!(Machine::get(MachineId::P9V100).ranks, 4);
        assert_eq!(Machine::get(MachineId::P9V100).variant, "RAJA_CUDA");
        assert_eq!(Machine::get(MachineId::EpycMi250x).ranks, 8);
        assert_eq!(Machine::get(MachineId::EpycMi250x).variant, "RAJA_HIP");
    }

    #[test]
    fn hbm_has_more_bandwidth_same_compute() {
        let ddr = Machine::get(MachineId::SprDdr);
        let hbm = Machine::get(MachineId::SprHbm);
        assert!(hbm.achieved_bw_node > 2.0 * ddr.achieved_bw_node);
        assert_eq!(ddr.peak_flops_node, hbm.peak_flops_node);
    }

    #[test]
    fn gpus_have_launch_overhead_cpus_do_not() {
        for id in MachineId::all() {
            let m = Machine::get(id);
            match m.kind {
                MachineKind::Cpu => assert_eq!(m.launch_overhead_s, 0.0),
                MachineKind::Gpu => assert!(m.launch_overhead_s > 0.0),
            }
        }
    }

    #[test]
    fn shorthand_names() {
        assert_eq!(MachineId::SprDdr.shorthand(), "SPR-DDR");
        assert_eq!(MachineId::EpycMi250x.shorthand(), "EPYC-MI250X");
    }

    #[test]
    fn per_rank_shares_partition_the_node() {
        let m = Machine::get(MachineId::P9V100);
        assert!((m.bw_per_rank() * m.ranks as f64 - m.achieved_bw_node).abs() < 1.0);
    }
}
