//! Kernel execution signatures: the structural inputs to the models.

use serde::Serialize;

/// Asymptotic work complexity relative to the stored problem size, as
/// annotated in Table I. Drives the per-rank decomposition rule: a rank
/// holding `n` elements of an O(N^{3/2}) kernel performs `n^{3/2}` work, so
/// machines using fewer, larger ranks do more total work — the paper's
/// observation about the Polybench matrix kernels on GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Complexity {
    /// O(N): work linear in the data size (most kernels).
    N,
    /// O(N·lg N): sorts.
    NLogN,
    /// O(N^{3/2}): matrix-matrix style kernels (N is the matrix storage).
    NSqrtN,
    /// O(N^{2/3}): surface-proportional work (halo exchanges).
    NTwoThirds,
}

impl Complexity {
    /// Human-readable label matching Table I.
    pub fn label(&self) -> &'static str {
        match self {
            Complexity::N => "n",
            Complexity::NLogN => "n lg n",
            Complexity::NSqrtN => "n^3/2",
            Complexity::NTwoThirds => "n^2/3",
        }
    }

    /// Work units for a problem of `n` stored elements.
    pub fn work(&self, n: f64) -> f64 {
        match self {
            Complexity::N => n,
            Complexity::NLogN => n * n.max(2.0).log2(),
            Complexity::NSqrtN => n * n.sqrt(),
            Complexity::NTwoThirds => n.powf(2.0 / 3.0),
        }
    }
}

/// The structural execution signature of one kernel at one problem size.
///
/// All totals are per repetition (one full pass of the kernel over its
/// problem), matching RAJAPerf's per-rep analytic metrics. The counts are
/// *exact* where RAJAPerf reports them (FLOPs, bytes) and *derived from the
/// loop structure* for the microarchitectural descriptors.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExecSignature {
    /// Kernel name (`Group_KERNEL` form, e.g. `Stream_TRIAD`).
    pub name: String,
    /// Problem size (stored elements) this signature was computed for.
    pub problem_size: usize,
    /// Floating-point operations per rep (RAJAPerf "FLOPs").
    pub flops: f64,
    /// Bytes read from memory per rep (RAJAPerf "Bytes Read").
    pub bytes_read: f64,
    /// Bytes written to memory per rep (RAJAPerf "Bytes Written").
    pub bytes_written: f64,
    /// Loop iterations per rep (innermost bodies executed).
    pub iterations: f64,
    /// Integer/address ALU operations per iteration beyond loop control.
    pub int_ops_per_iter: f64,
    /// Data-dependent branch instructions per rep.
    pub branches: f64,
    /// Misprediction probability of those branches (0..1).
    pub branch_mispredict_rate: f64,
    /// Fraction of memory traffic served from cache rather than DRAM
    /// (0 = pure streaming, →1 = fully cache-resident reuse).
    pub cache_reuse: f64,
    /// Instruction-footprint pressure on the front end (0 = tiny body,
    /// →1 = very large unrolled/inlined body, e.g. 3-D finite-element
    /// kernels).
    pub icache_pressure: f64,
    /// Atomic read-modify-write operations per rep.
    pub atomics: f64,
    /// Fraction of the atomic ops that contend for the same address
    /// (1.0 = all threads hammer one location, as in PI_ATOMIC; 0.0 =
    /// disjoint per-element atomics, which devices absorb at full rate).
    pub atomic_contention: f64,
    /// Device kernel launches per rep (GPU back-ends; >1 for multi-pass
    /// algorithms and the fused/unfused halo packing variants).
    pub kernel_launches: f64,
    /// Point-to-point messages per rep (Comm kernels).
    pub mpi_messages: f64,
    /// Bytes exchanged over the network per rep.
    pub mpi_bytes: f64,
    /// FP throughput this kernel's FP work can sustain relative to the
    /// machine's measured dense-kernel ceiling (`Basic_MAT_MAT_SHARED`,
    /// Table II). 1.0 = sustains the MAT_MAT rate; values above 1.0 are
    /// possible for FMA-dense bodies that outrun the tiled matmul (the
    /// paper measures Apps_EDGE3D at 84 TFLOPS vs MAT_MAT's 13.3 on
    /// MI250X).
    pub flop_efficiency: f64,
    /// GPU-specific override of [`ExecSignature::flop_efficiency`]; set for
    /// kernels whose FP efficiency differs qualitatively on devices (huge
    /// straight-line FE bodies, atomic-heavy loops).
    pub gpu_flop_efficiency: Option<f64>,
    /// Fraction of GPU memory bandwidth usable given the kernel's access
    /// pattern (1.0 = fully coalesced streaming; small values for
    /// column-strided / sweep-ordered access that wastes sectors). Ignored
    /// on CPUs, whose caches hide strided access far better — this is what
    /// makes the paper's exception kernels (ATAX, GEMVER, GESUMMV, MVT,
    /// ADI) fail to speed up on GPUs despite being memory-bound on CPUs.
    pub gpu_coalescing: f64,
    /// Work complexity annotation (Table I).
    pub complexity: Complexity,
}

impl ExecSignature {
    /// A neutral baseline signature for a streaming kernel of `n` elements;
    /// kernels override the fields their structure dictates.
    pub fn streaming(name: &str, n: usize) -> ExecSignature {
        ExecSignature {
            name: name.to_string(),
            problem_size: n,
            flops: 0.0,
            bytes_read: 0.0,
            bytes_written: 0.0,
            iterations: n as f64,
            int_ops_per_iter: 1.0,
            branches: 0.0,
            branch_mispredict_rate: 0.0,
            cache_reuse: 0.0,
            icache_pressure: 0.05,
            atomics: 0.0,
            atomic_contention: 1.0,
            kernel_launches: 1.0,
            mpi_messages: 0.0,
            mpi_bytes: 0.0,
            flop_efficiency: 0.25,
            gpu_flop_efficiency: None,
            gpu_coalescing: 1.0,
            complexity: Complexity::N,
        }
    }

    /// Total memory traffic per rep.
    pub fn bytes_total(&self) -> f64 {
        self.bytes_read + self.bytes_written
    }

    /// Traffic that reaches DRAM per rep (after cache reuse).
    pub fn dram_bytes(&self) -> f64 {
        self.bytes_total() * (1.0 - self.cache_reuse)
    }

    /// FLOPs per byte of memory touched (RAJAPerf's derived metric).
    pub fn flops_per_byte(&self) -> f64 {
        let b = self.bytes_total();
        if b > 0.0 {
            self.flops / b
        } else {
            0.0
        }
    }

    /// Estimated dynamic micro-operations per rep: FP + loads + stores +
    /// integer work + branches + loop control + atomic RMW expansion.
    pub fn uops(&self) -> f64 {
        let loads = self.bytes_read / 8.0;
        let stores = self.bytes_written / 8.0;
        self.flops
            + loads
            + stores
            + self.int_ops_per_iter * self.iterations
            + self.branches
            + 2.0 * self.iterations // loop increment + compare/branch
            + 4.0 * self.atomics // RMW expands to load+op+store-conditional+retry
    }

    /// Effective SIMD packing of the μop stream: regular, vectorizable FP
    /// bodies retire several elements per μop (AVX-512 packs 8 doubles);
    /// branchy or indirect bodies stay scalar. Derived from the
    /// sustained-FP-rate descriptor, which tracks vectorizability.
    pub fn simd_packing(&self) -> f64 {
        1.0 + 5.0 * self.flop_efficiency.min(1.2)
    }

    /// Scale the per-rep counts for a sub-problem of `n` elements, using the
    /// complexity annotation for work terms and linear scaling for storage
    /// terms. Used by the per-rank decomposition in `predict`.
    pub fn scaled_to(&self, n: usize) -> ExecSignature {
        let full = self.problem_size.max(1) as f64;
        let storage_ratio = n as f64 / full;
        let work_ratio = self.complexity.work(n as f64) / self.complexity.work(full);
        ExecSignature {
            name: self.name.clone(),
            problem_size: n,
            flops: self.flops * work_ratio,
            bytes_read: self.bytes_read * work_ratio,
            bytes_written: self.bytes_written * storage_ratio,
            iterations: self.iterations * work_ratio,
            branches: self.branches * work_ratio,
            atomics: self.atomics * work_ratio,
            mpi_bytes: self.mpi_bytes * storage_ratio.powf(2.0 / 3.0),
            // Message count, launches, rates and fractions are size-free.
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complexity_work_functions() {
        assert_eq!(Complexity::N.work(100.0), 100.0);
        assert_eq!(Complexity::NSqrtN.work(100.0), 1000.0);
        assert!((Complexity::NLogN.work(8.0) - 24.0).abs() < 1e-12);
        assert!((Complexity::NTwoThirds.work(1000.0) - 100.0).abs() < 1e-9);
        assert_eq!(Complexity::NSqrtN.label(), "n^3/2");
    }

    #[test]
    fn derived_metrics() {
        let mut s = ExecSignature::streaming("k", 1000);
        s.flops = 2000.0;
        s.bytes_read = 16000.0;
        s.bytes_written = 8000.0;
        s.cache_reuse = 0.5;
        assert_eq!(s.bytes_total(), 24000.0);
        assert_eq!(s.dram_bytes(), 12000.0);
        assert!((s.flops_per_byte() - 2000.0 / 24000.0).abs() < 1e-12);
        assert!(s.uops() > s.flops, "uops include memory and loop overhead");
    }

    #[test]
    fn flops_per_byte_zero_bytes() {
        let mut s = ExecSignature::streaming("k", 10);
        s.flops = 100.0;
        assert_eq!(s.flops_per_byte(), 0.0);
    }

    #[test]
    fn scaling_linear_kernel_is_proportional() {
        let mut s = ExecSignature::streaming("k", 1000);
        s.flops = 1000.0;
        s.bytes_read = 8000.0;
        let half = s.scaled_to(500);
        assert!((half.flops - 500.0).abs() < 1e-9);
        assert!((half.bytes_read - 4000.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_superlinear_kernel_does_relatively_more_work_per_element() {
        let mut s = ExecSignature::streaming("mm", 1024);
        s.complexity = Complexity::NSqrtN;
        s.flops = Complexity::NSqrtN.work(1024.0);
        let quarter = s.scaled_to(256);
        // Work per element shrinks as sqrt(n): 256 elements do
        // 256^{1.5}/1024^{1.5} = 1/8 of the work, not 1/4.
        assert!((quarter.flops / s.flops - 0.125).abs() < 1e-12);
        // Consequence: 4 ranks of 256 do 4/8 = half the flops of 1 rank of
        // 1024 — more ranks, less total work, as the paper notes inversely
        // for GPUs.
        assert!((4.0 * quarter.flops) < s.flops);
    }

    #[test]
    fn atomics_increase_uops() {
        let mut a = ExecSignature::streaming("k", 100);
        let mut b = a.clone();
        a.atomics = 0.0;
        b.atomics = 100.0;
        assert!(b.uops() > a.uops());
    }
}
