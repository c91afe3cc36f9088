//! Suite-wide invariants: properties every one of the 76 kernels must
//! satisfy, checked by sweeping the registry.

use kernels::{KernelBase, PaperModel, Tuning, VariantId};

/// A fast per-kernel size for sweep tests.
fn quick_size(k: &dyn KernelBase) -> usize {
    (k.info().default_size / 100).max(1200)
}

#[test]
fn gpu_block_size_does_not_change_results() {
    // RAJAPerf's tunings change performance, never answers: the simulated
    // device must produce identical checksums for every block size: one
    // warp (32) and one that is not a power of two (96) included.
    for kernel in kernels::registry() {
        let info = kernel.info();
        let n = quick_size(kernel.as_ref());
        for variant in [VariantId::BaseSimGpu, VariantId::RajaSimGpu] {
            if !info.variants.contains(&variant) {
                continue;
            }
            let run = |bs| kernel.execute(variant, n, 1, &Tuning { gpu_block_size: bs }).checksum;
            let r64 = run(64);
            for bs in [32, 96, 512] {
                let r = run(bs);
                assert!(
                    kernels::common::close(r64, r, 1e-9),
                    "{}/{}: block_64 {r64} vs block_{bs} {r}",
                    info.name,
                    variant.name()
                );
            }
        }
    }
}

#[test]
fn metrics_grow_monotonically_with_problem_size() {
    for kernel in kernels::registry() {
        let info = kernel.info();
        let small = kernel.metrics(10_000);
        let large = kernel.metrics(80_000);
        let total_small = small.bytes_read + small.bytes_written + small.flops;
        let total_large = large.bytes_read + large.bytes_written + large.flops;
        assert!(
            total_large > total_small,
            "{}: metrics must grow with n ({total_small} vs {total_large})",
            info.name
        );
    }
}

#[test]
fn metrics_are_nonnegative_and_nonempty() {
    for kernel in kernels::registry() {
        let info = kernel.info();
        let m = kernel.metrics(info.default_size);
        assert!(m.bytes_read >= 0.0 && m.bytes_written >= 0.0 && m.flops >= 0.0);
        assert!(
            m.bytes_read + m.bytes_written + m.flops > 0.0,
            "{} does no accountable work",
            info.name
        );
    }
}

#[test]
fn signatures_are_well_formed() {
    for kernel in kernels::registry() {
        let info = kernel.info();
        let s = kernel.signature(100_000);
        assert!(
            (0.0..=1.0).contains(&s.cache_reuse),
            "{} cache_reuse {}",
            info.name,
            s.cache_reuse
        );
        assert!((0.0..=1.0).contains(&s.icache_pressure), "{}", info.name);
        assert!((0.0..=1.0).contains(&s.branch_mispredict_rate), "{}", info.name);
        assert!((0.0..=1.0).contains(&s.atomic_contention), "{}", info.name);
        assert!(s.gpu_coalescing > 0.0 && s.gpu_coalescing <= 1.0, "{}", info.name);
        assert!(s.flop_efficiency >= 0.0, "{}", info.name);
        assert!(s.uops() > 0.0, "{}", info.name);
        assert!(s.kernel_launches >= 1.0 || s.mpi_messages > 0.0, "{}", info.name);
        assert!(s.dram_bytes() <= s.bytes_total() + 1e-9, "{}", info.name);
    }
}

#[test]
fn device_variants_match_paper_model_coverage() {
    // Kernels Table I lists with CUDA or HIP implementations carry our
    // simulated-device variants, and vice versa.
    for kernel in kernels::registry() {
        let info = kernel.info();
        let has_device_model = info
            .paper_models
            .iter()
            .any(|m| matches!(m, PaperModel::Cuda | PaperModel::Hip));
        let has_device_variant = info.variants.contains(&VariantId::RajaSimGpu);
        assert_eq!(
            has_device_model, has_device_variant,
            "{}: paper device coverage vs variants mismatch",
            info.name
        );
    }
}

#[test]
fn all_six_variants_agree_for_every_kernel() {
    // The decisive cross-variant sweep at reduced sizes (Base_Seq is the
    // reference inside verify_variants).
    for kernel in kernels::registry() {
        let n = quick_size(kernel.as_ref());
        kernels::verify_variants(kernel.as_ref(), n, 1e-7);
    }
}

#[test]
fn execute_panics_on_unsupported_variant_message() {
    // check_variant must identify the kernel and variant in its panic.
    let result = std::panic::catch_unwind(|| {
        // Construct a kernel info with restricted variants via the check
        // helper directly.
        let info = kernels::find("Stream_TRIAD").unwrap().info();
        let mut restricted = info.clone();
        restricted.variants = kernels::SEQ_VARIANTS;
        kernels::check_variant(&restricted, VariantId::RajaSimGpu);
    });
    let err = result.expect_err("must panic");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("Stream_TRIAD"), "{msg}");
    assert!(msg.contains("RAJA_SimGpu"), "{msg}");
}

#[test]
fn checksums_are_deterministic_across_process_lifetime() {
    // Data initialization is a pure hash: re-running a kernel reproduces
    // the exact checksum.
    let tuning = Tuning::default();
    for name in ["Stream_TRIAD", "Polybench_GEMM", "Apps_VOL3D", "Algorithm_SORT"] {
        let kernel = kernels::find(name).unwrap();
        let a = kernel.execute(VariantId::BaseSeq, 5000, 1, &tuning).checksum;
        let b = kernel.execute(VariantId::BaseSeq, 5000, 1, &tuning).checksum;
        assert_eq!(a, b, "{name}");
    }
}
