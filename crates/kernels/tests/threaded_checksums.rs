//! Multi-thread smoke test: under a real 4-thread pool, the parallel and
//! simulated-GPU variants of the reduction/atomic feature kernels must still
//! produce checksums matching `Base_Seq`.
//!
//! This binary pins `RAYON_NUM_THREADS=4` before first pool use (the pool is
//! process-global and sized once), so every kernel here executes with real
//! pool parallelism: `Par` variants run their loops across the
//! pool, and `SimGpu` variants run their blocks across it.

use kernels::{Feature, Tuning, VariantId};

#[test]
fn par_checksums_match_base_seq_for_reduction_and_atomic_kernels() {
    std::env::set_var("RAYON_NUM_THREADS", "4");
    assert_eq!(rayon::current_num_threads(), 4);
    let tuning = Tuning::default();
    let mut checked = 0;
    for kernel in kernels::registry() {
        let info = kernel.info();
        let featured = info
            .features
            .iter()
            .any(|f| matches!(f, Feature::Reduction | Feature::Atomic));
        if !featured || !info.variants.contains(&VariantId::BaseSeq) {
            continue;
        }
        let n = info.default_size.min(10_000);
        let reference = kernel.execute(VariantId::BaseSeq, n, 1, &tuning).checksum;
        for v in [
            VariantId::BasePar,
            VariantId::RajaPar,
            VariantId::BaseSimGpu,
            VariantId::RajaSimGpu,
        ] {
            if !info.variants.contains(&v) {
                continue;
            }
            let got = kernel.execute(v, n, 1, &tuning).checksum;
            assert!(
                kernels::common::close(got, reference, 1e-6),
                "{} {}: checksum {} diverged from Base_Seq {}",
                info.name,
                v.name(),
                got,
                reference
            );
        }
        checked += 1;
    }
    assert!(
        checked >= 5,
        "expected several reduction/atomic kernels in the registry, found {checked}"
    );
}
