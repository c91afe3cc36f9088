//! The halo kernels' launch counts, counted on the simulated device rather
//! than declared: per rep, `HALO_PACKING` launches 52 kernels (26 pack and
//! 26 unpack loops) and `HALO_PACKING_FUSED` 2, and each rank of the
//! exchange pair launches as many as its packing twin. Each count must equal
//! the `kernel_launches` of the kernel's performance-model signature, which
//! the model's launch-overhead term reads.
//!
//! One `#[test]` on purpose, in its own binary: the device counters are
//! process-wide, so no other test may launch while these are read.

use kernels::comm::RANKS;
use kernels::{KernelBase, Tuning, VariantId};

/// Device launches of one `execute` of `k`.
fn launches(k: &dyn KernelBase, variant: VariantId, n: usize, reps: usize) -> u64 {
    gpusim::reset_stats();
    k.execute(variant, n, reps, &Tuning::default());
    gpusim::stats().launches
}

#[test]
fn halo_kernels_launch_what_their_signatures_declare() {
    let n = 3000;
    for (name, ranks, per_rank) in [
        ("Comm_HALO_PACKING", 1, 52),
        ("Comm_HALO_PACKING_FUSED", 1, 2),
        ("Comm_HALO_EXCHANGE", RANKS, 52),
        ("Comm_HALO_EXCH_FUSED", RANKS, 2),
    ] {
        let k = kernels::find(name).expect("a registered halo kernel");
        for variant in [VariantId::BaseSimGpu, VariantId::RajaSimGpu] {
            // Setup and checksum launch nothing per rep; the difference of
            // two rep counts is the launches of one rep.
            let per_rep = launches(k, variant, n, 3) - launches(k, variant, n, 2);
            let what = format!("{name} {}", variant.name());
            assert_eq!(per_rep, ranks as u64 * per_rank, "{what}");
            assert_eq!(k.signature(n).kernel_launches, per_rank as f64, "{what}");
        }
    }
}
