//! A block-size tuning launches the blocks it names. Every registry kernel
//! whose simulated-device launches at 512 threads per block are all
//! 512-thread blocks must launch only 32-thread blocks at 32 and only
//! 96-thread blocks at 96, under `Base_SimGpu` and `RAJA_SimGpu` alike. 96
//! is not a power of two, and 32 is below the usual tunings: a policy that
//! served only a fixed set of block sizes would run these at another size
//! under this size's label.
//!
//! Its own binary: the device counters are process-wide, so the runs that
//! read them back go one after another from the single test here.

use kernels::{KernelBase, Tuning, VariantId};

const N: usize = 1000;

/// `(blocks, threads_launched)` of one repetition of `k` under `variant`
/// at block size `bs`.
fn launched(k: &dyn KernelBase, variant: VariantId, bs: usize) -> (u64, u64) {
    gpusim::reset_stats();
    k.execute(variant, N, 1, &Tuning { gpu_block_size: bs });
    let s = gpusim::stats();
    (s.blocks, s.threads_launched)
}

/// True when the run launched something, and only `bs`-thread blocks.
fn only_blocks_of(bs: usize, (blocks, threads): (u64, u64)) -> bool {
    blocks > 0 && threads == bs as u64 * blocks
}

#[test]
fn every_tuning_launches_the_block_size_it_names() {
    let (mut checked, mut skipped, mut wrong) = (0, Vec::new(), Vec::new());
    for k in kernels::registry() {
        let info = k.info();
        for variant in [VariantId::BaseSimGpu, VariantId::RajaSimGpu] {
            if !info.variants.contains(&variant) {
                continue;
            }
            let label = format!("{}/{}", info.name, variant.name());
            if !only_blocks_of(512, launched(k.as_ref(), variant, 512)) {
                skipped.push(label);
                continue;
            }
            checked += 1;
            for bs in [32, 96] {
                let (blocks, threads) = launched(k.as_ref(), variant, bs);
                if !only_blocks_of(bs, (blocks, threads)) {
                    wrong.push(format!(
                        "{label} at {bs}: {threads} threads in {blocks} blocks"
                    ));
                }
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "{} of {} runs of {checked} kernel-variants launch another block size:\n{}",
        wrong.len(),
        2 * checked,
        wrong.join("\n")
    );
    // The 16x16 tile of MAT_MAT_SHARED is fixed; HALO_SENDRECV launches
    // nothing. Every other kernel-variant is checked.
    assert_eq!(
        skipped,
        [
            "Basic_MAT_MAT_SHARED/Base_SimGpu",
            "Basic_MAT_MAT_SHARED/RAJA_SimGpu",
            "Comm_HALO_SENDRECV/Base_SimGpu",
            "Comm_HALO_SENDRECV/RAJA_SimGpu",
        ]
    );
}
