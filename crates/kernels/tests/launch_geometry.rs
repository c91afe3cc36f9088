//! The device counters are process-wide, so the one test that reads them
//! back lives alone in this binary: beside the crate's unit tests, which
//! launch concurrently, it failed two runs in three.

use kernels::{Tuning, VariantId};

#[test]
fn gpu_block_size_tuning_changes_launch_geometry() {
    let triad = kernels::find("Stream_TRIAD").expect("registered");
    for (gpu_block_size, blocks) in [(128, 8), (512, 2)] {
        gpusim::reset_stats();
        let _ = triad.execute(VariantId::RajaSimGpu, 1024, 1, &Tuning { gpu_block_size });
        assert_eq!(
            gpusim::stats().blocks,
            blocks,
            "block size {gpu_block_size}"
        );
    }
}
