//! Tuning sweep: the §II-C "find optimal configurations for specific
//! hardware by tuning various execution parameters, such as GPU
//! thread-block sizes" workflow — run a kernel across RAJAPerf's block-size
//! tunings on the simulated device and relate the measured times to the
//! occupancy each configuration would reach on V100-class hardware.
//!
//! ```text
//! cargo run --release --example tuning_sweep
//! ```

use gpusim::occupancy::{occupancy, SmLimits};
use rajaperf::prelude::*;

fn main() {
    let block_sizes = [32usize, 64, 128, 256, 512, 1024];
    let limits = SmLimits::v100();
    let (n, reps) = (200_000, 5);

    for name in ["Stream_TRIAD", "Basic_REDUCE3_INT", "Basic_MAT_MAT_SHARED"] {
        println!("{name} (n = {n}, RAJA_SimGpu):");
        println!(
            "  {:>16} {:>14} {:>12} {:>14}",
            "block (launched)", "time/rep (s)", "occupancy", "limited by"
        );
        // MAT_MAT_SHARED's device kernel stages three 16x16 f64 tiles.
        let shared_bytes = if name == "Basic_MAT_MAT_SHARED" {
            3 * 16 * 16 * 8
        } else {
            0
        };
        for bs in block_sizes {
            // Occupancy at the block size the run launched, which a kernel
            // with a fixed tile (MAT_MAT_SHARED's 16x16) does not take from
            // the tuning.
            let before = gpusim::stats();
            let sweep = suite::run_tuning_sweep(name, VariantId::RajaSimGpu, n, reps, &[bs])
                .expect("registry kernel names are known");
            let after = gpusim::stats();
            let launched = ((after.threads_launched - before.threads_launched)
                / (after.blocks - before.blocks).max(1)) as usize;
            let label = if launched == bs {
                format!("block_{bs}")
            } else {
                format!("block_{bs} ({launched})")
            };
            let occ = occupancy(&limits, launched, shared_bytes);
            println!(
                "  {:>16} {:>14.3e} {:>11.0}% {:>14}",
                label,
                sweep[0].1,
                occ.fraction * 100.0,
                match occ.limited_by {
                    gpusim::occupancy::OccupancyLimit::Threads => "threads",
                    gpusim::occupancy::OccupancyLimit::Blocks => "block slots",
                    gpusim::occupancy::OccupancyLimit::SharedMemory => "shared mem",
                    gpusim::occupancy::OccupancyLimit::NotLaunchable => "UNLAUNCHABLE",
                }
            );
        }
        println!();
    }
    println!(
        "Reading: results are identical across tunings (the suite validates this);\n\
         on real hardware the occupancy column is what moves the time column —\n\
         block_32's half occupancy is the classic tuning pitfall."
    );
}
