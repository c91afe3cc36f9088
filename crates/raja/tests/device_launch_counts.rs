//! The device counters are process-wide, so the checks that read them back
//! run one after another from the single test of this binary: beside the
//! crate's unit tests, which launch concurrently, they fail now and then.

use raja::scan::exclusive_scan;
use raja::sort::sort;
use raja::workgroup::WorkPool;
use raja::{DevicePtr, ExecPolicy, SimGpuExec};

#[test]
fn device_launch_counts() {
    simgpu_counts_one_launch_per_forall();
    simgpu_scan_counts_three_launches();
    simgpu_sort_counts_device_passes();
    fused_run_is_a_single_device_launch();
}

fn simgpu_counts_one_launch_per_forall() {
    gpusim::reset_stats();
    SimGpuExec::new(128).forall(0..1000, &|_| {});
    let s = gpusim::stats();
    assert_eq!(s.launches, 1);
    assert_eq!(s.blocks, 8); // ceil(1000/128)
}

fn simgpu_scan_counts_three_launches() {
    gpusim::reset_stats();
    let mut out = vec![0.0; 100];
    exclusive_scan(SimGpuExec::new(32), 0..100, &mut out, |_| 1.0);
    assert_eq!(gpusim::stats().launches, 3);
}

fn simgpu_sort_counts_device_passes() {
    gpusim::reset_stats();
    let mut v: Vec<f64> = (0..100).rev().map(f64::from).collect();
    sort(SimGpuExec::new(64), &mut v);
    // One launch per radix pass: a 64-bit key at 8 bits per digit.
    assert_eq!(gpusim::stats().launches, 8);
}

fn fused_run_is_a_single_device_launch() {
    // Ragged lengths: the grid's x extent follows the mean loop (234: two
    // 128-thread blocks), so each 700-long loop takes three grid strides.
    let lens = [1, 50, 700];
    gpusim::reset_stats();
    let mut bufs: Vec<Vec<f64>> = (0..26).map(|d| vec![0.0; lens[d % 3]]).collect();
    {
        let mut pool = WorkPool::new();
        for buf in bufs.iter_mut() {
            let n = buf.len();
            let p = DevicePtr::new(buf);
            // SAFETY: the index is in bounds of the allocation the pointer was built
            // from, and each parallel iterate writes a distinct element, so writes
            // never alias.
            pool.enqueue(0..n, move |i| unsafe { p.write(i, p.read(i) + 1.0) });
        }
        pool.instantiate().run(SimGpuExec::new(128));
    }
    let s = gpusim::stats();
    assert_eq!(s.launches, 1, "26 loops, one launch");
    assert_eq!(
        s.blocks,
        2 * 26,
        "grid x from the mean loop, grid y the loops"
    );
    assert!(bufs.iter().all(|b| b.iter().all(|&v| v == 1.0)));
}
