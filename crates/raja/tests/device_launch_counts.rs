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
    <SimGpuExec<128>>::forall(0..1000, &|_| {});
    let s = gpusim::stats();
    assert_eq!(s.launches, 1);
    assert_eq!(s.blocks, 8); // ceil(1000/128)
}

fn simgpu_scan_counts_three_launches() {
    gpusim::reset_stats();
    let mut out = vec![0.0; 100];
    exclusive_scan::<SimGpuExec<32>>(0..100, &mut out, |_| 1.0);
    assert_eq!(gpusim::stats().launches, 3);
}

fn simgpu_sort_counts_device_passes() {
    gpusim::reset_stats();
    let mut v: Vec<f64> = (0..100).rev().map(f64::from).collect();
    sort::<SimGpuExec<64>>(&mut v);
    // One launch per radix pass: a 64-bit key at 8 bits per digit.
    assert_eq!(gpusim::stats().launches, 8);
}

fn fused_run_is_a_single_device_launch() {
    gpusim::reset_stats();
    let mut bufs: Vec<Vec<f64>> = (0..26).map(|_| vec![0.0; 50]).collect();
    {
        let mut pool = WorkPool::new();
        for buf in bufs.iter_mut() {
            let p = DevicePtr::new(buf);
            // SAFETY: the index is in bounds of the allocation the pointer was built
            // from, and each parallel iterate writes a distinct element, so writes
            // never alias.
            pool.enqueue(0..50, move |i| unsafe { p.write(i, 1.0) });
        }
        pool.instantiate().run::<SimGpuExec<128>>();
    }
    assert_eq!(gpusim::stats().launches, 1, "26 loops, one launch");
    assert!(bufs.iter().all(|b| b.iter().all(|&v| v == 1.0)));
}
