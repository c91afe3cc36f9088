//! The device counters are process-wide, so the checks that read them back
//! run one after another from the single test of this binary: beside the
//! crate's unit tests, which launch concurrently, they fail now and then.

use gpusim::{launch, launch_1d, reset_stats, stats, LaunchConfig};

#[test]
fn device_counters() {
    stats_count_launches_blocks_threads();
    stats_split_padded_from_active_threads();
    launch_failures_count_no_launches();
}

fn stats_count_launches_blocks_threads() {
    reset_stats();
    launch_1d(512, 256, |_| {});
    let s = stats();
    assert_eq!(s.launches, 1);
    assert_eq!(s.blocks, 2);
    assert_eq!(s.threads_launched, 512);
    assert_eq!(s.threads_active, 512);
    assert_eq!(s.threads_padded(), 0);
}

fn stats_split_padded_from_active_threads() {
    // 1000 elements in 256-thread blocks: 4 blocks, 24 padding threads.
    reset_stats();
    launch_1d(1000, 256, |_| {});
    let s = stats();
    assert_eq!(s.blocks, 4);
    assert_eq!(s.threads_launched, 1024);
    assert_eq!(s.threads_active, 1000);
    assert_eq!(s.threads_padded(), 24);

    // The linear(0, _) edge: the device still schedules one (empty)
    // block of 256 threads, but none of them have work.
    reset_stats();
    launch_1d(0, 256, |_| unreachable!("no index has work"));
    let s = stats();
    assert_eq!(s.launches, 1);
    assert_eq!(s.blocks, 1);
    assert_eq!(s.threads_launched, 256);
    assert_eq!(s.threads_active, 0);
    assert_eq!(s.threads_padded(), 256);

    // A bare launch has no padding: every thread runs the body.
    reset_stats();
    launch(&LaunchConfig::linear(512, 128), |block| {
        block.threads(|_, _| {});
    });
    let s = stats();
    assert_eq!(s.threads_launched, 512);
    assert_eq!(s.threads_active, 512);
}

fn launch_failures_count_no_launches() {
    let _armed = simfault::arm_spec("gpusim.launch=err:1.0").unwrap();
    reset_stats();
    let _ = std::panic::catch_unwind(|| launch_1d(8, 8, |_| {}));
    assert_eq!(
        stats().launches,
        0,
        "an injected launch failure must not reach the device counters"
    );
}
