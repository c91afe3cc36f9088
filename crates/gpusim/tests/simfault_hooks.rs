//! The `gpusim.launch` and `gpusim.ecc` failpoints. Each test arms on its
//! own thread only, so they run in parallel; the one that reads the device
//! counters back is in `device_stats.rs`.

use gpusim::DevicePtr;

fn panic_message(err: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = err.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = err.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic>".to_string()
    }
}

#[test]
fn launch_panic_injection_unwinds_with_simfault_prefix() {
    let _armed = simfault::arm_spec("gpusim.launch=panic:1.0").unwrap();
    let err = std::panic::catch_unwind(|| {
        let mut out = vec![0.0f64; 64];
        let d = DevicePtr::new(&mut out);
        // SAFETY: the index is in bounds of the allocation the pointer was built
        // from, and each parallel iterate writes a distinct element, so writes
        // never alias.
        gpusim::launch_1d(64, 32, |i| unsafe { d.write(i, i as f64) });
    })
    .expect_err("armed panic failpoint must unwind the launch");
    let msg = panic_message(&*err);
    assert!(msg.starts_with("simfault:"), "panic message: {msg}");
}

#[test]
fn launch_err_injection_surfaces_as_transient_panic() {
    let _armed = simfault::arm_spec("gpusim.launch=err:1.0").unwrap();
    let err = std::panic::catch_unwind(|| {
        gpusim::launch_1d(8, 8, |_| {});
    })
    .expect_err("err-mode injection panics because launch returns ()");
    let msg = panic_message(&*err);
    assert!(
        msg.starts_with("simfault:") && msg.contains("gpusim.launch"),
        "panic message: {msg}"
    );
}

#[test]
fn ecc_flip_corrupts_buffer_deterministically() {
    let register = || {
        let _armed = simfault::arm_spec("gpusim.ecc=flip:1.0,seed=11").unwrap();
        let mut buf = vec![1.0f64; 256];
        let _d = DevicePtr::new(&mut buf);
        buf
    };
    let a = register();
    let b = register();
    assert_ne!(a, vec![1.0f64; 256], "one bit must have flipped");
    assert_eq!(a, b, "same seed flips the same bit");
    let corrupted: Vec<usize> = a
        .iter()
        .enumerate()
        .filter(|(_, v)| **v != 1.0)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(corrupted.len(), 1, "exactly one element corrupted");
}

#[test]
fn disarmed_device_behaves_normally() {
    let mut out = vec![0.0f64; 128];
    let d = DevicePtr::new(&mut out);
    // SAFETY: the index is in bounds of the allocation the pointer was built
    // from, and each parallel iterate writes a distinct element, so writes
    // never alias.
    gpusim::launch_1d(128, 64, |i| unsafe { d.write(i, 2.0 * i as f64) });
    assert!(out.iter().enumerate().all(|(i, v)| *v == 2.0 * i as f64));
}
