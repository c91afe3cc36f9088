//! `RAJA_Par` answers that must not depend on scheduling. The test re-runs
//! this test binary at `RAYON_NUM_THREADS=1`, `=2` and `=4` (the pool reads
//! it once per process):
//!
//! * each child runs `Basic_MULTI_REDUCE` and `Algorithm_HISTOGRAM` five
//!   times and requires the same checksum bits: their multi-reduce sums
//!   each chunk's bins in chunk order, where `MULTI_REDUCE`'s contended
//!   atomic adds summed in whatever order the threads happened to reach a
//!   bin. `HISTOGRAM` adds 1.0 per element, which sums exactly in any
//!   order, so its half is a guard on the multi-reduce, not a fix;
//! * each child prints `Comm_HALO_EXCHANGE`'s checksum bits, and the
//!   parent requires the same bits at every width, whether the ranks' loops
//!   run inline (two ranks on a two-thread pool) or pooled: the exchange
//!   only moves values.

use kernels::{KernelBase, Tuning, VariantId};

const CHILD: &str = "checksums_at_one_pool_width";

fn kernel(name: &str) -> &'static dyn KernelBase {
    kernels::registry()
        .iter()
        .find(|k| k.info().name == name)
        .unwrap_or_else(|| panic!("{name} is in the registry"))
        .as_ref()
}

/// The child: checks repeated runs and prints the exchange's checksum
/// bits. Ignored so that it runs only when the parent asks for it by name.
#[test]
#[ignore = "run by par_checksums_are_reproducible_at_pool_widths_1_2_and_4"]
fn checksums_at_one_pool_width() {
    let tuning = Tuning::default();
    for (name, n) in [
        ("Basic_MULTI_REDUCE", 100_000),
        ("Algorithm_HISTOGRAM", 100_000),
    ] {
        let k = kernel(name);
        let first = k.execute(VariantId::RajaPar, n, 1, &tuning).checksum;
        for _ in 1..5 {
            let again = k.execute(VariantId::RajaPar, n, 1, &tuning).checksum;
            assert_eq!(
                again.to_bits(),
                first.to_bits(),
                "{name}: {again} then {first}"
            );
        }
    }
    let halo = kernel("Comm_HALO_EXCHANGE")
        .execute(VariantId::RajaPar, 30_000, 2, &tuning)
        .checksum;
    println!("Comm_HALO_EXCHANGE={:016x}", halo.to_bits());
}

#[test]
fn par_checksums_are_reproducible_at_pool_widths_1_2_and_4() {
    let exe = std::env::current_exe().unwrap();
    let bits_at = |width: &str| {
        let out = std::process::Command::new(&exe)
            .args([
                "--exact",
                CHILD,
                "--ignored",
                "--nocapture",
                "--test-threads=1",
            ])
            .env("RAYON_NUM_THREADS", width)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "width {width}: {stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let halo = stdout
            .lines()
            .find_map(|l| l.split_once("Comm_HALO_EXCHANGE="))
            .map(|(_, bits)| bits)
            .unwrap_or_else(|| panic!("width {width} printed no halo checksum: {stdout}"));
        halo.to_string()
    };
    let one = bits_at("1");
    for width in ["2", "4"] {
        assert_eq!(
            bits_at(width),
            one,
            "Comm_HALO_EXCHANGE at width {width} vs width 1"
        );
    }
}
