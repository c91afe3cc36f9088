//! Performance-portability study: the paper's §II-C/§II-D workflow —
//! run the Stream group under every variant, write one Caliper profile per
//! run, compose them with Thicket, and report the RAJA abstraction
//! overhead per back-end.
//!
//! ```text
//! cargo run --release --example portability_study
//! ```

use rajaperf::prelude::*;

fn main() {
    let dir = std::env::temp_dir().join("rajaperf_portability_study");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // One run (and one profile) per variant, exactly as upstream.
    let base = RunParams {
        selection: Selection::Groups(vec!["Stream".into()]),
        explicit_size: Some(200_000),
        explicit_reps: Some(10),
        caliper_spec: Some(format!("spot(output={}/run.cali.json)", dir.display())),
        ..RunParams::default()
    };
    let variants = [
        VariantId::BaseSeq,
        VariantId::RajaSeq,
        VariantId::BasePar,
        VariantId::RajaPar,
        VariantId::BaseSimGpu,
        VariantId::RajaSimGpu,
    ];
    let reports = suite::run_variants(&base, &variants);
    let checksums = suite::checksum_report(&reports);
    assert!(checksums.all_pass(), "{}", checksums.render());

    // Compose the profiles with Thicket and group by variant metadata.
    let profiles: Vec<thicket::ProfileData> = reports
        .iter()
        .flat_map(|r| r.outputs.iter())
        .map(|w| thicket::ProfileData::read_file(&w.path).expect("profile readable"))
        .collect();
    let tk = thicket::Thicket::from_profiles(&profiles);
    println!("composed {} profiles into one thicket\n", tk.profiles.len());

    // RAJA abstraction overhead: RAJA time / Base time per back-end.
    println!(
        "{:<16} {:>16} {:>16} {:>10}",
        "Kernel", "backend", "RAJA/Base time", "overhead"
    );
    for kernel in ["Stream_ADD", "Stream_COPY", "Stream_DOT", "Stream_MUL", "Stream_TRIAD"] {
        for (b, r) in [
            (VariantId::BaseSeq, VariantId::RajaSeq),
            (VariantId::BasePar, VariantId::RajaPar),
            (VariantId::BaseSimGpu, VariantId::RajaSimGpu),
        ] {
            let tb = reports
                .iter()
                .find(|rep| rep.variant == b)
                .and_then(|rep| rep.entry(kernel))
                .map(|e| e.result.time_per_rep())
                .unwrap();
            let tr = reports
                .iter()
                .find(|rep| rep.variant == r)
                .and_then(|rep| rep.entry(kernel))
                .map(|e| e.result.time_per_rep())
                .unwrap();
            let ratio = tr / tb;
            println!(
                "{:<16} {:>16} {:>16.3} {:>9.1}%",
                kernel,
                r.name(),
                ratio,
                (ratio - 1.0) * 100.0
            );
        }
    }
    println!("\n(ratios near 1.0 mean the portability layer adds negligible cost)");
    let _ = std::fs::remove_dir_all(&dir);
}
