//! The `.cali.json` bytes are pinned: `Profile::to_json` prints a fixed
//! profile exactly as `golden/profile.cali.json` holds it (the file was
//! written by the tree printer the streaming writer replaced), and
//! `Profile::from_json` reads those bytes back.

use caliper::{Profile, Record};
use serde_json::{json, Value};
use std::collections::BTreeMap;

const GOLDEN: &str = include_str!("golden/profile.cali.json");

/// Every shape a profile prints: string, integer, float, boolean and nested
/// globals; escapes and non-ASCII text in names and values; non-finite
/// metrics (written as `null`); a record with no metrics.
fn fixed_profile() -> Profile {
    let mut globals = BTreeMap::new();
    globals.insert("variant".to_string(), json!("RAJA_Seq"));
    globals.insert("ranks".to_string(), json!(112));
    globals.insert("offset".to_string(), json!(-3));
    globals.insert("problem_size".to_string(), json!(1.5e6));
    globals.insert("tiny".to_string(), json!(1e-7));
    globals.insert("huge".to_string(), json!(1e300));
    globals.insert("negative_zero".to_string(), json!(-0.0));
    globals.insert("sanitize".to_string(), json!(false));
    globals.insert("armed".to_string(), json!(true));
    globals.insert("unset".to_string(), Value::Null);
    globals.insert(
        "tuning".to_string(),
        json!({
            "gpu_block_size": 256,
            "names": json!(["block_128", "é \"q\"", ""]),
            "nested": json!({"empty_list": json!([]), "empty_map": json!({}), "none": json!(null)}),
        }),
    );
    globals.insert(
        "n\"ote\\ \t\u{1}é".to_string(),
        json!("line\nbreak\r\u{8}\u{c}\u{1f} /é€😀"),
    );
    let metrics = |cells: &[(&str, f64)]| -> BTreeMap<String, f64> {
        cells.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    };
    let records = vec![
        Record {
            path: vec!["(root)".to_string()],
            metrics: BTreeMap::new(),
        },
        Record {
            path: vec!["Stream_TRIAD".to_string()],
            metrics: metrics(&[
                ("avg#time.duration", 0.125),
                ("sum#time.duration", 2.5e-5),
                ("Flops/Rep", 2e6),
                ("Checksum", f64::NAN),
                ("max#Checksum", f64::INFINITY),
                ("min#Checksum", f64::NEG_INFINITY),
                ("count", 3.0),
                ("ratio", 1.0 / 3.0),
            ]),
        },
        Record {
            path: vec!["Stream_TRIAD".to_string(), "inner \"é\"\t".to_string()],
            metrics: metrics(&[("exclusive#time.duration", 0.0), ("z", -1.5e-300)]),
        },
    ];
    Profile { globals, records }
}

#[test]
fn to_json_prints_the_golden_bytes() {
    assert_eq!(fixed_profile().to_json(), GOLDEN);
}

#[test]
fn from_json_reads_the_golden_bytes_back_without_the_unobserved_cells() {
    let mut expected = fixed_profile();
    for record in &mut expected.records {
        record.metrics.retain(|_, v| v.is_finite());
    }
    assert_eq!(Profile::from_json(GOLDEN).unwrap(), expected);
}
