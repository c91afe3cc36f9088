//! The shared result record (`suite::record`): what the campaign key holds,
//! and that reading, writing and quarantining a record file behave at the
//! edges — the surface both the sweep's cell cache and the `rajaperfd` store
//! stand on.

use proptest::prelude::*;
use serde_json::{json, Value};
use std::path::PathBuf;
use suite::params::FLAGS;
use suite::record::{
    campaign_key, check_json, quarantine, read_verified, write_record, Verified,
};
use suite::RunParams;

fn params(extra: &[&str]) -> RunParams {
    let argv = ["--kernels", "Basic_DAXPY,Stream_TRIAD"];
    let argv: Vec<String> = argv.iter().chain(extra).map(|s| s.to_string()).collect();
    RunParams::parse(&argv).unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rajaperf_record_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn key_holds_what_changes_results_and_nothing_else() {
    let base = campaign_key(&params(&[]));
    assert_eq!(base["code_version"].as_str(), Some(suite::code_version()));
    // One way to set every parameter row of the flag table. Walking the
    // table (not this list) is what catches a new flag that changes results
    // but was left out of the key: a row without a line here fails, and a
    // line whose key moves must belong to a row that says `keyed`.
    // Regression: the sweep's own copy of the key left out the execution
    // policy, so a cell computed under one retry budget answered a sweep
    // run under another.
    let settings: &[&[&str]] = &[
        &["--kernels", "Basic_MULADDSUB"],
        &["--groups", "Stream"],
        &["--features", "sort"],
        &["--exclude-kernels", "Stream_TRIAD"],
        &["--variant", "RAJA_Seq"],
        &["--gpu-block-size", "128"],
        &["--size", "1000"],
        &["--size-factor", "0.5"],
        &["--reps", "3"],
        &["--reps-factor", "2"],
        &["--sweep"],
        &["--sweep-block-sizes", "128,512", "--sweep"],
        &["--sweep-dir", "elsewhere"],
        &["--ranks", "4", "--sweep"],
        &["--rank-isolation", "process", "--sweep"],
        &["--rank-restarts", "0"],
        &["--rank-worker", "1/2", "--sweep"],
        &["--caliper", "runtime-report"],
        &["--trace", "run.trace.json"],
        &["--trace-folded", "run.folded", "--trace", "run.trace.json"],
        &["--sanitize"],
        &["--faults", "suite.kernel=err:0.5,seed=3"],
        &["--timeout", "2"],
        &["--retries", "5"],
        &["--retry-backoff-ms", "7"],
        &["--lock-order"],
    ];
    for flag in FLAGS.iter().filter(|f| f.mode.is_none()) {
        let name = flag.names[0];
        let setting = settings.iter().find(|s| s[0] == name);
        let setting = setting.unwrap_or_else(|| panic!("no setting for {name}: add one"));
        assert_eq!(campaign_key(&params(setting)) != base, flag.keyed, "{setting:?}");
    }
    // The same campaign spelled differently is the same campaign.
    let twice = ["--kernels", "Stream_TRIAD,Basic_DAXPY,Basic_DAXPY"];
    assert_eq!(campaign_key(&params(&twice)), base);
}

#[test]
fn a_body_that_is_not_an_object_still_gets_its_key() {
    let dir = temp_dir("body");
    let path = dir.join("cells/nested/r.json");
    let (key, other) = (json!({"q": 1}), json!({"q": 2}));
    write_record(&path, &key, json!([1, 2])).unwrap();
    assert_eq!(
        read_verified(&path, &key),
        Verified::Hit(json!({"body": json!([1, 2]), "key": key}))
    );
    assert_eq!(read_verified(&path, &other), Verified::Miss);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quarantine_moves_the_file_aside_under_a_fresh_name() {
    let dir = temp_dir("quarantine");
    let file = dir.join("torn.json");
    let mut moved = Vec::new();
    for _ in 0..3 {
        std::fs::write(&file, "{\"key\": ").unwrap();
        assert_eq!(read_verified(&file, &json!(1)), Verified::Corrupt);
        moved.push(quarantine(&dir, &file).unwrap());
        assert!(!file.exists(), "the address is free again");
    }
    let q = dir.join("quarantine");
    let names = ["torn.json", "torn.json.1", "torn.json.2"];
    assert_eq!(moved, names.map(|n| q.join(n)));
    assert!(moved.iter().all(|m| m.exists()));
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    /// ROADMAP 4a for the record surface: whatever bytes sit at a record
    /// path — arbitrary, or a real record truncated or bit-flipped —
    /// reading them never panics, is `Corrupt` exactly when they are
    /// not a JSON document, and is a `Hit` only when that document
    /// embeds exactly the key asked for.
    #[test]
    fn any_bytes_at_a_record_path_read_as_hit_miss_or_corrupt(
        noise in prop::collection::vec(0u16..256, 0..48),
        cut in 0usize..4096,
        flip in 0usize..32768,
    ) {
        let dir = temp_dir("prop");
        let path = dir.join("r.json");
        let key = campaign_key(&params(&["--retries", "2"]));
        let body = json!({"entries": json!([1.5, "é"]), "profile": "p.cali.json"});
        write_record(&path, &key, body).unwrap();
        let intact = std::fs::read(&path).unwrap();
        let mut torn = intact.clone();
        torn.truncate(cut % (intact.len() + 1));
        let mut flipped = intact.clone();
        flipped[(flip / 8) % intact.len()] ^= 1 << (flip % 8);
        let noise: Vec<u8> = noise.into_iter().map(|b| b as u8).collect();
        for bytes in [noise, torn, flipped, intact] {
            std::fs::write(&path, &bytes).unwrap();
            let parsed = std::str::from_utf8(&bytes)
                .ok()
                .and_then(|text| serde_json::from_str::<Value>(text).ok());
            // The validate-only read decides "intact" the same way.
            let checked = if parsed.is_some() { Verified::Hit(()) } else { Verified::Corrupt };
            prop_assert_eq!(check_json(&path), checked);
            let expected = match parsed {
                None => Verified::Corrupt,
                Some(doc) if doc.get("key") == Some(&key) => Verified::Hit(doc),
                Some(_) => Verified::Miss,
            };
            prop_assert_eq!(read_verified(&path, &key), expected);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
