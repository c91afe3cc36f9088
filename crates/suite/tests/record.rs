//! The shared result record (`suite::record`): what the campaign key holds,
//! and that reading, writing and quarantining a record file behave at the
//! edges — the surface both the sweep's cell cache and the `rajaperfd` store
//! stand on.

use proptest::prelude::*;
use serde_json::{json, Extended, Value};
use std::path::{Path, PathBuf};
use suite::params::FLAGS;
use suite::record::{
    campaign_key, quarantine, read_report, read_verified, write_record, write_report, EntryRecord,
    ProfileDigest, Verified,
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
    let (key, other) = (json!({"q": 1}), json!({"q": 2}).to_string());
    let text = key.to_string();
    write_record(&path, &text, &json!([1, 2])).unwrap();
    assert_eq!(
        read_verified(&path, &text),
        Verified::Hit(json!({"body": json!([1, 2])}))
    );
    assert_eq!(read_verified(&path, &other), Verified::Miss);
    // A scalar body is wrapped the same way.
    let scalar = dir.join("scalar.json");
    write_record(&scalar, &text, &json!("s")).unwrap();
    assert_eq!(
        std::fs::read_to_string(&scalar).unwrap(),
        json!({"body": "s", "key": key}).to_string()
    );
    // A body's own `key` member, however nested its value, gives way to the
    // record's key: the record still verifies.
    let keyed = dir.join("keyed.json");
    let nested = json!([1, json!({"key": 2})]);
    let body = json!({"a": nested, "key": json!({"q": json!([2, json!({"k": 3})])}), "z": 4});
    write_record(&keyed, &text, &body).unwrap();
    let expected = json!({"a": nested, "key": key, "z": 4});
    assert_eq!(std::fs::read_to_string(&keyed).unwrap(), expected.to_string());
    assert_eq!(
        read_verified(&keyed, &text),
        Verified::Hit(json!({"a": nested, "z": 4}))
    );
    // A typed body extended as a sweep cell's is prints what the tree of
    // its parts prints: the key and the extra members in name order among
    // the type's fields, a non-finite checksum as `null`.
    let entry = EntryRecord {
        kernel: "K\"é".to_string(),
        size: 10,
        reps: 2,
        time_per_rep_s: 1.5e-6,
        checksum: f64::NAN,
    };
    let (a, profile) = (1, "p.cali.json");
    let extra: [(&str, &dyn serde_json::Serialize); 2] = [("a", &a), ("profile", &profile)];
    let typed = dir.join("typed.json");
    write_record(&typed, &text, &Extended { body: &entry, extra: &extra }).unwrap();
    let mut tree = json!(entry);
    let Value::Object(fields) = &mut tree else {
        panic!("an entry is an object");
    };
    for (name, value) in [("a", json!(a)), ("profile", json!(profile)), ("key", key.clone())] {
        fields.insert(name.to_string(), value);
    }
    assert_eq!(std::fs::read_to_string(&typed).unwrap(), tree.to_string());
    std::fs::remove_dir_all(&dir).ok();
}

/// The tree a record of `report` (compact text) prints from: what
/// [`write_report`] must lay down without one.
fn report_tree(report: &str) -> Value {
    json!({
        "report": serde_json::from_str::<Value>(report).unwrap(),
        "report_bytes": report.len(),
        "report_digest": format!("{:032x}", caliper::digest(report.as_bytes())),
    })
}

/// [`read_report`] of the record at `path`. Whatever it answers, a hit is
/// also a hit of the tree read, whose `report` is the hit's text parsed.
fn report_read(path: &Path, key: &str) -> Verified<String> {
    let read = read_report(path, key);
    if let Verified::Hit(text) = &read {
        let Verified::Hit(doc) = read_verified(path, key) else {
            panic!("a report hit the tree read misses: {text}");
        };
        assert_eq!(serde_json::from_str::<Value>(text).unwrap(), doc["report"]);
    }
    read
}

#[test]
fn the_report_read_answers_the_bytes_written_and_no_others() {
    let dir = temp_dir("text");
    let path = dir.join("r.json");
    let key = r#"{"p":[1],"q":1}"#;
    // The writer lays down the tree writer's bytes, and the report comes
    // back exactly as written, its spaces and all.
    write_report(&path, key, r#"{"a":[2,"é"]}"#).unwrap();
    let tree = dir.join("tree.json");
    write_record(&tree, key, &report_tree(r#"{"a":[2,"é"]}"#)).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&tree).unwrap());
    let spaced = r#"{"a" : [2, "é"]}"#;
    write_report(&path, key, spaced).unwrap();
    assert_eq!(report_read(&path, key), Verified::Hit(spaced.into()));
    let intact = std::fs::read_to_string(&path).unwrap();
    let tail = intact.rfind(r#","report_bytes""#).unwrap();
    let hex = format!("{:032x}", caliper::digest(spaced.as_bytes()));
    let other_hex = hex.replacen(&hex[..1], if hex.starts_with('0') { "1" } else { "0" }, 1);
    let deep = format!("{}{}", "[".repeat(128), "]".repeat(128));
    let cases: [(String, Verified<String>); 19] = [
        // JSON laid out otherwise is a miss, whatever the tree read makes
        // of it: no report, a repeated member, the key repeated (either way
        // round), printed otherwise or another, not an object, a record
        // stored without a digest, a byte after the record's end.
        (r#"{"key": {"p":[1],"q":1}}"#.into(), Verified::Miss),
        (
            r#"{"report": 1, "key":{"p":[1],"q":1}, "report": {"a" : [2, "é"]} }"#.into(),
            Verified::Miss,
        ),
        (r#"{"key":{"p":[1],"q":2},"key":{"p":[1],"q":1},"report":3}"#.into(), Verified::Miss),
        (r#"{"key":{"p":[1],"q":1},"key":{"p":[1],"q":2},"report":3}"#.into(), Verified::Miss),
        (r#"{"key":{"p":[1],"q":1.0},"report":3}"#.into(), Verified::Miss),
        (r#"{"key": {"p": [1], "q": 1}, "report": 3}"#.into(), Verified::Miss),
        (r#"{"key":{"q":1,"p":[1]},"report":3}"#.into(), Verified::Miss),
        ("[1]".into(), Verified::Miss),
        (r#"{"key":{"p":[1],"q":1},"report":3}"#.into(), Verified::Miss),
        (format!("{intact}\n"), Verified::Miss),
        // Not JSON: torn, or nested past the reader's cap.
        (r#"{"key":{"p":[1],"q":1},"report":["#.into(), Verified::Corrupt),
        (format!(r#"{{"key":{key},"report":{deep}}}"#), Verified::Corrupt),
        // The layout, but not the bytes it vouches for: still JSON, and
        // corrupt all the same.
        (intact.replacen('2', "7", 1), Verified::Corrupt),
        (intact.replacen("\"é", "\"e", 1), Verified::Corrupt),
        (
            intact.replace(
                &format!(r#""report_bytes":{}"#, spaced.len()),
                &format!(r#""report_bytes":{}"#, spaced.len() + 1),
            ),
            Verified::Corrupt,
        ),
        (
            intact.replace(
                &format!(r#""report_bytes":{}"#, spaced.len()),
                r#""report_bytes":99999999999999999999999"#,
            ),
            Verified::Corrupt,
        ),
        (intact.replace(&hex, &other_hex), Verified::Corrupt),
        (intact.replace(&hex, &hex.to_uppercase()), Verified::Corrupt),
        // A tail laid out otherwise is not the layout: JSON, so a miss.
        (
            format!("{}{}", &intact[..tail], &intact[tail..].to_uppercase()),
            Verified::Miss,
        ),
    ];
    for (doc, expected) in cases {
        std::fs::write(&path, &doc).unwrap();
        assert_eq!(report_read(&path, key), expected, "{doc}");
    }
    // The report is not parsed: past the reader's cap, or not UTF-8, a
    // report that is the vouched bytes is a hit and one that is not UTF-8
    // is corrupt however it is vouched for.
    let deep = format!("{}{}", "[".repeat(200), "]".repeat(200));
    write_report(&path, key, &deep).unwrap();
    assert_eq!(read_report(&path, key), Verified::Hit(deep));
    let latin1 = b"\"caf\xe9\"";
    let mut record = format!(r#"{{"key":{key},"report":"#).into_bytes();
    record.extend(latin1);
    let digest = caliper::digest(latin1);
    record.extend(format!(r#","report_bytes":6,"report_digest":"{digest:032x}"}}"#).bytes());
    std::fs::write(&path, &record).unwrap();
    assert_eq!(read_report(&path, key), Verified::Corrupt);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_digest_vouches_for_its_bytes_and_no_others() {
    let dir = temp_dir("digest");
    let path = dir.join("p.cali.json");
    let text = r#"{"globals": {"variant": "Base_Seq"}, "records": []}"#;
    let vouched = ProfileDigest::new(text.len() as u64, caliper::digest(text.as_bytes()));
    assert_eq!(vouched.check(&path), Verified::Miss, "no file");
    std::fs::write(&path, text).unwrap();
    assert_eq!(vouched.check(&path), Verified::Hit(()));
    // Another valid document, one byte longer, or nested past the reader's
    // cap: none is the vouched bytes, and none is parsed to find out.
    let deep = "[".repeat(300_000);
    let other = text.replace("Base_Seq", "Base_Par");
    for bytes in [other, format!("{text} "), deep] {
        std::fs::write(&path, bytes).unwrap();
        assert_eq!(vouched.check(&path), Verified::Corrupt);
    }
    // A record carries the digest as two members, and reads it back.
    let record = dir.join("r.json");
    let key = json!({"q": 1}).to_string();
    let extra: [(&str, &dyn serde_json::Serialize); 2] = [
        ("profile_bytes", &vouched.profile_bytes),
        ("profile_digest", &vouched.profile_digest),
    ];
    write_record(&record, &key, &Extended { body: &json!({}), extra: &extra }).unwrap();
    let Verified::Hit(read) = read_verified(&record, &key) else {
        panic!("an intact record");
    };
    assert_eq!(read["profile_digest"].as_str().map(str::len), Some(32));
    let digest = <ProfileDigest as serde::Deserialize>::deserialize(&read);
    assert_eq!(digest.ok(), Some(vouched));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quarantine_moves_the_file_aside_under_a_fresh_name() {
    let dir = temp_dir("quarantine");
    let file = dir.join("torn.json");
    let mut moved = Vec::new();
    for _ in 0..3 {
        std::fs::write(&file, "{\"key\": ").unwrap();
        assert_eq!(read_verified(&file, "1"), Verified::Corrupt);
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
    /// embeds exactly the key asked for. The report read is a `Hit` only
    /// for the intact bytes, is `Corrupt` for any that are not JSON or
    /// whose report was flipped, and the report writer lays down the tree
    /// writer's bytes. As a file a record vouches for, under the intact
    /// bytes' digest, they pass only when they are the intact bytes: JSON
    /// or not, anything else is `Corrupt`.
    #[test]
    fn any_bytes_at_a_record_path_read_as_hit_miss_or_corrupt(
        noise in prop::collection::vec(0u16..256, 0..48),
        cut in 0usize..4096,
        flip in 0usize..32768,
    ) {
        let dir = temp_dir("prop");
        let path = dir.join("r.json");
        let tree = campaign_key(&params(&["--retries", "2"]));
        let key = tree.to_string();
        let report = json!({"entries": json!([1.5, "é\"\n"]), "profile": "p.cali.json"});
        let text = report.to_string();
        write_report(&path, &key, &text).unwrap();
        let intact = std::fs::read(&path).unwrap();
        let vouched = ProfileDigest::new(intact.len() as u64, caliper::digest(&intact));
        let tree_written = dir.join("tree.json");
        write_record(&tree_written, &key, &report_tree(&text)).unwrap();
        prop_assert_eq!(&std::fs::read(&tree_written).unwrap(), &intact);
        let mut torn = intact.clone();
        torn.truncate(cut % (intact.len() + 1));
        let mut flipped = intact.clone();
        flipped[(flip / 8) % intact.len()] ^= 1 << (flip % 8);
        let head = r#"{"key":,"report":"#.len() + key.len();
        let mut in_report = intact.clone();
        in_report[head + (flip / 8) % text.len()] ^= 1 << (flip % 8);
        let noise: Vec<u8> = noise.into_iter().map(|b| b as u8).collect();
        for bytes in [noise, torn, flipped, in_report.clone(), intact.clone()] {
            std::fs::write(&path, &bytes).unwrap();
            let parsed = std::str::from_utf8(&bytes)
                .ok()
                .and_then(|text| serde_json::from_str::<Value>(text).ok());
            let json = parsed.is_some();
            let checked = if bytes == intact { Verified::Hit(()) } else { Verified::Corrupt };
            prop_assert_eq!(vouched.check(&path), checked);
            // One flipped bit cannot re-print the key: equal as a value is
            // equal as bytes here.
            let expected = match parsed {
                None => Verified::Corrupt,
                Some(Value::Object(mut doc)) if doc.get("key") == Some(&tree) => {
                    doc.remove("key");
                    Verified::Hit(Value::Object(doc))
                }
                Some(_) => Verified::Miss,
            };
            prop_assert_eq!(read_verified(&path, &key), expected);
            let read = report_read(&path, &key);
            if bytes == intact {
                prop_assert_eq!(read, Verified::Hit(text.clone()));
            } else if !json || bytes == in_report {
                prop_assert_eq!(read, Verified::Corrupt);
            } else {
                prop_assert!(!matches!(read, Verified::Hit(_)), "{:?}", read);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
