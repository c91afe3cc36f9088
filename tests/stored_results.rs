//! Tier-1 tests for what a stored result is keyed by and how it is written:
//! the key text a sweep cell and a `rajaperfd` request print once is the
//! text of the key's tree, a record answers only those exact bytes (a key
//! equal as a value but printed otherwise is a miss, never corrupt), a
//! repeated `key` member resolves last-wins on the tree read, a stored
//! report is vouched for by its length and digest, and two writers of one
//! path in one process never share a temp file.

use rajaperfd::server::{run_key, run_store_key};
use rajaperfd::{ProfileStore, Space, StoreKey};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use suite::params::FLAGS;
use suite::record::{campaign_key, read_verified, CampaignKey, Verified};
use suite::RunParams;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rajaperf_stored_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn parse(argv: &[&str]) -> RunParams {
    RunParams::parse(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
}

/// The default parameters, then one setting of every parameter row of the
/// flag table (a row without a line here fails: add one).
fn every_setting() -> Vec<RunParams> {
    let settings: &[&[&str]] = &[
        &["--kernels", "Basic_MULADDSUB,Fixture_PANIC"],
        &["--groups", "Stream"],
        &["--features", "sort"],
        &["--exclude-kernels", "Stream_TRIAD"],
        &["--variant", "RAJA_SimGpu"],
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
        &["--timeout", "2.5"],
        &["--retries", "5"],
        &["--retry-backoff-ms", "7"],
        &["--lock-order"],
    ];
    let mut all = vec![RunParams::default()];
    for flag in FLAGS.iter().filter(|f| f.mode.is_none()) {
        let name = flag.names[0];
        let setting = settings.iter().find(|s| s[0] == name);
        all.push(parse(
            setting.unwrap_or_else(|| panic!("no setting for {name}: add one")),
        ));
    }
    all
}

/// `value`'s compact text with its top-level members in reverse order.
fn reversed(value: &Value) -> String {
    let members = value.as_object().expect("a key is an object").iter().rev();
    let members: Vec<String> = members
        .map(|(k, v)| format!("{}:{v}", Value::from(k.as_str())))
        .collect();
    format!("{{{}}}", members.join(","))
}

#[test]
fn the_key_text_is_the_text_of_the_key_tree_for_every_flag() {
    for p in every_setting() {
        let tree = campaign_key(&p);
        assert_eq!(CampaignKey::of(&p).text(), tree.to_string());
        // The daemon prints its key once, `kind` among the members in name
        // order, and hashes that text once: the address of the tree.
        let daemon = run_store_key(&p);
        assert_eq!(daemon.text(), run_key(&p).to_string());
        assert_eq!(daemon.hash(), ProfileStore::key_hash(&run_key(&p)));
    }
}

#[test]
fn a_key_equal_as_a_value_but_not_as_bytes_is_a_miss_and_nothing_is_quarantined() {
    let dir = scratch("bytes");
    let params = parse(&[
        "--kernels",
        "Basic_DAXPY,Stream_TRIAD",
        "--size",
        "1000",
        "--reps",
        "1",
    ]);
    let store = ProfileStore::open(dir.join("store")).unwrap();
    let key = run_store_key(&params);
    let hash = store
        .put_report(Space::Objects, &key, r#"{"n":1}"#)
        .unwrap();
    let object = store.path(Space::Objects, &hash);
    assert_eq!(
        store.get_report(Space::Objects, &key).as_deref(),
        Some(r#"{"n":1}"#)
    );
    let tree = run_key(&params);
    let pretty =
        serde_json::to_string_pretty(&json!({"key": tree, "report": json!({"n": 1})})).unwrap();
    let reordered = format!(r#"{{"key":{},"report":{{"n":1}}}}"#, reversed(&tree));
    for (what, text) in [("pretty-printed", pretty), ("members reordered", reordered)] {
        std::fs::write(&object, text).unwrap();
        assert_eq!(store.get_report(Space::Objects, &key), None, "{what}");
        assert_eq!(read_verified(&object, key.text()), Verified::Miss, "{what}");
        assert!(object.exists(), "{what}: a miss stays where it is");
    }
    assert_eq!(store.stats().quarantined, 0);
    assert!(!dir.join("store/quarantine").exists());

    // A sweep cell whose record holds its key re-printed: the cell re-runs,
    // nothing is moved, and the run after it is all cached again.
    let sweep = RunParams {
        sweep: true,
        sweep_dir: Some(dir.join("sweep")),
        ..params
    };
    suite::run_sweep(&sweep).unwrap();
    let cell = dir.join("sweep/cells/Base_Seq.block_256.json");
    let record: Value = serde_json::from_str(&std::fs::read_to_string(&cell).unwrap()).unwrap();
    std::fs::write(&cell, serde_json::to_string_pretty(&record).unwrap()).unwrap();
    let again = suite::run_sweep(&sweep).unwrap();
    let rerun: Vec<_> = again.cells.iter().filter(|c| !c.cached).collect();
    assert_eq!(rerun.len(), 1, "{}", again.render());
    assert_eq!(rerun[0].variant.name(), "Base_Seq");
    assert!(again.quarantined.is_empty(), "{:?}", again.quarantined);
    assert!(suite::run_sweep(&sweep)
        .unwrap()
        .cells
        .iter()
        .all(|c| c.cached));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_repeated_key_member_resolves_last_wins() {
    let dir = scratch("repeated");
    let store = ProfileStore::open(dir.join("store")).unwrap();
    let key = StoreKey::from(&json!({"kind": "analyze", "metric": "t"}));
    let other = json!({"kind": "analyze", "metric": "u"}).to_string();
    let object = store.path(Space::Derived, key.hash());
    std::fs::create_dir_all(object.parent().unwrap()).unwrap();
    let record = |first: &str, last: &str| format!(r#"{{"key":{first},"key":{last},"report":7}}"#);
    std::fs::write(&object, record(&other, key.text())).unwrap();
    assert_eq!(
        read_verified(&object, key.text()),
        Verified::Hit(json!({"report": 7}))
    );
    std::fs::write(&object, record(key.text(), &other)).unwrap();
    assert_eq!(read_verified(&object, key.text()), Verified::Miss);
    // The store's report read answers only the layout its writer lays
    // down, with one key and a digest: either record is a plain miss.
    for (first, last) in [(other.as_str(), key.text()), (key.text(), other.as_str())] {
        std::fs::write(&object, record(first, last)).unwrap();
        assert_eq!(store.get_report(Space::Derived, &key), None);
        assert!(object.exists());
    }
    assert_eq!(store.stats().quarantined, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A stored report is checked against the length and digest stored with it:
/// a tail that reports another length, or a report flipped in place that is
/// still JSON, is corrupt and quarantined; a record with no digest — what
/// an older build stored — is a plain miss that leaves the file in place.
#[test]
fn a_stored_report_is_vouched_for_by_its_length_and_digest() {
    let dir = scratch("vouched");
    let store = ProfileStore::open(dir.join("store")).unwrap();
    let key = StoreKey::from(&json!({"kind": "analyze", "metric": "t"}));
    let report = r#"{"checksum":1107.98,"n":1}"#;
    let object = store.path(Space::Derived, key.hash());
    let quarantined = || std::fs::read_dir(dir.join("store/quarantine")).map_or(0, Iterator::count);
    store.put_report(Space::Derived, &key, report).unwrap();
    let intact = std::fs::read_to_string(&object).unwrap();
    assert!(intact.ends_with(&format!(
        r#","report_bytes":{},"report_digest":"{:032x}"}}"#,
        report.len(),
        caliper::digest(report.as_bytes())
    )));
    assert_eq!(store.get_report(Space::Derived, &key).as_deref(), Some(report));
    let wrong_length = intact.replace(
        &format!(r#""report_bytes":{}"#, report.len()),
        &format!(r#""report_bytes":{}"#, report.len() - 1),
    );
    let flipped = intact.replacen("1107.98", "7107.98", 1);
    for (what, planted) in [("wrong report_bytes", wrong_length), ("a flipped digit", flipped)] {
        let before = quarantined();
        serde_json::from_str::<Value>(&planted).expect("still JSON");
        std::fs::write(&object, &planted).unwrap();
        assert_eq!(store.get_report(Space::Derived, &key), None, "{what}");
        assert!(!object.exists(), "{what}: moved out of the address");
        assert_eq!(quarantined(), before + 1, "{what}");
        store.put_report(Space::Derived, &key, report).unwrap();
    }
    let digestless = format!(r#"{{"key":{},"report":{report}}}"#, key.text());
    std::fs::write(&object, &digestless).unwrap();
    assert_eq!(store.get_report(Space::Derived, &key), None);
    assert_eq!(std::fs::read_to_string(&object).unwrap(), digestless);
    let stats = store.stats();
    assert_eq!((stats.hits, stats.misses, stats.quarantined), (1, 3, 2));
    std::fs::remove_dir_all(&dir).ok();
}

/// Two daemon workers that miss the same key store it at one path at once.
/// Each write must succeed, and the file must always hold one whole payload.
#[test]
fn two_writers_of_one_path_in_one_process_never_share_a_temp_file() {
    let dir = scratch("writers");
    let path = Arc::new(dir.join("object.json"));
    let payloads: Arc<[Vec<u8>; 2]> = Arc::new([vec![b'a'; 64 << 10], vec![b'b'; 48 << 10]]);
    let barrier = Arc::new(Barrier::new(2));
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let (path, payloads, barrier) = (path.clone(), payloads.clone(), barrier.clone());
            std::thread::spawn(move || {
                for round in 0..200 {
                    barrier.wait();
                    caliper::write_atomic(&path, &payloads[w])
                        .unwrap_or_else(|e| panic!("writer {w}, round {round}: {e}"));
                    let held = std::fs::read(&*path).unwrap();
                    assert!(
                        payloads.contains(&held),
                        "round {round}: {} bytes, torn",
                        held.len()
                    );
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().unwrap();
    }
    assert_eq!(temps_in(&dir), 0, "no temp file is left behind");
    std::fs::remove_dir_all(&dir).ok();
}

fn temps_in(dir: &Path) -> usize {
    let names = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name());
    names
        .filter(|n| n.to_string_lossy().contains(".tmp."))
        .count()
}
