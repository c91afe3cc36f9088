//! `caliper::write_atomic`: crash-safe writes, and the `io.write` failpoint
//! that reproduces the torn write the helper exists to prevent.

use caliper::{write_atomic, Profile};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("caliper_atomic_{}_{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn write_atomic_replaces_contents_and_leaves_no_temp_files() {
    let dir = tmpdir("basic");
    let path = dir.join("nested").join("out.json");
    write_atomic(&path, b"first version").unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), b"first version");
    write_atomic(&path, b"second version, longer than the first").unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        b"second version, longer than the first"
    );
    let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .filter(|n| n.to_string_lossy().contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_write_file_roundtrips_through_atomic_path() {
    let dir = tmpdir("profile");
    let path = dir.join("run.cali.json");
    let mut p = Profile::default();
    p.globals
        .insert("variant".into(), serde_json::Value::String("Base_Seq".into()));
    p.write_file(&path).unwrap();
    let back = Profile::read_file(&path).unwrap();
    assert_eq!(back.global_str("variant"), Some("Base_Seq"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncate_failpoint_tears_the_write_deterministically() {
    let dir = tmpdir("torn");
    let path = dir.join("torn.json");
    let contents = vec![b'x'; 4096];

    let torn = || {
        let _armed = simfault::arm_spec("io.write=truncate:1.0,seed=21").unwrap();
        write_atomic(&path, &contents).unwrap();
        std::fs::read(&path).unwrap()
    };
    let (torn_a, torn_b) = (torn(), torn());

    assert!(
        torn_a.len() < contents.len(),
        "torn write must be a strict prefix"
    );
    assert_eq!(torn_a, torn_b, "same seed tears at the same offset");

    // Disarmed, the same write is whole again.
    write_atomic(&path, &contents).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), contents);
    let _ = std::fs::remove_dir_all(&dir);
}
