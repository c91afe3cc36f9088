//! One ingest session over profiles whose records list their metric keys in
//! changing orders composes, cell for cell, what a reader going through
//! `serde_json` trees finds in the same texts. The column interner guesses
//! each key's column from the key before it, so these texts are the ones
//! that make its guesses wrong: keys rotated and reversed, a column first
//! seen mid-session, a column dropped, a key repeated (last wins), `null`
//! (a cell not observed) and names spelled with escapes. `Thicket::from_files`
//! over the same texts on disk, and `Thicket::from_profiles` over the trees,
//! write the session's `.tkt` bytes.
//!
//! Budget: under 2 s in a debug build.

use serde_json::Value;
use std::collections::BTreeSet;
use std::path::PathBuf;
use thicket::{IngestSession, ProfileData, Thicket};

/// Names that need escaping, are not ASCII, or are ordinary.
const COLUMNS: [&str; 8] = [
    "avg#time.duration",
    "count",
    "Bytes/Rep",
    "q\"uote",
    "tab\there",
    "é#µ",
    "back\\slash",
    "\u{1F600}",
];
/// The column profiles from `LATE_FROM` on have and earlier ones do not.
const LATE: usize = COLUMNS.len();
const LATE_FROM: usize = 5;
const PROFILES: usize = 24;
const RECORDS: usize = 6;

/// `s` as a JSON string: the shortest escapes, or every character as `\u`.
fn quoted(s: &str, all_hex: bool) -> String {
    let mut out = String::from("\"");
    let mut units = [0u16; 2];
    for ch in s.chars() {
        match ch {
            _ if all_hex => {
                for unit in ch.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04x}"));
                }
            }
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn name(column: usize) -> &'static str {
    COLUMNS.get(column).copied().unwrap_or("late")
}

/// A value no other cell has, so a cell filed under the wrong column shows.
fn value(profile: usize, record: usize, column: usize) -> String {
    format!("{}.25", profile * 1000 + record * 20 + column)
}

/// The `metrics` object of record `r` of profile `p`: its keys in an order
/// that moves from profile to profile and record to record.
fn metrics(p: usize, r: usize) -> String {
    let mut order: Vec<usize> = (0..COLUMNS.len()).collect();
    match p % 6 {
        1 => order.rotate_left(1 + r % (COLUMNS.len() - 1)),
        2 => order.reverse(),
        3 => drop(order.remove((p + r) % COLUMNS.len())),
        4 => order.swap(r % COLUMNS.len(), (r + 3) % COLUMNS.len()),
        _ => {}
    }
    if p >= LATE_FROM {
        order.insert((p + r) % order.len(), LATE);
    }
    let mut cells: Vec<String> = order
        .iter()
        .map(|&c| {
            format!(
                "{}: {}",
                quoted(name(c), (p + r + c).is_multiple_of(5)),
                value(p, r, c)
            )
        })
        .collect();
    // A repeated key: the earlier occurrence is replaced.
    if p % 3 == 1 {
        let c = order[r % order.len()];
        cells.insert(0, format!("{}: -1", quoted(name(c), false)));
    }
    // A `null`: the column's cell is dropped — or, for a name never seen,
    // nothing happens.
    if (p + r).is_multiple_of(4) {
        let c = order[(p + 2 * r) % order.len()];
        cells.push(format!("{}: null", quoted(name(c), p.is_multiple_of(2))));
        cells.insert(cells.len() / 2, "\"never seen\": null".to_string());
    }
    format!("{{{}}}", cells.join(", "))
}

/// Profile `p`'s text: `RECORDS` records under one root, their order and
/// their field order varied, one of them with no metrics at all.
fn profile_text(p: usize) -> String {
    let mut records: Vec<String> = (0..RECORDS)
        .map(|r| {
            let path = format!(r#"["RAJAPerf", "Group{}", "Kernel{r}"]"#, r % 2);
            let metrics = if r == p % RECORDS {
                "{}".to_string()
            } else {
                metrics(p, r)
            };
            match (p + r) % 2 {
                0 => format!(r#"{{"path": {path}, "metrics": {metrics}}}"#),
                _ => format!(r#"{{"metrics": {metrics}, "path": {path}}}"#),
            }
        })
        .collect();
    if p % 5 == 2 {
        records.reverse();
    }
    format!(
        "{{\n  \"globals\": {{\"variant\": \"V{}\", \"trial\": {p}}},\n  \"records\": [\n    {}\n  ]\n}}\n",
        p % 3,
        records.join(",\n    ")
    )
}

/// The reference reader: the text as a JSON tree, then the profile picked
/// out of it (`null` metrics dropped).
fn through_the_tree(text: &str) -> ProfileData {
    let tree: Value = serde_json::from_str(text).unwrap();
    let record = |r: &Value| {
        let path = r["path"].as_array().unwrap().iter();
        let metrics = r["metrics"].as_object().unwrap().iter();
        (
            path.map(|s| s.as_str().unwrap().to_string()).collect(),
            metrics
                .filter(|(_, v)| !v.is_null())
                .map(|(k, v)| (k.clone(), v.as_f64().unwrap()))
                .collect(),
        )
    };
    ProfileData {
        globals: tree["globals"].as_object().unwrap().clone(),
        records: tree["records"]
            .as_array()
            .unwrap()
            .iter()
            .map(record)
            .collect(),
    }
}

fn tkt_bytes(t: &Thicket, path: &std::path::Path) -> Vec<u8> {
    t.write_tkt(path).unwrap();
    std::fs::read(path).unwrap()
}

#[test]
fn keys_in_any_order_land_in_their_own_columns() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("rajaperf_ingest_order_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let texts: Vec<String> = (0..PROFILES).map(profile_text).collect();
    let trees: Vec<ProfileData> = texts.iter().map(|t| through_the_tree(t)).collect();
    let mut session = IngestSession::new();
    for (p, text) in texts.iter().enumerate() {
        session.ingest_json(text).unwrap();
        std::fs::write(dir.join(format!("p{p:02}.cali.json")), text).unwrap();
    }
    let t = session.finish();

    // Cell for cell: every column the trees hold, at every record's node.
    let columns: BTreeSet<&str> = trees
        .iter()
        .flat_map(|tree| {
            tree.records
                .iter()
                .flat_map(|(_, m)| m.keys().map(String::as_str))
        })
        .collect();
    assert!(
        columns.contains("late") && columns.contains("q\"uote") && !columns.contains("never seen")
    );
    assert_eq!(
        t.column_names(),
        columns.iter().copied().collect::<Vec<_>>()
    );
    let mut rows = 0;
    for (p, tree) in trees.iter().enumerate() {
        assert_eq!(
            t.metadata[&p].as_ref(),
            &tree.globals,
            "globals of profile {p}"
        );
        for (path, metrics) in &tree.records {
            let node = t.nodes.iter().position(|n| &n.path == path).unwrap();
            rows += usize::from(!metrics.is_empty());
            for &column in &columns {
                let want = metrics.get(column).copied();
                assert_eq!(
                    t.value(column, node, p),
                    want,
                    "{column} at {path:?} of profile {p}"
                );
            }
        }
    }
    assert_eq!(t.row_count(), rows);

    let session_tkt = tkt_bytes(&t, &dir.join("session.tkt"));
    let paths = thicket::profile_paths(&dir).unwrap();
    let (from_files, stats) = Thicket::from_files(&paths);
    assert_eq!((stats.ingested, stats.warnings()), (PROFILES, 0));
    assert!(
        session_tkt == tkt_bytes(&from_files, &dir.join("files.tkt")),
        "from_files .tkt differs"
    );
    let from_trees = Thicket::from_profiles(&trees);
    assert!(
        session_tkt == tkt_bytes(&from_trees, &dir.join("trees.tkt")),
        "from_profiles .tkt differs"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
