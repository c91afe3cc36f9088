//! Differential tests of `thicket`'s one `.cali.json` reader. The text walk
//! (`ProfileData::from_caliper_json`, `IngestSession::ingest_json`) reads a
//! profile without a tree; this file's own reader, `through_the_tree`
//! (`serde_json::from_str`, then the profile picked out of the tree), is the
//! independent reference it must agree with, and `ingest_json` must leave a
//! session exactly where `ingest(&from_caliper_json(..))` would — compared
//! on `.tkt` bytes.
//!
//! Profiles are generated as *text*, so the things a tree cannot hold are
//! covered: repeated keys at every level, `null` / integer / exponent
//! metrics, escaped and non-ASCII names, unknown fields, either field order.
//!
//! One difference is deliberate, stated by `agree` and pinned by
//! `an_ill_typed_value_is_refused_where_it_stands`: the walk checks every
//! occurrence of a repeated key, the tree only ever sees the last — so the
//! walk may refuse a document the tree accepts, and then accepts the tree's
//! own (repeat-free) spelling of it.

use proptest::prelude::*;
use serde_json::Value;
use thicket::{IngestSession, ProfileData, Thicket};

/// Names that need escaping, are not ASCII, or are ordinary.
const NAMES: [&str; 7] = [
    "t",
    "Bytes/Rep",
    "é#µ",
    "q\"uote",
    "tab\there",
    "\u{1F600}",
    "back\\slash",
];
/// Spellings of a metric value: doubles, integers, exponents, an integer past
/// `i64`, and `null` (an unobserved cell).
const NUMBERS: [&str; 9] = [
    "1.5", "3", "-2", "1e3", "2.5E-3", "0", "-0.0", "123456789012345678901234", "null",
];
/// Values no metric may have.
const ILL_TYPED: [&str; 4] = ["\"1.5\"", "true", "[1]", "{}"];
/// Any JSON is a fine global.
const GLOBALS: [&str; 5] = ["\"Base_Seq\"", "4", "2.5", "[1, {\"k\": null}]", "null"];

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

/// Spells a profile from a list of drawn numbers, consumed front to back
/// (cycling).
struct Speller<'a> {
    choices: &'a [usize],
    used: usize,
}

impl Speller<'_> {
    fn next(&mut self, n: usize) -> usize {
        self.used += 1;
        self.choices[(self.used - 1) % self.choices.len()] % n
    }

    fn metrics(&mut self) -> String {
        let hex = self.next(4) == 0;
        let cells: Vec<String> = (0..self.next(6))
            .map(|_| {
                let name = quoted(NAMES[self.next(NAMES.len())], hex);
                let value = match self.next(16) {
                    0 => ILL_TYPED[self.next(ILL_TYPED.len())],
                    _ => NUMBERS[self.next(NUMBERS.len())],
                };
                format!("{name}: {value}")
            })
            .collect();
        format!("{{{}}}", cells.join(", "))
    }

    fn path(&mut self) -> String {
        let segments: Vec<String> = (0..1 + self.next(3))
            .map(|_| quoted(NAMES[self.next(NAMES.len())], self.next(4) == 0))
            .collect();
        format!("[{}]", segments.join(","))
    }

    fn record(&mut self) -> String {
        let mut fields = vec![
            format!("\"path\": {}", self.path()),
            format!("\"metrics\": {}", self.metrics()),
        ];
        if self.next(2) == 0 {
            fields.reverse();
        }
        match self.next(8) {
            0 => fields.insert(0, format!("\"metrics\": {}", self.metrics())),
            1 => fields.insert(0, format!("\"path\": {}", self.path())),
            2 => fields.push("\"extra\": {\"path\": 1, \"deep\": [[], {}]}".to_string()),
            3 => drop(fields.remove(self.next(2))),
            _ => {}
        }
        format!("{{{}}}", fields.join(", "))
    }

    fn records(&mut self) -> String {
        let records: Vec<String> = (0..self.next(4)).map(|_| self.record()).collect();
        format!("[{}]", records.join(",\n  "))
    }

    fn globals(&mut self) -> String {
        let entries: Vec<String> = (0..self.next(4))
            .map(|_| {
                let name = quoted(NAMES[self.next(NAMES.len())], false);
                format!("{name}: {}", GLOBALS[self.next(GLOBALS.len())])
            })
            .collect();
        format!("{{{}}}", entries.join(", "))
    }

    fn profile(&mut self) -> String {
        let mut fields = vec![
            format!("\"globals\": {}", self.globals()),
            format!("\"records\": {}", self.records()),
        ];
        if self.next(2) == 0 {
            fields.reverse();
        }
        match self.next(10) {
            0 => fields.insert(0, format!("\"records\": {}", self.records())),
            1 => fields.insert(0, format!("\"globals\": {}", self.globals())),
            2 => fields.push("\"notes\": [\"records\", {\"globals\": 0}]".to_string()),
            3 => drop(fields.remove(self.next(2))),
            _ => {}
        }
        format!("{{\n {}\n}}", fields.join(",\n "))
    }
}

fn profile_text(choices: &Vec<usize>) -> String {
    Speller { choices, used: 0 }.profile()
}

/// The reference reader: the whole text as a JSON tree, then the profile
/// picked out of it — `globals` an object, `records` an array of objects
/// with a `path` of strings and `metrics` of numbers, where `null` is a cell
/// not observed. Unknown fields are ignored.
fn through_the_tree(text: &str) -> Result<ProfileData, String> {
    let tree: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    profile_in(&tree).ok_or_else(|| "not a profile".to_string())
}

fn profile_in(tree: &Value) -> Option<ProfileData> {
    let fields = tree.as_object()?;
    let record = |r: &Value| {
        let r = r.as_object()?;
        let path = r.get("path")?.as_array()?.iter();
        let metrics = r.get("metrics")?.as_object()?.iter();
        Some((
            path.map(|s| s.as_str().map(String::from))
                .collect::<Option<_>>()?,
            metrics
                .filter(|(_, v)| !v.is_null())
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect::<Option<_>>()?,
        ))
    };
    Some(ProfileData {
        globals: fields.get("globals")?.as_object()?.clone(),
        records: fields
            .get("records")?
            .as_array()?
            .iter()
            .map(record)
            .collect::<Option<_>>()?,
    })
}

fn same(walked: &ProfileData, tree: &ProfileData, text: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(&walked.globals, &tree.globals, "globals of {}", text);
    prop_assert_eq!(&walked.records, &tree.records, "records of {}", text);
    Ok(())
}

/// The two routes agree on `text`: `Ok`-equal or both `Err` — or the walk
/// refused something the tree never saw, an occurrence of a repeated key
/// that a later one replaced. Then the tree's own spelling of what it read
/// (which repeats nothing) is a profile the walk reads the same; were no
/// repeat involved, the walk would refuse the respelling too.
fn agree(text: &str) -> Result<(), TestCaseError> {
    match (ProfileData::from_caliper_json(text), through_the_tree(text)) {
        (Ok(walked), Ok(tree)) => same(&walked, &tree, text),
        (Err(_), Err(_)) => Ok(()),
        (Err(_), Ok(tree)) => {
            let seen: serde_json::Value = serde_json::from_str(text).unwrap();
            let respelt = seen.to_string();
            same(&ProfileData::from_caliper_json(&respelt).unwrap(), &tree, &respelt)
        }
        (Ok(walked), Err(tree)) => {
            prop_assert!(false, "{text}\nwalk: {:?}\ntree: {tree}", walked.records);
            Ok(())
        }
    }
}

/// One byte of `text` replaced, inserted or removed (kept only if still UTF-8).
fn mutated(text: &str, at: usize, how: usize) -> Option<String> {
    const BYTES: &[u8] = b"{}[]\",:\\u0-.en \x00";
    let mut bytes = text.as_bytes().to_vec();
    let at = at % bytes.len();
    match how % 3 {
        0 => bytes[at] = BYTES[how / 3 % BYTES.len()],
        1 => bytes.insert(at, BYTES[how / 3 % BYTES.len()]),
        _ => drop(bytes.remove(at)),
    }
    String::from_utf8(bytes).ok()
}

fn tkt_bytes(t: &Thicket, tag: &str) -> Vec<u8> {
    // One file per test thread: the properties run side by side.
    let owner = format!("{}_{:?}", std::process::id(), std::thread::current().id());
    let path = std::env::temp_dir().join(format!("thicket_text_ingest_{owner}_{tag}.tkt"));
    t.write_tkt(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// Everything a failed `ingest_json` must leave alone.
fn observable(s: &IngestSession) -> (usize, Vec<thicket::Node>, usize, Vec<String>, String) {
    let t = s.thicket();
    let columns = t.column_names().into_iter().map(String::from).collect();
    (s.len(), t.nodes.clone(), t.row_count(), columns, t.to_csv())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn the_walk_and_the_tree_read_the_same_profile(
        choices in prop::collection::vec(0usize..5040, 40..120),
        at in 0usize..100_000,
        how in 0usize..1000,
    ) {
        let text = profile_text(&choices);
        agree(&text)?;
        if let Some(text) = mutated(&text, at, how) {
            agree(&text)?;
        }
        let cut = (0..=at % text.len()).rev().find(|&i| text.is_char_boundary(i)).unwrap();
        agree(&text[..cut])?;
    }

    #[test]
    fn ingest_json_is_ingest_of_from_caliper_json(
        corpus in prop::collection::vec(prop::collection::vec(0usize..5040, 40..120), 1..7),
        at in 0usize..100_000,
        how in 0usize..1000,
    ) {
        let mut texts: Vec<String> = corpus.iter().map(profile_text).collect();
        // At least one of them broken, somewhere in the middle of the session.
        let victim = at % texts.len();
        if let Some(broken) = mutated(&texts[victim], at, how) {
            texts[victim] = broken;
        }
        let (mut by_value, mut by_text) = (IngestSession::new(), IngestSession::new());
        // Each profile also inside a larger document, as a store object holds it.
        let mut by_path = IngestSession::new();
        for text in &texts {
            let embedded = format!(r#"{{"key": {{"profile": 0}}, "report": {{"profile": {text}}}}}"#);
            let at_path = by_path.ingest_json_at(&embedded, &["report", "profile"]);
            let before = observable(&by_text);
            match (ProfileData::from_caliper_json(text), by_text.ingest_json(text)) {
                (Ok(profile), Ok(())) => {
                    by_value.ingest(&profile);
                    // The next free id — the one a failed profile before it
                    // would have had.
                    prop_assert_eq!(by_text.thicket().profiles.last(), Some(&before.0));
                }
                (Err(_), Err(_)) => prop_assert_eq!(observable(&by_text), before),
                (parsed, ingested) => {
                    let parsed = parsed.map(|p| p.records);
                    prop_assert!(false, "{text}\nparsed {parsed:?}, ingested {ingested:?}");
                }
            }
            prop_assert_eq!(by_text.len(), by_value.len());
            prop_assert_eq!(by_path.len(), by_text.len());
            prop_assert!(at_path.unwrap_or(true), "no profile found at the path");
        }
        let (by_value, by_text) = (by_value.finish(), by_text.finish());
        prop_assert_eq!(by_text.to_csv(), by_value.to_csv());
        prop_assert_eq!(&by_text.metadata, &by_value.metadata);
        let text_tkt = tkt_bytes(&by_text, "text");
        prop_assert!(text_tkt == tkt_bytes(&by_value, "value"), ".tkt bytes differ");
        prop_assert!(text_tkt == tkt_bytes(&by_path.finish(), "path"), ".tkt bytes differ");
    }
}

const SMALL: &str = r#"{
  "globals": {"variant": "Base_Seq", "note": "é \"q\"\n"},
  "records": [
    {"metrics": {}, "path": ["RAJAPerf"]},
    {"metrics": {"avg#time.duration": 1.5e-3, "Reps": 50, "Checksum": null}, "path": ["RAJAPerf", "Stream_TRIAD"]}
  ]
}
"#;

#[test]
fn a_profile_cut_at_any_byte_is_refused_by_both_routes() {
    let whole = ProfileData::from_caliper_json(SMALL).unwrap();
    assert_eq!(whole.records.len(), 2);
    let end = SMALL.trim_end().len();
    for cut in (0..SMALL.len()).filter(|&i| SMALL.is_char_boundary(i)) {
        let text = &SMALL[..cut];
        let walked = ProfileData::from_caliper_json(text);
        assert_eq!(walked.is_ok(), cut >= end, "cut at {cut}");
        assert_eq!(walked.is_ok(), through_the_tree(text).is_ok(), "cut at {cut}");
        let mut session = IngestSession::new();
        assert_eq!(session.ingest_json(text).is_ok(), cut >= end, "cut at {cut}");
        assert_eq!(session.len(), usize::from(cut >= end));
    }
}

#[test]
fn a_repeated_key_is_last_wins_on_both_routes() {
    let text = r#"{"records": [], "globals": {"v": 1, "v": 2},
        "records": [{"path": ["x"], "path": ["a", "b"],
                     "metrics": {"gone": 1},
                     "metrics": {"t": 1, "u": 5, "t": 2, "u": null, "w": null, "w": 3}}]}"#;
    let walked = ProfileData::from_caliper_json(text).unwrap();
    let tree = through_the_tree(text).unwrap();
    assert_eq!((&walked.globals, &walked.records), (&tree.globals, &tree.records));
    assert_eq!(walked.globals["v"], serde_json::json!(2));
    let (path, metrics) = &walked.records[0];
    assert_eq!(path, &["a", "b"]);
    let cells: Vec<(&str, f64)> = metrics.iter().map(|(k, &v)| (k.as_str(), v)).collect();
    assert_eq!(cells, [("t", 2.0), ("w", 3.0)], "`u` ended unobserved, `gone` was replaced");
}

#[test]
fn an_ill_typed_value_is_refused_where_it_stands() {
    // The walk reads every occurrence; the tree keeps only the last of a
    // repeated key, so it never sees the string.
    let text = r#"{"globals": {}, "records": [{"path": [], "metrics": {"t": "fast", "t": 1}}]}"#;
    let err = ProfileData::from_caliper_json(text).unwrap_err().to_string();
    assert_eq!(err, "expected a number at byte 58");
    assert!(through_the_tree(text).is_ok());
    // Without the repeat both refuse it.
    let text = text.replace(", \"t\": 1", "");
    assert!(ProfileData::from_caliper_json(&text).is_err() && through_the_tree(&text).is_err());
}
