//! Golden-file test for the Chrome Trace Event exporter.
//!
//! Timestamps and absolute lane ids are nondeterministic (wall clock; which
//! thread registers its lane first depends on test scheduling), so the
//! golden comparison projects each exported event onto its *stable* fields:
//! name, phase, lane (densely renumbered by first appearance), and nesting
//! depth. Everything else — field presence, document structure, phase
//! letters, event order — is pinned exactly.

use caliper::trace::{self, Trace};

/// Project a Chrome Trace JSON document onto its stable fields, one event
/// per line: `<ph> t<lane> d<depth> <name>`, lanes renumbered densely in
/// order of first appearance.
fn project(json: &str) -> String {
    let doc: serde_json::Value = serde_json::from_str(json).expect("exported JSON parses");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    let mut tid_order: Vec<i64> = Vec::new();
    let mut depth: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    let mut out = String::new();
    for ev in events {
        let name = ev.get("name").and_then(|v| v.as_str()).expect("name");
        let ph = ev.get("ph").and_then(|v| v.as_str()).expect("ph");
        let tid = ev.get("tid").and_then(|v| v.as_i64()).expect("tid");
        let lane = match tid_order.iter().position(|&t| t == tid) {
            Some(i) => i,
            None => {
                tid_order.push(tid);
                tid_order.len() - 1
            }
        };
        let d = depth.entry(lane).or_default();
        if ph == "E" {
            *d = d.checked_sub(1).expect("E matches an earlier B");
        }
        out.push_str(&format!("{ph} t{lane} d{d} {name}\n"));
        if ph == "B" {
            *d += 1;
        }
    }
    out
}

#[test]
fn chrome_export_matches_golden_projection() {
    let t = Trace::new();
    let s = caliper::Session::traced(&t);
    {
        let _in = t.enter();
        let _suite = s.region("RAJAPerf");
        let _group = s.region("Stream");
        {
            let _k = s.region("Stream_TRIAD");
            s.set_metric("Bytes/Rep", 24.0);
            trace::instant_event("gpusim.launch");
        }
        {
            let _k = s.region("Stream_ADD");
            s.set_metric("Bytes/Rep", 24.0);
        }
    }
    let json = t.export_chrome_json();

    assert_eq!(project(&json), include_str!("golden/chrome_trace.golden"));

    // Structural fields the projection does not cover.
    let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms")
    );
    assert_eq!(
        doc.get("otherData")
            .and_then(|v| v.get("dropped_events"))
            .and_then(|v| v.as_i64()),
        Some(0)
    );
    let events = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
    // The lane's metadata event names the lane.
    let meta = &events[0];
    assert_eq!(meta.get("ph").and_then(|v| v.as_str()), Some("M"));
    assert!(meta
        .get("args")
        .and_then(|a| a.get("name"))
        .and_then(|v| v.as_str())
        .is_some());
    // Duration events carry monotone non-decreasing timestamps.
    let ts: Vec<f64> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|v| v.as_str()) != Some("M"))
        .map(|e| e.get("ts").and_then(|v| v.as_f64()).expect("ts"))
        .collect();
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
}

#[test]
fn folded_export_has_full_stacks() {
    let t = Trace::new();
    let s = caliper::Session::traced(&t);
    {
        let _a = s.region("RAJAPerf");
        let _b = s.region("Stream");
        let _c = s.region("Stream_TRIAD");
    }
    let folded = t.export_folded();
    let stacks: Vec<&str> = folded
        .lines()
        .filter_map(|l| l.rsplit_once(' ').map(|(s, _)| s))
        .collect();
    let lane = stacks
        .iter()
        .find(|s| s.ends_with(";RAJAPerf"))
        .expect("root stack present")
        .rsplit_once(";RAJAPerf")
        .unwrap()
        .0
        .to_string();
    assert!(stacks.contains(&format!("{lane};RAJAPerf").as_str()));
    assert!(stacks.contains(&format!("{lane};RAJAPerf;Stream").as_str()));
    assert!(stacks.contains(&format!("{lane};RAJAPerf;Stream;Stream_TRIAD").as_str()));
    // Every value parses as integer microseconds.
    assert!(folded
        .lines()
        .all(|l| l.rsplit(' ').next().unwrap().parse::<u64>().is_ok()));
}
