//! End-to-end event-trace properties over the real suite:
//!
//! * across the **full 76-kernel registry** at a tiny size, the exported
//!   Chrome trace holds the begin/end discipline — every `B` has a matching
//!   `E` on the same lane with `ts_end >= ts_begin`, and every kernel that
//!   ran has exactly one complete region event;
//! * under a real multi-thread pool, a simulated-GPU run produces
//!   per-worker lanes with device block events.
//!
//! This binary pins `RAYON_NUM_THREADS=4` before first pool use (the pool
//! is process-global and sized once). Each run records into its own trace,
//! so the tests run side by side.

use std::collections::BTreeMap;
use suite::{run_suite, RunParams, Selection};

fn pin_pool() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        std::env::set_var("RAYON_NUM_THREADS", "4");
        assert_eq!(rayon::current_num_threads(), 4);
    });
}

/// One parsed trace event: (name, phase, tid, ts).
type Ev = (String, String, i64, f64);

fn parse_events(json: &str) -> Vec<Ev> {
    let doc: serde_json::Value = serde_json::from_str(json).expect("trace JSON parses");
    doc.get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(|v| v.as_str()) != Some("M"))
        .map(|e| {
            (
                e.get("name").and_then(|v| v.as_str()).expect("name").to_string(),
                e.get("ph").and_then(|v| v.as_str()).expect("ph").to_string(),
                e.get("tid").and_then(|v| v.as_i64()).expect("tid"),
                e.get("ts").and_then(|v| v.as_f64()).expect("ts"),
            )
        })
        .collect()
}

/// Replay every lane's stack; panic on any pairing violation. Returns the
/// number of completed begin/end pairs per region name.
fn check_pairing(events: &[Ev]) -> BTreeMap<String, usize> {
    let mut stacks: BTreeMap<i64, Vec<(&str, f64)>> = BTreeMap::new();
    let mut pairs: BTreeMap<String, usize> = BTreeMap::new();
    for (name, ph, tid, ts) in events {
        match ph.as_str() {
            "B" => stacks.entry(*tid).or_default().push((name, *ts)),
            "E" => {
                let (open, ts0) = stacks
                    .entry(*tid)
                    .or_default()
                    .pop()
                    .unwrap_or_else(|| panic!("lane {tid}: end '{name}' without begin"));
                assert_eq!(open, name, "lane {tid}: mismatched nesting");
                assert!(*ts >= ts0, "region '{name}' ends ({ts}) before it begins ({ts0})");
                *pairs.entry(name.clone()).or_default() += 1;
            }
            _ => {}
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "lane {tid}: unclosed regions {stack:?}");
    }
    pairs
}

#[test]
fn full_registry_trace_pairs_every_begin_with_a_later_end() {
    pin_pool();
    let path = std::env::temp_dir().join(format!("rajaperf_trace_all_{}.json", std::process::id()));
    let p = RunParams {
        selection: Selection::All,
        explicit_size: Some(1000),
        explicit_reps: Some(1),
        trace: Some(path.clone()),
        ..RunParams::default()
    };
    let report = run_suite(&p);
    assert!(report.outputs.iter().any(|w| w.path == path), "trace listed in outputs");
    let json = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let events = parse_events(&json);
    let pairs = check_pairing(&events);
    // Every kernel that ran has exactly one complete region event.
    assert_eq!(report.entries.len(), 76, "Base_Seq covers the registry");
    for e in &report.entries {
        assert_eq!(
            pairs.get(e.kernel.as_str()).copied(),
            Some(1),
            "kernel '{}' must have one complete begin/end pair",
            e.kernel
        );
    }
    assert_eq!(pairs.get("RAJAPerf").copied(), Some(1), "suite root region");
}

#[test]
fn trace_service_in_caliper_spec_enables_collection() {
    pin_pool();
    let path = std::env::temp_dir().join(format!("rajaperf_trace_svc_{}.json", std::process::id()));
    // The trace service alone (no --trace flag) must switch event
    // collection on — it can only export events that were recorded.
    let p = RunParams {
        selection: Selection::Kernels(vec!["Stream_TRIAD".into()]),
        explicit_size: Some(1000),
        explicit_reps: Some(1),
        caliper_spec: Some(format!("trace(output={})", path.display())),
        ..RunParams::default()
    };
    let report = run_suite(&p);
    assert!(report.outputs.iter().any(|w| w.path == path), "trace listed in outputs");
    let json = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let events = parse_events(&json);
    let pairs = check_pairing(&events);
    assert_eq!(pairs.get("Stream_TRIAD").copied(), Some(1));
}

#[test]
fn simgpu_trace_has_worker_lanes_and_device_events() {
    pin_pool();
    let path = std::env::temp_dir().join(format!("rajaperf_trace_gpu_{}.json", std::process::id()));
    let folded =
        std::env::temp_dir().join(format!("rajaperf_trace_gpu_{}.folded", std::process::id()));
    // Workers only show up in the trace if they win blocks from the caller;
    // with a 4-wide pool and hundreds of blocks per launch this is near
    // certain, but retry a few times rather than flake.
    let mut worker_lane_seen = false;
    for _attempt in 0..5 {
        let p = RunParams {
            selection: Selection::Kernels(vec!["Stream_TRIAD".into()]),
            variant: kernels::VariantId::BaseSimGpu,
            explicit_size: Some(200_000),
            explicit_reps: Some(2),
            trace: Some(path.clone()),
            trace_folded: Some(folded.clone()),
            ..RunParams::default()
        };
        let report = run_suite(&p);
        assert_eq!(report.entries.len(), 1);
        let json = std::fs::read_to_string(&path).unwrap();
        let events = parse_events(&json);
        check_pairing(&events);
        // Device events made it into the trace.
        assert!(
            events.iter().any(|(n, ph, _, _)| n == "gpusim.launch" && ph == "i"),
            "launch instant events present"
        );
        assert!(
            events.iter().any(|(n, ph, _, _)| n == "gpusim.blocks" && ph == "C"),
            "device counter events present"
        );
        assert!(
            events.iter().any(|(n, _, _, _)| n == "gpusim.block"),
            "per-block span events present"
        );
        // Folded stacks exported alongside.
        let folded_text = std::fs::read_to_string(&folded).unwrap();
        assert!(folded_text.lines().count() >= 1);
        // Per-worker lanes: block events on a lane other than the caller's.
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        worker_lane_seen = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .any(|e| {
                e.get("ph").and_then(|v| v.as_str()) == Some("M")
                    && e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(|v| v.as_str())
                        .is_some_and(|n| n.starts_with("pool-worker-"))
            });
        if worker_lane_seen {
            break;
        }
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&folded).ok();
    assert!(
        worker_lane_seen,
        "a 4-wide pool tracing hundreds of blocks never populated a worker lane"
    );
}
