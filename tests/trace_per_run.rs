//! The event trace belongs to the run that asked for it. A traced run
//! records its own launches, and only those, whatever else the process
//! runs beside it; the threads it starts record into it too: the
//! `--timeout` watchdog and the exchange kernels' `simcomm` ranks.

use kernels::VariantId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use suite::{run_suite, RunParams, Selection};

/// One exported trace event: (name, phase, lane label).
type Ev = (String, String, String);

fn params(kernel: &str, variant: VariantId, reps: usize) -> RunParams {
    RunParams {
        selection: Selection::Kernels(vec![kernel.into()]),
        variant,
        explicit_size: Some(100_000),
        explicit_reps: Some(reps),
        ..RunParams::default()
    }
}

/// Run `p` with `--trace` into a fresh file and return the trace's events,
/// each with the label of the lane that recorded it.
fn traced(mut p: RunParams, file: &str) -> Vec<Ev> {
    let path = std::env::temp_dir().join(format!("{file}_{}.json", std::process::id()));
    p.trace = Some(path.clone());
    let report = run_suite(&p);
    assert_eq!(report.entries.len(), 1, "the kernel passed");
    let json = std::fs::read_to_string(&path).expect("trace written");
    std::fs::remove_file(&path).ok();
    let doc: serde_json::Value = serde_json::from_str(&json).expect("trace JSON parses");
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    let field = |e: &serde_json::Value, k: &str| e[k].as_str().expect(k).to_string();
    let label = |tid: i64| {
        events
            .iter()
            .find(|e| e["ph"].as_str() == Some("M") && e["tid"].as_i64() == Some(tid))
            .map(|e| e["args"]["name"].as_str().expect("lane name").to_string())
            .expect("every lane is named")
    };
    events
        .iter()
        .filter(|e| e["ph"].as_str() != Some("M"))
        .map(|e| {
            (
                field(e, "name"),
                field(e, "ph"),
                label(e["tid"].as_i64().expect("tid")),
            )
        })
        .collect()
}

/// The lane holding the run's `RAJAPerf` region.
fn run_lane(events: &[Ev]) -> String {
    events
        .iter()
        .find(|(n, ph, _)| n == "RAJAPerf" && ph == "B")
        .map(|(_, _, lane)| lane.clone())
        .expect("suite root region")
}

/// The lanes that recorded `gpusim.launch` instants, one entry per instant.
fn launch_lanes(events: &[Ev]) -> Vec<String> {
    events
        .iter()
        .filter(|(n, ph, _)| n == "gpusim.launch" && ph == "i")
        .map(|(_, _, lane)| lane.clone())
        .collect()
}

#[test]
fn a_traced_run_records_its_own_launches_beside_untraced_runs() {
    let triad = || params("Stream_TRIAD", VariantId::BaseSimGpu, 10);
    let alone = launch_lanes(&traced(triad(), "trace_alone")).len();
    assert!(alone >= 10, "one launch per repetition at least: {alone}");

    let stop = AtomicBool::new(false);
    let (looping, first_run_done) = std::sync::mpsc::channel();
    let beside = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                run_suite(&params("Basic_DAXPY", VariantId::BaseSimGpu, 5));
                let _ = looping.send(());
            }
        });
        // Trace once the untraced loop is past its first run.
        first_run_done.recv().expect("the untraced loop runs");
        let events = traced(triad(), "trace_beside");
        stop.store(true, Ordering::Relaxed);
        events
    });
    assert_eq!(
        launch_lanes(&beside).len(),
        alone,
        "the untraced runs' launches stay out of the traced run's trace"
    );
    assert!(
        beside
            .iter()
            .all(|(n, _, _)| n != "Basic_DAXPY" && n != "Basic"),
        "no region of the other run"
    );
}

#[test]
fn the_watchdog_records_a_timed_out_runs_launches() {
    let mut p = params("Stream_TRIAD", VariantId::BaseSimGpu, 3);
    p.timeout = Some(Duration::from_secs(60));
    let events = traced(p, "trace_watchdog");
    let main = run_lane(&events);
    let lanes = launch_lanes(&events);
    assert!(
        lanes.len() >= 3,
        "the attempt's launches are recorded: {}",
        lanes.len()
    );
    assert!(
        lanes
            .iter()
            .all(|lane| *lane != main && lane.starts_with("thread-")),
        "every launch is on the watchdog's lane, not {main}: {lanes:?}"
    );
}

#[test]
fn both_exchange_ranks_record_their_launches() {
    let events = traced(
        params("Comm_HALO_EXCHANGE", VariantId::BaseSimGpu, 2),
        "trace_ranks",
    );
    let main = run_lane(&events);
    let mut lanes = launch_lanes(&events);
    lanes.sort();
    lanes.dedup();
    lanes.retain(|lane| *lane != main);
    assert_eq!(
        lanes.len(),
        kernels::comm::RANKS,
        "one launching lane per rank: {lanes:?}"
    );
}
