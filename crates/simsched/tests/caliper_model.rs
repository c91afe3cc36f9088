//! Model-checked concurrency of the Caliper annotation layer: multiple
//! threads writing into shared [`caliper::Session`] channels, with every
//! session-mutex acquisition a scheduling point. This locks in PR 4's
//! interleaved-session semantics (per-thread region stacks, shared
//! aggregation) under *every* explored interleaving, not just the ones the
//! native stress test happens to hit. Each body makes its own sessions and
//! its own event trace, so no state survives from one explored run to the
//! next.
#![cfg(simsched)]

use std::sync::Arc;

use caliper::trace::{validate_pairing, Trace};
use caliper::Session;
use simsched::check;

/// Two threads aggregating into one shared session: per-thread stacks keep
/// nesting private, the shared tree merges visits, and the final counts are
/// schedule-independent.
#[test]
fn shared_session_aggregates_across_threads() {
    let report = check(|| {
        let s = Session::new();
        let s2 = s.clone();
        let t = simsched::thread::spawn(move || {
            let _r = s2.region("worker");
            s2.add_metric("reps", 1.0);
        });
        {
            let _r = s.region("worker");
            s.add_metric("reps", 1.0);
        }
        t.join().unwrap();
        let p = s.profile();
        let rec = p.find("worker").expect("both visits land on one node");
        assert_eq!(rec.metric("count"), Some(2.0), "visits from both threads");
        assert_eq!(rec.metric("sum#reps"), Some(2.0), "metrics from both threads");
    });
    report.assert_ok();
    println!(
        "caliper shared-session model: {} schedules, {} pruned, {} transitions",
        report.schedules, report.pruned, report.transitions
    );
}

/// Two independent sessions driven concurrently — the PR 4 interleaving
/// case, now cross-thread: thread-private stacks must never leak frames
/// between sessions, in any schedule.
#[test]
fn interleaved_sessions_stay_independent() {
    let report = check(|| {
        let a = Arc::new(Session::new());
        let b = Arc::new(Session::new());
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = simsched::thread::spawn(move || {
            // Interleave the two sessions on this thread (each properly
            // nested in itself), as independent Caliper channels may be.
            a2.begin("outer_a");
            b2.begin("outer_b");
            a2.set_metric("in_a", 1.0);
            a2.end("outer_a");
            b2.end("outer_b");
        });
        {
            let _r = b.region("main_b");
        }
        t.join().unwrap();
        let pa = a.profile();
        let pb = b.profile();
        assert!(pa.find("outer_a").is_some());
        assert!(pa.find("outer_b").is_none(), "a never sees b's regions");
        assert!(pb.find("outer_b").is_some());
        assert!(pb.find("main_b").is_some());
        assert_eq!(
            pa.find("outer_a").unwrap().metric("in_a"),
            Some(1.0),
            "metric attaches to a's path even while b has a frame open"
        );
    });
    report.assert_ok();
    println!(
        "caliper interleaved-session model: {} schedules, {} pruned",
        report.schedules, report.pruned
    );
}

/// Two threads recording regions of one traced session: the trace's lane
/// registry and each lane's ring are scheduling points, and in every
/// schedule each thread's events land on its own lane, fully paired.
#[test]
fn traced_session_pairs_regions_from_both_threads() {
    let report = check(|| {
        let trace = Trace::new();
        let s = Session::traced(&trace);
        let s2 = s.clone();
        let t = simsched::thread::spawn(move || {
            let _r = s2.region("worker");
            let _leaf = s2.region("leaf");
            s2.add_metric("reps", 1.0);
        });
        {
            let _r = s.region("main");
        }
        t.join().unwrap();
        let lanes = trace.snapshot();
        assert_eq!(lanes.len(), 2, "one lane per recording thread");
        assert_eq!(validate_pairing(&lanes), Ok(3), "main, worker and leaf");
    });
    report.assert_ok();
    println!(
        "caliper traced-session model: {} schedules, {} pruned",
        report.schedules, report.pruned
    );
}
