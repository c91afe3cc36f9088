//! The seeded ABBA fixture for the lock-order analyzer: two code paths take
//! the same pair of labeled mutexes in opposite orders — *sequentially*, so
//! the test run itself never deadlocks — and the analyzer must still report
//! the potential deadlock, with both acquisition stacks, the thread that
//! recorded each edge, and the Caliper region the suite was inside at the
//! time. This is the end-to-end proof the `--lock-order` diagnostic mode
//! rests on, exercising the full wiring: shim recording hook → order graph →
//! cycle detection → context provider → trace instant sink → report.
//!
//! One test function on purpose: the analyzer's graph is process-global, and
//! a single test keeps this binary's view of it exclusive.

use simsched::sync::Mutex;
use simsched::{lockorder, set_context_provider, set_instant_sink};

#[test]
fn abba_cycle_is_reported_with_both_stacks() {
    // Wire the hooks the way `suite --lock-order` does: region attribution
    // from Caliper, findings onto the event-trace timeline.
    set_context_provider(Some(caliper::current_region_path));
    set_instant_sink(Some(caliper::trace::instant_event));
    let trace = caliper::trace::Trace::new();
    let entered = trace.enter();
    lockorder::reset();
    lockorder::enable();

    // The suite measures through a private session; region attribution
    // spans sessions.
    let session = caliper::Session::new();
    let x = Mutex::labeled(0u32, "abba-x");
    let y = Mutex::labeled(0u32, "abba-y");

    // Path 1, on a named thread inside a Caliper region: x before y.
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("abba-forward".into())
            .spawn_scoped(scope, || {
                let _r = session.region("Stream_TRIAD");
                let _gx = x.lock().unwrap();
                let _gy = y.lock().unwrap();
            })
            .unwrap();
    });
    assert_eq!(lockorder::cycle_count(), 0, "one ordering alone is no cycle");

    // Path 2, after path 1 fully finished (never a real deadlock): y before
    // x. Inserting the reversed edge must close the cycle.
    {
        let _r = session.region("Basic_DAXPY");
        let _gy = y.lock().unwrap();
        let _gx = x.lock().unwrap();
    }
    lockorder::disable();

    assert_eq!(lockorder::cycle_count(), 1, "the ABBA pair is one cycle");
    let report = lockorder::report().expect("a cycle renders a report");
    println!("{report}");

    // Both locks named, via their shim labels.
    assert!(report.contains("abba-x") && report.contains("abba-y"), "{report}");
    // Both edges carry both acquisition stacks.
    assert_eq!(
        report.matches("acquired at:").count(),
        2,
        "one holding-stack per edge:\n{report}"
    );
    assert_eq!(
        report.matches(" at:").count(),
        4,
        "holding + acquiring stacks on each of the two edges:\n{report}"
    );
    // Thread and kernel/region attribution on the edges.
    assert!(report.contains("abba-forward"), "{report}");
    assert!(report.contains("Stream_TRIAD"), "{report}");
    assert!(report.contains("Basic_DAXPY"), "{report}");

    // The finding landed on the trace timeline as an instant event.
    drop(entered);
    let lanes = trace.snapshot();
    assert!(
        lanes.iter().any(|l| l
            .events
            .iter()
            .any(|e| e.name == "simsched.lockorder.cycle")),
        "cycle discovery emits a simsched.* trace instant"
    );

    // Re-observing the same orderings must not duplicate the cycle.
    lockorder::enable();
    {
        let _gx = x.lock().unwrap();
        let _gy = y.lock().unwrap();
    }
    lockorder::disable();
    assert_eq!(lockorder::cycle_count(), 1, "rotations dedupe");
    lockorder::reset();
}
