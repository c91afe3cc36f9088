//! Native multi-threaded stress of concurrent Caliper sessions: N threads
//! driving interleaved sessions with metrics and the event-trace service
//! enabled, all at once. The model-checked twin of this test
//! (`crates/simsched/tests/caliper_model.rs`) explores every interleaving of
//! a small instance; this one hammers a big instance on real threads to
//! catch what the bounded model can't reach (allocator effects, real
//! contention, the trace ring under concurrent writers).

use caliper::trace::{self, Trace};
use caliper::Session;

const THREADS: usize = 8;
const ITERS: usize = 200;

#[test]
fn concurrent_interleaved_sessions_with_trace() {
    // Shared channel all threads aggregate into, plus one private channel
    // per thread, interleaved with the shared one on the same thread —
    // the PR 4 interleaved-session shape under real concurrency.
    let trace = Trace::new();
    let shared = Session::traced(&trace);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let shared = shared.clone();
            scope.spawn(move || {
                let own = Session::new();
                for i in 0..ITERS {
                    shared.begin("shared_outer");
                    own.begin("own_outer");
                    {
                        let _leaf = shared.region("leaf");
                        shared.add_metric("reps", 1.0);
                    }
                    own.set_metric("iter", i as f64);
                    // Close in the opposite order the two sessions opened:
                    // legal, because each session is properly nested in
                    // itself and stacks are per-session.
                    shared.end("shared_outer");
                    own.end("own_outer");
                }
                let own_profile = own.profile();
                let rec = own_profile.find("own_outer").expect("private session node");
                assert_eq!(
                    rec.metric("count"),
                    Some(ITERS as f64),
                    "thread {t}: private session sees exactly its own visits"
                );
            });
        }
    });

    let p = shared.profile();
    let outer = p.find("shared_outer").expect("shared node");
    assert_eq!(
        outer.metric("count"),
        Some((THREADS * ITERS) as f64),
        "every thread's visits aggregate into the shared session"
    );
    let leaf = p
        .records
        .iter()
        .find(|r| r.path == vec!["shared_outer".to_string(), "leaf".to_string()])
        .expect("nested leaf node");
    assert_eq!(leaf.metric("count"), Some((THREADS * ITERS) as f64));
    assert_eq!(leaf.metric("sum#reps"), Some((THREADS * ITERS) as f64));

    // The trace recorded each thread's events on its own lane, properly
    // paired. (Ring capacity is ~1M events/lane; this writes ~1.6k/lane, so
    // nothing was dropped and strict pairing must hold.)
    let lanes = trace.snapshot();
    let traced: Vec<_> = lanes
        .iter()
        .filter(|l| l.events.iter().any(|e| e.name == "shared_outer"))
        .collect();
    assert_eq!(
        traced.len(),
        THREADS,
        "each stressing thread gets its own lane"
    );
    for lane in &traced {
        assert_eq!(lane.dropped, 0, "lane {}: no ring overflow", lane.label);
    }
    let pairs = trace::validate_pairing(&lanes).expect("per-lane begin/end discipline");
    // 2 shared begin/end pairs per iteration per thread ("shared_outer" and
    // "leaf"); the private sessions trace nothing (the trace is the shared
    // session's, and no thread entered it).
    assert_eq!(pairs, THREADS * ITERS * 2, "every traced pair is complete");
}
