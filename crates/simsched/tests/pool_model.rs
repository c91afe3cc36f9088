//! Bounded model checking of the real `rayon::PoolCore` protocols: the
//! exact pool the suite runs kernels on, built at small widths inside the
//! checker so every lock, condvar wait, and atomic becomes a scheduling
//! point. These models are the soundness argument for the pool's
//! completion, idle (spin-then-park), shutdown, panic-poisoning, and chunk
//! claiming protocols — all in strict mode, where a lost wakeup is a
//! reported deadlock. The pool's spin is a single poll under the checker,
//! itself a scheduling point, so a publish or a finish can land mid-spin.
//!
//! Also here: a deliberately broken variant of the completion protocol
//! (flag set outside the mutex, notify dropped) as a regression test that
//! the checker still catches the class of bug these models exist to
//! prevent.
#![cfg(simsched)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rayon::PoolCore;
use simsched::sync::{Condvar, Mutex};
use simsched::{check, Checker, Failure};

/// Width-2 pool, one parallel call: every chunk runs exactly once and the
/// submitter's completion wait never hangs, in every schedule. Counting
/// uses plain `std` atomics deliberately — they are bookkeeping for the
/// assertion, not part of the protocol under test, and must not add
/// scheduling points.
#[test]
fn pool_executes_chunks_exactly_once() {
    let report = check(|| {
        let pool = PoolCore::new(2);
        let runs = [AtomicUsize::new(0), AtomicUsize::new(0)];
        let items = AtomicUsize::new(0);
        pool.execute(2, 2, 1, &|lo, hi| {
            runs[lo].fetch_add(1, Ordering::Relaxed);
            items.fetch_add(hi - lo, Ordering::Relaxed);
        });
        assert_eq!(runs[0].load(Ordering::Relaxed), 1, "chunk 0 run count");
        assert_eq!(runs[1].load(Ordering::Relaxed), 1, "chunk 1 run count");
        assert_eq!(items.load(Ordering::Relaxed), 2, "total items covered");
        drop(pool);
    });
    report.assert_ok();
    println!(
        "pool width-2 exactly-once: {} schedules, {} pruned, {} transitions",
        report.schedules, report.pruned, report.transitions
    );
}

/// Combine determinism: partial results land in per-chunk slots and are
/// folded in chunk order, so the combined value is identical across every
/// interleaving — the property the iterator layer's reductions rely on.
#[test]
fn pool_combine_is_schedule_independent() {
    let report = check(|| {
        let pool = PoolCore::new(2);
        // Per-chunk result slots, written once each (disjoint indices).
        let slots = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        let s = Arc::clone(&slots);
        pool.execute(4, 2, 2, &move |lo, hi| {
            // Weighted sum so a chunk-order mixup changes the answer.
            let part: usize = (lo..hi).map(|i| (i + 1) * (i + 1)).sum();
            s[lo / 2].store(part, Ordering::Relaxed);
        });
        drop(pool);
        let combined = slots[0].load(Ordering::Relaxed) * 1000 + slots[1].load(Ordering::Relaxed);
        // 1+4 = 5 in slot 0, 9+16 = 25 in slot 1, regardless of which
        // thread ran which chunk or in what order.
        assert_eq!(combined, 5025, "combine must not depend on the schedule");
    });
    report.assert_ok();
    println!(
        "pool combine determinism: {} schedules, {} pruned",
        report.schedules, report.pruned
    );
}

/// Shutdown protocol at width 3 (two workers): setting the flag under the
/// slot lock must close the check-then-park race for BOTH idle
/// workers. In strict mode a worker that parks after missing the
/// `notify_all` would be an unwakeable `BlockedCv` thread — a reported
/// deadlock.
#[test]
fn pool_shutdown_wakes_all_idle_workers() {
    let report = check(|| {
        // No work at all: workers go idle immediately, then the drop's
        // shutdown must get both of them out of the idle wait.
        let pool = PoolCore::new(3);
        drop(pool);
    });
    report.assert_ok();
    println!(
        "pool width-3 shutdown: {} schedules, {} pruned, {} transitions",
        report.schedules, report.pruned, report.transitions
    );
}

/// Claiming at width 3: two single-chunk parts published while two workers
/// race the submitter for them. Every schedule must still run each chunk
/// exactly once and terminate.
#[test]
fn pool_width3_steal_and_inject() {
    let report = Checker::new()
        .preemption_bound(Some(1))
        .check(|| {
            let pool = PoolCore::new(3);
            let runs = [AtomicUsize::new(0), AtomicUsize::new(0)];
            pool.execute(2, 2, 1, &|lo, _hi| {
                runs[lo].fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(runs[0].load(Ordering::Relaxed), 1);
            assert_eq!(runs[1].load(Ordering::Relaxed), 1);
            drop(pool);
        });
    report.assert_ok();
    println!(
        "pool width-3 steal/inject: {} schedules, {} pruned, {} transitions",
        report.schedules, report.pruned, report.transitions
    );
}

/// Idle handshake, worker side: a job published while the worker decides to
/// park (polling the epoch, taking the slot lock, counting itself a
/// sleeper) is never lost. Chunk 0 — the submitter's own part — cannot
/// finish until chunk 1 has run on another thread, so if the worker missed
/// the publish, the submitter would block in chunk 0 forever: a reported
/// deadlock in strict mode.
#[test]
fn pool_publish_while_a_worker_parks_is_never_lost() {
    let report = check(|| {
        let pool = PoolCore::new(2);
        let gate = (
            Mutex::labeled(false, "model.chunk1_ran"),
            Condvar::labeled("model.chunk1_cv"),
        );
        pool.execute(2, 2, 1, &|lo, _hi| {
            let mut ran = gate.0.lock().unwrap();
            if lo == 1 {
                *ran = true;
                gate.1.notify_all();
            } else {
                while !*ran {
                    ran = gate.1.wait(ran).unwrap();
                }
            }
        });
        drop(pool);
    });
    report.assert_ok();
    println!(
        "pool idle handshake (publish vs park): {} schedules, {} pruned",
        report.schedules, report.pruned
    );
}

/// Idle handshake, submitter side: the submitter's spin-then-park wait for
/// the last chunk cannot miss the finisher's notify. Chunk 1 is the
/// worker's; the submitter drains chunk 0, finds nothing left to claim and
/// waits, in every interleaving with the worker's decrement and its read of
/// the `waiting` flag. A finish that went unnoticed would leave the
/// submitter parked: a reported deadlock.
#[test]
fn pool_submitter_wait_cannot_miss_the_finish() {
    let report = check(|| {
        let pool = PoolCore::new(2);
        let runs = [AtomicUsize::new(0), AtomicUsize::new(0)];
        for _ in 0..2 {
            pool.execute(2, 2, 1, &|lo, _hi| {
                runs[lo].fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(runs[0].load(Ordering::Relaxed), 2);
        assert_eq!(runs[1].load(Ordering::Relaxed), 2);
        drop(pool);
    });
    report.assert_ok();
    println!(
        "pool idle handshake (wait vs finish): {} schedules, {} pruned",
        report.schedules, report.pruned
    );
}

/// Panic poisoning: a chunk that panics must poison the job (skipping
/// still-queued chunks' bodies), propagate the payload to the submitter
/// exactly once, and leave the pool reusable — in every schedule.
#[test]
fn pool_panic_poisons_and_rethrows() {
    let report = check(|| {
        let pool = PoolCore::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.execute(2, 2, 1, &|lo, _hi| {
                if lo == 0 {
                    panic!("chunk zero failed");
                }
            });
        }));
        let payload = caught.expect_err("the chunk panic must reach the submitter");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "chunk zero failed");
        // The pool survives a poisoned job: a fresh job runs normally.
        let ran = AtomicUsize::new(0);
        pool.execute(1, 1, 1, &|_, _| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        drop(pool);
    });
    report.assert_ok();
    println!(
        "pool panic poisoning: {} schedules, {} pruned",
        report.schedules, report.pruned
    );
}

/// Regression guard: a broken variant of the pool's completion protocol —
/// the worker sets `done` WITHOUT holding the mutex and never notifies
/// (exactly the bug the `done`/`done_cv` design avoids). Strict mode must
/// report it as a deadlock: the submitter's wait can park after the flag
/// write and nothing ever wakes it. This is the canary that keeps the
/// checker honest about the class of bug the pool models exist to catch.
#[test]
fn broken_completion_protocol_is_caught() {
    let report = check(|| {
        let done = Arc::new((
            Mutex::labeled(false, "broken-pool.done"),
            Condvar::labeled("broken-pool.done_cv"),
        ));
        let flag = Arc::new(simsched::sync::atomic::AtomicBool::new(false));
        let (d2, f2) = (Arc::clone(&done), Arc::clone(&flag));
        let worker = simsched::thread::spawn(move || {
            // "Run the chunk", then publish completion the broken way:
            // atomic store instead of a write under the mutex, no notify.
            f2.store(true, simsched::sync::atomic::Ordering::SeqCst);
            let _ = d2; // the mutex/cv pair is never used for the publish
        });
        {
            let mut guard = done.0.lock().unwrap();
            // Submitter-side wait mirroring PoolCore::execute's loop shape,
            // but against the broken publish it can check the atomic, see
            // false, and park forever.
            while !*guard {
                if flag.load(simsched::sync::atomic::Ordering::SeqCst) {
                    break;
                }
                let (g, _) = done
                    .1
                    .wait_timeout(guard, Duration::from_millis(1))
                    .unwrap();
                guard = g;
            }
        }
        worker.join().unwrap();
    });
    match report.expect_failure() {
        Failure::Deadlock { pending, .. } => {
            let joined = pending.join("\n");
            assert!(
                joined.contains("broken-pool"),
                "deadlock report should attribute the broken protocol:\n{joined}"
            );
        }
        other => panic!("expected the lost completion wakeup, got: {other}"),
    }
}
