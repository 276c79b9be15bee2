//! Scheduler edge cases: exact event budgets, stale wakes, deadlock
//! reports, handoff chains and panicking callbacks. Every scenario pins
//! its event count, so a change in dispatch order shows up here.

use std::sync::Arc;

use dsim::sync::{SimCondvar, SimQueue, TimedWait};
use dsim::{SimDuration, SimError, Simulation};
use parking_lot::Mutex;

/// Run `scenario` in a fresh simulation and assert its event count.
fn run_pinned<T>(events: u64, scenario: impl FnOnce(&mut Simulation) -> T) -> T {
    let mut sim = Simulation::new();
    let out = scenario(&mut sim);
    assert_eq!(sim.sched_stats().events_processed, events, "event count drifted");
    out
}

#[test]
fn run_with_limit_exact_boundary() {
    // 1 spawn (a `Wake{Start}` event) + 10 sleeps (wake events) = 11
    // events. A budget of exactly 11 completes; a budget of 10 fails with
    // `processed: 10`, having charged the refused 11th event.
    let spawn_sleeper = |sim: &mut Simulation| {
        sim.spawn("sleeper", |ctx| {
            for _ in 0..10 {
                ctx.sleep(SimDuration::from_micros(1));
            }
        });
    };
    let end = run_pinned(11, |sim| {
        spawn_sleeper(sim);
        sim.run_with_limit(11).expect("exact budget must suffice")
    });
    assert_eq!(end.as_nanos(), 10_000);

    let (at, processed) = run_pinned(11, |sim| {
        spawn_sleeper(sim);
        match sim.run_with_limit(10) {
            Err(SimError::EventLimit { at, processed }) => (at.as_nanos(), processed),
            other => panic!("expected EventLimit, got {other:?}"),
        }
    });
    assert_eq!(processed, 10);
    // `at` is the virtual time of the event the budget refused to run.
    assert_eq!(at, 10_000);
}

#[test]
fn stale_timeout_wake_is_dropped() {
    // A waiter parks with a 100 µs timeout; a notifier signals at 50 µs.
    // The Notify wins, and the now-stale Timeout wake (still in the heap)
    // must be dropped without re-waking the process (it still counts as
    // a popped event).
    let outcome = run_pinned(6, |sim| {
        let h = sim.handle();
        let cv = Arc::new(SimCondvar::new(&h));
        let woke_at = Arc::new(Mutex::new(Vec::new()));
        {
            let cv = Arc::clone(&cv);
            let woke_at = Arc::clone(&woke_at);
            sim.spawn("waiter", move |ctx| {
                let r = cv.wait_timeout(ctx, SimDuration::from_micros(100));
                woke_at.lock().push((ctx.now().as_nanos(), r == TimedWait::Notified));
                // Stay alive past the stale deadline; a dropped stale wake
                // must not interrupt this sleep.
                ctx.sleep(SimDuration::from_micros(200));
                woke_at.lock().push((ctx.now().as_nanos(), true));
            });
        }
        {
            let cv = Arc::clone(&cv);
            sim.spawn("notifier", move |ctx| {
                ctx.sleep(SimDuration::from_micros(50));
                cv.notify_one();
            });
        }
        sim.run().unwrap();
        let v = woke_at.lock().clone();
        v
    });
    assert_eq!(outcome, vec![(50_000, true), (250_000, true)]);
}

#[test]
fn daemon_only_deadlock_is_reported() {
    // One non-daemon starves on a queue while a daemon idles on another:
    // the deadlock report must name only the non-daemon.
    let parked = run_pinned(2, |sim| {
        let h = sim.handle();
        let q = SimQueue::<u8>::new(&h);
        let dq = SimQueue::<u8>::new(&h);
        {
            let dq = Arc::clone(&dq);
            sim.spawn_daemon("idle-engine", move |ctx| {
                let _ = dq.pop(ctx);
            });
        }
        sim.spawn("starved", move |ctx| {
            let _ = q.pop(ctx);
        });
        match sim.run() {
            Err(SimError::Deadlock { parked, .. }) => parked,
            other => panic!("expected deadlock, got {other:?}"),
        }
    });
    assert_eq!(parked, vec!["starved".to_string()]);
}

#[test]
fn handoff_chain_is_exact() {
    // A three-process token ring: every wake targets a *different*
    // process, so every dispatch is a handoff. Completion time and event
    // count are pinned.
    let end = run_pinned(605, |sim| {
        let h = sim.handle();
        let qs: Vec<_> = (0..3).map(|_| SimQueue::<u32>::new(&h)).collect();
        for i in 0..3 {
            let rx = Arc::clone(&qs[i]);
            let tx = Arc::clone(&qs[(i + 1) % 3]);
            sim.spawn(format!("ring{i}"), move |ctx| {
                if i == 0 {
                    tx.push(0);
                }
                loop {
                    let v = rx.pop(ctx);
                    if v >= 300 {
                        if i != 0 {
                            tx.push(v); // let the rest of the ring drain
                        }
                        break;
                    }
                    ctx.sleep(SimDuration::from_nanos(10));
                    tx.push(v + 1);
                }
            });
        }
        sim.run().unwrap().as_nanos()
    });
    assert_eq!(end, 300 / 3 * 3 * 10);
}

#[test]
fn panicking_callback_is_reported_and_torn_down() {
    // A `schedule_in` callback panics at 5 µs while a process sleeps until
    // 10 µs. `run()` must return the typed error, not unwind, and teardown
    // must still unwind the sleeper, dropping what it captured.
    let mut sim = Simulation::new();
    let held = Arc::new(());
    {
        let held = Arc::clone(&held);
        sim.spawn("sleeper", move |ctx| {
            let _held = held;
            ctx.sleep(SimDuration::from_micros(10));
        });
    }
    sim.handle()
        .schedule_in(SimDuration::from_micros(5), |_| panic!("boom"));
    match sim.run() {
        Err(SimError::ProcessPanicked { name, message }) => {
            assert_eq!(name, "<callback>");
            assert!(message.contains("boom"), "message: {message}");
        }
        other => panic!("expected ProcessPanicked, got {other:?}"),
    }
    assert_eq!(Arc::strong_count(&held), 1, "sleeper thread was leaked");
}

#[test]
fn run_thread_dispatches_at_most_one_wake() {
    // A timer chain (each callback arms the next) interleaved with a queue
    // ping-pong: callbacks and handoffs are all dispatched by the process
    // threads; `run()`'s thread dispatches only the first wake.
    let mut sim = Simulation::new();
    let h = sim.handle();
    fn arm(h: dsim::SimHandle, left: u32) {
        if left > 0 {
            let next = h.clone();
            let _ = h.schedule_in(SimDuration::from_nanos(7), move |_| arm(next, left - 1));
        }
    }
    arm(h.clone(), 100);
    let ping = SimQueue::<u32>::new(&h);
    let pong = SimQueue::<u32>::new(&h);
    {
        let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
        sim.spawn("a", move |ctx| {
            for i in 0..50 {
                ping.push(i);
                let _ = pong.pop(ctx);
                ctx.sleep(SimDuration::from_nanos(10));
            }
        });
    }
    sim.spawn("b", move |ctx| {
        for _ in 0..50 {
            let v = ping.pop(ctx);
            ctx.sleep(SimDuration::from_nanos(3));
            pong.push(v);
        }
    });
    sim.run().unwrap();
    let stats = sim.sched_stats();
    assert!(stats.coordinator_wakes <= 1, "{stats:?}");
    assert!(stats.direct_handoffs > 0 && stats.self_wakes > 0, "{stats:?}");
    assert_eq!(
        stats.wakeups,
        stats.coordinator_wakes + stats.direct_handoffs + stats.self_wakes
    );
}
