//! Scheduler edge cases: exact event budgets, stale wakes, deadlock
//! reports, handoff chains, panicking callbacks and processes torn down
//! before they start. Every scenario pins its event count, so a change in
//! dispatch order shows up here. The last tests pin what the carrier
//! guarantees: one OS thread, and a full-size stack per process.

use std::sync::atomic::{AtomicBool, Ordering};
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

#[test]
fn never_started_process_is_torn_down_without_running() {
    // "bad" panics at 1 µs, before "late" is due to start at 10 µs. The
    // run must report the panic, and teardown must retire "late" without
    // ever running its body.
    let ran = Arc::new(AtomicBool::new(false));
    run_pinned(2, |sim| {
        sim.spawn("bad", |ctx| {
            ctx.sleep(SimDuration::from_micros(1));
            panic!("boom");
        });
        let ran = Arc::clone(&ran);
        sim.handle()
            .spawn_delayed("late", SimDuration::from_micros(10), move |_| {
                ran.store(true, Ordering::Relaxed);
            });
        match sim.run() {
            Err(SimError::ProcessPanicked { name, message }) => {
                assert_eq!(name, "bad");
                assert!(message.contains("boom"), "message: {message}");
            }
            other => panic!("expected ProcessPanicked, got {other:?}"),
        }
    });
    assert!(!ran.load(Ordering::Relaxed), "a process ran its body during teardown");
    assert_eq!(Arc::strong_count(&ran), 1, "the late process's closure was leaked");
}

#[test]
fn every_process_runs_on_the_run_thread() {
    // Processes, a daemon and a process spawned by another all run on
    // the OS thread that called `run()`.
    let mut sim = Simulation::new();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let record = |seen: &Arc<Mutex<Vec<_>>>| {
        let seen = Arc::clone(seen);
        move |ctx: &dsim::SimCtx| {
            seen.lock().push(std::thread::current().id());
            ctx.sleep(SimDuration::from_micros(1));
            seen.lock().push(std::thread::current().id());
        }
    };
    for i in 0..3 {
        sim.spawn(format!("p{i}"), record(&seen));
    }
    sim.spawn_daemon("d", record(&seen));
    {
        let child = record(&seen);
        sim.spawn("parent", move |ctx| {
            ctx.handle().spawn("child", child);
            ctx.sleep(SimDuration::from_micros(2));
        });
    }
    sim.run().unwrap();
    let caller = std::thread::current().id();
    let seen = seen.lock().clone();
    assert_eq!(seen.len(), 10);
    assert!(seen.iter().all(|id| *id == caller), "{seen:?} vs {caller:?}");
}

#[test]
fn process_stack_holds_512_kib_after_a_sleep() {
    // Recurse through 512 KiB of 4 KiB frames on a resumed process.
    fn burn(depth: u32) -> u64 {
        let frame = std::hint::black_box([depth as u8; 4096]);
        if depth == 0 {
            return u64::from(frame[0]);
        }
        burn(depth - 1) + u64::from(frame[4095])
    }
    let sum = Arc::new(Mutex::new(0));
    let mut sim = Simulation::new();
    {
        let sum = Arc::clone(&sum);
        sim.spawn("deep", move |ctx| {
            ctx.sleep(SimDuration::from_micros(1));
            *sum.lock() = burn(128);
        });
    }
    sim.run().unwrap();
    assert_eq!(*sum.lock(), (1..=128).sum::<u64>());
}

#[test]
fn dropping_a_simulation_frees_what_never_ran() {
    // A process body and a timer callback each hold `held` and a handle
    // onto their own simulation, as protocol code does. Neither runs: in
    // the first simulation nothing runs at all, in the second the event
    // budget stops the run with the callback still queued. Dropping the
    // simulation must drop both closures.
    let held = Arc::new(());
    let capture = |sim: &Simulation| {
        let (h, held) = (sim.handle(), Arc::clone(&held));
        move || {
            let _ = (&h, &held);
        }
    };
    {
        let sim = Simulation::new();
        let body = capture(&sim);
        sim.spawn("never-run", move |_| body());
        let call = capture(&sim);
        let _ = sim.handle().schedule_in(SimDuration::from_micros(1), move |_| call());
        assert_eq!(Arc::strong_count(&held), 3);
    }
    assert_eq!(Arc::strong_count(&held), 1, "an unrun simulation leaked its closures");

    run_pinned(11, |sim| {
        sim.spawn("spin", |ctx| loop {
            ctx.sleep(SimDuration::from_nanos(1));
        });
        let call = capture(sim);
        let _ = sim.handle().schedule_in(SimDuration::from_micros(1), move |_| call());
        match sim.run_with_limit(10) {
            Err(SimError::EventLimit { processed: 10, .. }) => {}
            other => panic!("expected EventLimit after 10 events, got {other:?}"),
        }
        assert_eq!(Arc::strong_count(&held), 2, "the queued callback still holds it");
    });
    assert_eq!(Arc::strong_count(&held), 1, "a queued callback outlived its simulation");
}
