//! dsim-only calibration loops: the host cost of each dispatch path,
//! measured through dsim's public API with no protocol code on top.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dsim::sync::SimQueue;
use dsim::{SimDuration, SimHandle, Simulation};

const HANDOFFS: u32 = 20_000;
const SLEEPS: u32 = 100_000;
const TIMERS: u32 = 100_000;
const SPAWNS: u32 = 200;

/// Host cost of each dispatch path.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// ns per cross-process wake (`SimQueue` ping-pong, direct handoff).
    pub handoff_ns: f64,
    /// ns per `sleep` that wakes the same process.
    pub self_wake_ns: f64,
    /// ns per `schedule_in` callback fired on the coordinator.
    pub timer_ns: f64,
    /// µs per process spawned, run to completion and reaped.
    pub spawn_us: f64,
}

/// Run every loop once, on one CPU, as the workloads' simulations run
/// (see [`crate::pass::run_pass`]).
pub fn calibrate() -> Calibration {
    let cpu = crate::os::allowed_cpus().first().copied();
    std::thread::scope(|s| {
        s.spawn(|| {
            if let Some(cpu) = cpu {
                crate::os::pin_current_thread(cpu);
            }
            Calibration {
                handoff_ns: per_op_ns(handoff_loop(), 2 * HANDOFFS),
                self_wake_ns: per_op_ns(sleep_loop(), SLEEPS),
                timer_ns: per_op_ns(timer_chain(), TIMERS),
                spawn_us: per_op_ns(spawn_loop(), SPAWNS) / 1e3,
            }
        })
        .join()
        .expect("calibration thread panicked")
    })
}

fn per_op_ns(d: Duration, ops: u32) -> f64 {
    d.as_nanos() as f64 / f64::from(ops)
}

/// Two processes bouncing a token through a pair of queues: every push
/// wakes the other process.
fn handoff_loop() -> Duration {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let q1 = SimQueue::<u32>::new(&h);
    let q2 = SimQueue::<u32>::new(&h);
    let took = Arc::new(Mutex::new(Duration::ZERO));
    {
        let (q1, q2, took) = (Arc::clone(&q1), Arc::clone(&q2), Arc::clone(&took));
        sim.spawn("a", move |ctx| {
            let t = Instant::now();
            for i in 0..HANDOFFS {
                q1.push(i);
                let _ = q2.pop(ctx);
            }
            *took.lock().expect("calibration slot poisoned") = t.elapsed();
        });
    }
    sim.spawn("b", move |ctx| {
        for _ in 0..HANDOFFS {
            let v = q1.pop(ctx);
            q2.push(v);
        }
    });
    sim.run().expect("handoff calibration failed");
    let d = *took.lock().expect("calibration slot poisoned");
    d
}

/// One process sleeping repeatedly: each wake is a self-wake.
fn sleep_loop() -> Duration {
    let mut sim = Simulation::new();
    let took = Arc::new(Mutex::new(Duration::ZERO));
    let slot = Arc::clone(&took);
    sim.spawn("sleeper", move |ctx| {
        let t = Instant::now();
        for _ in 0..SLEEPS {
            ctx.sleep(SimDuration::from_nanos(1));
        }
        *slot.lock().expect("calibration slot poisoned") = t.elapsed();
    });
    sim.run().expect("sleep calibration failed");
    let d = *took.lock().expect("calibration slot poisoned");
    d
}

/// A chain of `schedule_in` callbacks, each arming the next.
fn timer_chain() -> Duration {
    fn arm(h: SimHandle, left: u32) {
        if left == 0 {
            return;
        }
        let next = h.clone();
        let _ = h.schedule_in(SimDuration::from_nanos(1), move |_| arm(next, left - 1));
    }
    let mut sim = Simulation::new();
    arm(sim.handle(), TIMERS);
    let t = Instant::now();
    sim.run().expect("timer calibration failed");
    t.elapsed()
}

/// Spawn processes that exit at once; time spawn, run and teardown.
fn spawn_loop() -> Duration {
    let t = Instant::now();
    let mut sim = Simulation::new();
    for i in 0..SPAWNS {
        sim.spawn(format!("p{i}"), |_| {});
    }
    sim.run().expect("spawn calibration failed");
    drop(sim);
    t.elapsed()
}
