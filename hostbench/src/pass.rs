//! A pass: every point of a workload once, through `bench::runner` with
//! a bounded number of jobs in flight, with process-wide OS accounting
//! around it.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::os::{self, Usage};
use crate::point::{run_point, PointRun, PointSpec};

/// One pass over a workload's points.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Per-point results, in point order.
    pub runs: Vec<PointRun>,
    /// Host wall time of the pass (the runner's makespan).
    pub wall: Duration,
    /// Process resource use during the pass.
    pub usage: Usage,
    /// Share of the machine's CPU time stolen by the hypervisor during
    /// the pass, in percent (a diagnostic for noisy hosts).
    pub steal_pct: f64,
}

/// Trace-ring events reserved per simulated event, plus a floor.
/// Traced points record at most ~2 events per dsim event; the margin keeps
/// `TraceData::dropped` at 0.
const RING_PER_EVENT: u64 = 3;
const RING_FLOOR: u64 = 1 << 14;

/// Ring capacity for a traced rerun of a point that processed `events`
/// events untraced.
pub fn ring_capacity(events: u64) -> usize {
    (events * RING_PER_EVENT + RING_FLOOR) as usize
}

thread_local! {
    /// This runner worker has been given a CPU of its own.
    static PINNED: Cell<bool> = const { Cell::new(false) };
}

/// Run every point once on at most `cap` jobs in flight. With `rings`,
/// point `i` runs traced with ring capacity `rings[i]`.
///
/// With more than one job in flight, each runner worker pins itself to a
/// CPU of its own before its first point, and the simulation threads it
/// creates inherit that CPU. A dsim handoff then switches threads on one
/// CPU instead of waking the other, possibly idle, CPU: on a virtual
/// machine that wake waits for the hypervisor, and how long it waits
/// depends on the rest of the physical host far more than on this program.
pub fn run_pass(points: &[PointSpec], seed: u64, cap: usize, rings: Option<&[usize]>) -> Pass {
    let cpus = if cap > 1 && points.len() > 1 {
        os::allowed_cpus()
    } else {
        Vec::new()
    };
    let next_cpu = AtomicUsize::new(0);
    let before = Usage::now();
    let steal_before = os::steal_ticks();
    let t0 = Instant::now();
    let runs = bench::runner::par_map(points, cap, |i, p| {
        if !cpus.is_empty() && !PINNED.get() {
            let cpu = cpus[next_cpu.fetch_add(1, Ordering::Relaxed) % cpus.len()];
            PINNED.set(os::pin_current_thread(cpu));
        }
        run_point(p, seed, rings.map(|r| r[i]))
    });
    let wall = t0.elapsed();
    let steal_after = os::steal_ticks();
    let total = steal_after.1.saturating_sub(steal_before.1);
    Pass {
        runs,
        wall,
        usage: Usage::now().since(&before),
        steal_pct: if total > 0 {
            100.0 * steal_after.0.saturating_sub(steal_before.0) as f64 / total as f64
        } else {
            0.0
        },
    }
}

impl Pass {
    /// Simulated events over all points.
    pub fn events(&self) -> u64 {
        self.runs.iter().map(|r| r.sched.events_processed).sum()
    }

    /// Points that failed.
    pub fn failed(&self) -> usize {
        self.runs.iter().filter(|r| r.failed()).count()
    }

    /// FNV-1a digest of every selected point's label, simulated values
    /// and event count: equal digests mean nothing simulated changed.
    pub fn digest(&self, points: &[PointSpec], include: impl Fn(&PointSpec) -> bool) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for (p, r) in points.iter().zip(&self.runs) {
            if !include(p) {
                continue;
            }
            eat(p.label.as_bytes());
            match &r.outcome {
                Ok(m) => {
                    eat(&m.value.to_bits().to_le_bytes());
                    eat(&m.aux.to_bits().to_le_bytes());
                }
                Err(e) => eat(e.to_string().as_bytes()),
            }
            eat(&r.sched.events_processed.to_le_bytes());
        }
        h
    }
}
