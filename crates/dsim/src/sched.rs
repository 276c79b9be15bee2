//! The discrete-event scheduler.
//!
//! # Execution model
//!
//! Simulation *processes* are stackful coroutines ([`crate::fiber`]), all
//! carried by the OS thread that calls [`Simulation::run`]. Exactly one of
//! them (or `run()` itself) holds the execution token at any instant, and
//! passing it on is a user-level register swap. This gives sequential
//! discrete-event semantics — the simulation is fully deterministic for a
//! given program — while letting protocol code be written in a natural
//! blocking style (`ctx.sleep(..)`, `cv.wait(&ctx)`), exactly how the SOVIA
//! paper's threads are written.
//!
//! Events live in a binary heap ordered by `(time, sequence)`; the sequence
//! number breaks ties in schedule order, so same-instant events fire in a
//! deterministic FIFO order.
//!
//! # Wake-up protocol
//!
//! Every process has an *epoch* counter. A parked process is woken by an
//! event that carries the epoch observed when the process parked; delivering
//! a wake bumps the epoch, so any other pending wake for the same park
//! (e.g. a timeout racing with a notification) becomes stale and is dropped.
//! Blocking primitives therefore follow the usual condition-variable rule:
//! *mutate shared state first, then wake; waiters re-check predicates in a
//! loop*.
//!
//! # One dispatcher
//!
//! Only `SimCore::dispatch` pops the event heap. The context that gives up
//! the token runs it: a process parking in `SimCtx::park`, a process
//! exiting, or `run()` once at the start. It pops entries in `(time, seq)`
//! order, charges the event budget, drops stale wakes and runs `Call`
//! callbacks inline (outside the state lock, under `catch_unwind`), until
//! it reaches a deliverable `Wake`. It marks that process Running, and the
//! caller passes the token on: a parking process that woke itself just
//! returns (no switch, the common case for an uncontended `sleep`);
//! otherwise the caller switches to the target's fiber. When nothing is
//! dispatchable — empty heap, spent budget, recorded panic or teardown —
//! the token goes back to `run()`, which classifies the outcome.

use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::fiber::{self, Context, Fiber};
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceConfig, TraceData, TraceEvent, TraceKind, TraceLayer, TraceShared, TraceTag, Tracer};

/// Identifier of a simulation process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub(crate) u64);

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc#{}", self.0)
    }
}

/// Why a parked process resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeReason {
    /// The process's own `sleep` deadline arrived.
    Sleep,
    /// A notification was delivered (condvar/queue/semaphore).
    Notify,
    /// A `wait_timeout` deadline fired before any notification.
    Timeout,
    /// First scheduling of a newly spawned process.
    Start,
    /// The simulation is being torn down; the process must unwind.
    Shutdown,
}

/// Error raised by [`Simulation::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No events remain but some processes are still parked.
    Deadlock {
        /// Virtual time at which the simulation wedged.
        at: SimTime,
        /// Names of the parked processes.
        parked: Vec<String>,
    },
    /// A simulation process panicked.
    ProcessPanicked {
        /// Name of the panicking process.
        name: String,
        /// Rendered panic payload.
        message: String,
    },
    /// The event-count budget given to [`Simulation::run_with_limit`] was
    /// exhausted (runaway-simulation guard).
    EventLimit {
        /// Virtual time when the budget ran out.
        at: SimTime,
        /// Events fully processed before the budget ran out (callers use
        /// this to tune the budget).
        processed: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { at, parked } => {
                write!(f, "simulation deadlocked at {at}: parked = {parked:?}")
            }
            SimError::ProcessPanicked { name, message } => {
                write!(f, "simulation process `{name}` panicked: {message}")
            }
            SimError::EventLimit { at, processed } => {
                write!(f, "event limit exhausted at {at} after {processed} events")
            }
        }
    }
}

impl std::error::Error for SimError {}

enum EventKind {
    Wake {
        pid: ProcId,
        epoch: u64,
        reason: WakeReason,
    },
    Call {
        cancelled: Arc<AtomicBool>,
        f: Box<dyn FnOnce(SimTime) + Send>,
    },
}

struct EventEntry {
    time: u64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for EventEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for EventEntry {}
impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    /// Spawned but not yet started, or parked awaiting a wake event.
    Parked,
    /// Currently holding the execution token.
    Running,
    /// Finished (returned or panicked).
    Done,
}

/// One process's scheduling slot.
struct ProcSlot {
    name: String,
    state: ProcState,
    epoch: u64,
    wake_reason: Option<WakeReason>,
    /// The process's coroutine; `None` once teardown has released its stack.
    fiber: Option<Box<Fiber>>,
    /// What the fiber runs on its first resume (taken then).
    body: Option<Box<dyn FnOnce() + Send>>,
    /// Daemons (NIC engines, protocol handler loops) do not keep the
    /// simulation alive: it completes when all non-daemon processes finish.
    daemon: bool,
    /// Wake events delivered to this process (any reason except Shutdown).
    wakeups: u64,
    /// Accumulated virtual run time: a process only advances the clock
    /// while "running" its own charged costs, i.e. across `Sleep` parks,
    /// so run time is the sum of Sleep-reason park→wake intervals.
    runtime_ns: u64,
    /// Virtual time at which this process last parked.
    parked_at_ns: u64,
}

/// Scheduler configuration. It has no fields: the scheduler has one
/// dispatch path and no knobs. The type remains only because
/// `hostbench/` names it in `Simulation::with_config_and_trace`; a later
/// benchmark change drops it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedConfig;

/// Counters describing how a simulation was executed (host-side only;
/// nothing here feeds back into virtual time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Heap entries popped (wakes, calls, stale wakes).
    pub events_processed: u64,
    /// Wakes a parking or exiting process delivered to another process
    /// (one fiber switch).
    pub direct_handoffs: u64,
    /// Wakes a parking process delivered to *itself* (no switch).
    pub self_wakes: u64,
    /// Wakes dispatched by `run()`: at most 1 per run (the first
    /// dispatch; every later one happens on a process fiber).
    pub coordinator_wakes: u64,
    /// Total wake deliveries across all processes (every reason except
    /// teardown); per-process detail is in [`Simulation::proc_stats`].
    pub wakeups: u64,
}

/// Per-process scheduling accounting (see [`Simulation::proc_stats`]).
///
/// "Run time" is virtual CPU time: the sum of this process's charged
/// cost-model sleeps. Handshake intervals between a wake and the next park
/// are zero virtual time by construction, so they contribute nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcStats {
    /// Process id (spawn order).
    pub pid: u64,
    /// Process name as given to `spawn`.
    pub name: String,
    /// Whether this is a daemon (engine loop).
    pub daemon: bool,
    /// Accumulated virtual run time (charged costs).
    pub runtime: SimDuration,
    /// Wake events delivered (all reasons except teardown).
    pub wakeups: u64,
}

struct SchedState {
    now: u64,
    seq: u64,
    heap: BinaryHeap<EventEntry>,
    procs: BTreeMap<u64, ProcSlot>,
    next_pid: u64,
    /// Number of processes not yet Done.
    live: usize,
    /// Set when `run()` tears everything down.
    shutting_down: bool,
    /// Panic captured from a process or callback, reported by `run`.
    panic: Option<(String, String)>,
    /// Heap entries popped so far (charged against `max_events`).
    events: u64,
    /// Event budget (`u64::MAX` when unlimited).
    max_events: u64,
    /// Execution counters (see [`SchedStats`]).
    stats: SchedStats,
    /// Run, in registration order, when the [`Simulation`] is dropped.
    drop_hooks: Vec<Box<dyn FnOnce() + Send>>,
}

pub(crate) struct SimCore {
    state: Mutex<SchedState>,
    /// Where `run()` is suspended while a process holds the token; the
    /// token comes back here when nothing is left to dispatch, or when a
    /// process finished unwinding at teardown.
    main: Context,
    /// Event recorder; `None` (the default) makes every emission site a
    /// single predictable branch.
    pub(crate) trace: Option<Arc<TraceShared>>,
}

impl SimCore {
    fn schedule_locked(
        state: &mut SchedState,
        at: u64,
        kind: EventKind,
    ) {
        let seq = state.seq;
        state.seq += 1;
        state.heap.push(EventEntry { time: at, seq, kind });
    }

    /// The dispatcher, called by whichever context gives up the token: pop
    /// heap entries in `(time, seq)` order, charging each against the event
    /// budget, dropping stale wakes and running `Call` callbacks inline,
    /// until a deliverable `Wake` turns up. That process is marked Running
    /// and its pid returned. `None` means the token goes back to `run()`:
    /// empty heap, spent budget, recorded panic, or teardown.
    ///
    /// Callbacks run with the state lock released (they schedule wakes)
    /// and under `catch_unwind`: a panicking callback is recorded like a
    /// panicking process, so `run()` still tears the simulation down.
    fn dispatch<'a>(
        &'a self,
        mut st: MutexGuard<'a, SchedState>,
    ) -> (MutexGuard<'a, SchedState>, Option<ProcId>) {
        loop {
            if st.panic.is_some() || st.shutting_down {
                return (st, None);
            }
            let Some(e) = st.heap.pop() else {
                return (st, None);
            };
            st.now = e.time;
            st.events += 1;
            if st.events > st.max_events {
                return (st, None);
            }
            match e.kind {
                EventKind::Call { cancelled, f } => {
                    if cancelled.load(Ordering::Relaxed) {
                        continue;
                    }
                    let now = SimTime(st.now);
                    drop(st);
                    let result = panic::catch_unwind(AssertUnwindSafe(|| f(now)));
                    st = self.state.lock();
                    if let Err(payload) = result {
                        if st.panic.is_none() {
                            st.panic = Some(("<callback>".to_string(), panic_message(&*payload)));
                        }
                    }
                }
                EventKind::Wake { pid, epoch, reason } => {
                    let now = st.now;
                    let Some(slot) = st.procs.get_mut(&pid.0) else {
                        continue;
                    };
                    if slot.state != ProcState::Parked || slot.epoch != epoch {
                        continue; // stale wake
                    }
                    slot.epoch += 1;
                    slot.state = ProcState::Running;
                    slot.wake_reason = Some(reason);
                    slot.wakeups += 1;
                    if reason == WakeReason::Sleep {
                        slot.runtime_ns += now - slot.parked_at_ns;
                    }
                    st.stats.wakeups += 1;
                    return (st, Some(pid));
                }
            }
        }
    }

    /// The saved context of process `pid`, or of `run()` for `None`.
    fn context<'a>(&'a self, st: &'a SchedState, pid: Option<ProcId>) -> &'a Context {
        match pid {
            Some(pid) => st.procs[&pid.0]
                .fiber
                .as_ref()
                .expect("a live process has a fiber")
                .context(),
            None => &self.main,
        }
    }

    /// Switch from the running context `from` (a process, or `run()` for
    /// `None`) to `to` (likewise), and return when something switches
    /// back to `from`. Releases the state lock first: the next context
    /// locks it on this same OS thread.
    fn pass_token(&self, st: MutexGuard<'_, SchedState>, from: Option<ProcId>, to: Option<ProcId>) {
        // std counts panics per OS thread: a switch while one unwinds would
        // show it to every other process.
        // sovia-lint: allow(R2) -- a query of this thread's panic count, not a thread: every process shares the one OS thread
        debug_assert!(!std::thread::panicking(), "token passed during a panic");
        let save: *const Context = self.context(&st, from);
        let resume: *const Context = self.context(&st, to);
        drop(st);
        // SAFETY: both contexts outlive the switch: `main` lives in this
        // `SimCore`, which `run()` keeps alive, and a fiber is boxed in its
        // slot until teardown, after every process is Done. `resume` is
        // suspended: it is `run()` (which only ever waits here), or a
        // process the dispatcher just marked Running after it parked or
        // before it started.
        unsafe { fiber::switch(save, resume) };
    }
}

/// A cloneable handle onto a running (or not-yet-run) simulation.
///
/// Handles can schedule callbacks and construct synchronization primitives;
/// they do not allow blocking (only a [`SimCtx`], owned by a process, can
/// block).
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) core: Arc<SimCore>,
}

impl SimHandle {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime(self.core.state.lock().now)
    }

    /// A cheap emission handle onto this simulation's trace recorder
    /// (disabled — every emit a no-op — unless the simulation was built
    /// with [`Simulation::with_config_and_trace`]).
    pub fn tracer(&self) -> Tracer {
        Tracer {
            shared: self.core.trace.clone(),
        }
    }

    /// Schedule `f` to run at `now + delay`, on the stack of whichever
    /// process (or `run()`) dispatches that event.
    ///
    /// The callback must not block; it may mutate shared state and notify
    /// condition variables. Returns a guard that can cancel the timer.
    pub fn schedule_in<F>(&self, delay: SimDuration, f: F) -> TimerGuard
    where
        F: FnOnce(SimTime) + Send + 'static,
    {
        let cancelled = Arc::new(AtomicBool::new(false));
        let mut st = self.core.state.lock();
        let at = st.now + delay.as_nanos();
        SimCore::schedule_locked(
            &mut st,
            at,
            EventKind::Call {
                cancelled: Arc::clone(&cancelled),
                f: Box::new(f),
            },
        );
        TimerGuard { cancelled }
    }

    /// Spawn a new simulation process; it first runs at `now` (after all
    /// already-queued same-instant events).
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> ProcId
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        self.spawn_inner(name, SimDuration::ZERO, false, f)
    }

    /// Spawn a *daemon* process: an engine loop (NIC, protocol handler)
    /// that blocks forever when idle. Daemons do not keep the simulation
    /// alive; they are torn down when all regular processes finish.
    pub fn spawn_daemon<F>(&self, name: impl Into<String>, f: F) -> ProcId
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        self.spawn_inner(name, SimDuration::ZERO, true, f)
    }

    /// Spawn a new simulation process whose first instruction runs at
    /// `now + delay`.
    pub fn spawn_delayed<F>(&self, name: impl Into<String>, delay: SimDuration, f: F) -> ProcId
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        self.spawn_inner(name, delay, false, f)
    }

    fn spawn_inner<F>(
        &self,
        name: impl Into<String>,
        delay: SimDuration,
        daemon: bool,
        f: F,
    ) -> ProcId
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        let name = name.into();
        let mut st = self.core.state.lock();
        let pid = ProcId(st.next_pid);
        st.next_pid += 1;

        let ctx = SimCtx {
            handle: self.clone(),
            pid,
        };
        let core = Arc::clone(&self.core);
        let pname = name.clone();
        // Runs once, on the fiber, and drops every capture (the `Arc`s
        // onto the simulation included) before `fiber_entry` switches
        // away for good.
        let body = move || {
            let reason = ctx.take_wake_reason(&mut core.state.lock());
            // A process torn down before it ever ran skips its body.
            let start = reason == WakeReason::Start;
            debug_assert!(start || reason == WakeReason::Shutdown, "{reason:?}");
            let result = panic::catch_unwind(AssertUnwindSafe(move || {
                if start {
                    f(&ctx);
                }
            }));
            let mut st = core.state.lock();
            let slot = st.procs.get_mut(&pid.0).expect("slot exists");
            slot.state = ProcState::Done;
            if !daemon {
                st.live -= 1;
            }
            if let Err(payload) = result {
                let is_shutdown = payload.downcast_ref::<ShutdownToken>().is_some();
                if !is_shutdown && !st.shutting_down && st.panic.is_none() {
                    st.panic = Some((pname, panic_message(&*payload)));
                }
            }
        };
        let fiber = Fiber::new(
            fiber_entry,
            Arc::as_ptr(&self.core) as usize,
            pid.0 as usize,
        );

        if let Some(tr) = &self.core.trace {
            tr.names.lock().push((pid.0, name.clone()));
        }
        let slot = ProcSlot {
            name,
            state: ProcState::Parked,
            epoch: 0,
            wake_reason: None,
            fiber: Some(fiber),
            body: Some(Box::new(body)),
            daemon,
            wakeups: 0,
            runtime_ns: 0,
            parked_at_ns: st.now,
        };
        st.procs.insert(pid.0, slot);
        if !daemon {
            st.live += 1;
        }
        let at = st.now + delay.as_nanos();
        SimCore::schedule_locked(
            &mut st,
            at,
            EventKind::Wake {
                pid,
                epoch: 0,
                reason: WakeReason::Start,
            },
        );
        pid
    }

    /// Run `f` when the [`Simulation`] is dropped, after its queued events
    /// and its processes' slots are gone. Objects that hold the handle
    /// (directly or through what they own) register here what breaks
    /// their reference cycles, so a dropped simulation frees everything
    /// built on it. `f` should hold only `Weak` references.
    pub fn on_drop(&self, f: impl FnOnce() + Send + 'static) {
        self.core.state.lock().drop_hooks.push(Box::new(f));
    }

    /// Record the modeled cost of a cross-thread signal: a Sched-layer
    /// `thread_wake` span covering `[now, now + delay]` on the *woken*
    /// process. Called by the sync primitives' delayed notifies.
    pub(crate) fn trace_thread_wake(&self, pid: ProcId, delay: SimDuration) {
        if let Some(tr) = &self.core.trace {
            let now = self.core.state.lock().now;
            tr.push(TraceEvent {
                start_ns: now,
                dur_ns: delay.as_nanos(),
                pid: pid.0,
                layer: TraceLayer::Sched,
                kind: TraceKind::ThreadWake,
                tag: TraceTag::default(),
            });
        }
    }

    /// Schedule a wake for `pid` at `now + delay` targeting epoch `epoch`.
    /// Used by the synchronization primitives.
    pub(crate) fn schedule_wake(
        &self,
        pid: ProcId,
        epoch: u64,
        delay: SimDuration,
        reason: WakeReason,
    ) {
        let mut st = self.core.state.lock();
        let at = st.now + delay.as_nanos();
        SimCore::schedule_locked(&mut st, at, EventKind::Wake { pid, epoch, reason });
    }

    /// The (pid, epoch) pair a primitive must record to wake `ctx` later.
    pub(crate) fn park_token(&self, ctx: &SimCtx) -> (ProcId, u64) {
        let st = self.core.state.lock();
        let slot = st.procs.get(&ctx.pid.0).expect("park_token: unknown pid");
        (ctx.pid, slot.epoch)
    }

    /// Whether a recorded park token still refers to a parked process whose
    /// epoch has not advanced (i.e. waking it would not be stale).
    pub(crate) fn token_is_current(&self, token: (ProcId, u64)) -> bool {
        let st = self.core.state.lock();
        match st.procs.get(&token.0 .0) {
            Some(slot) => slot.state == ProcState::Parked && slot.epoch == token.1,
            None => false,
        }
    }
}

/// Cancellation guard for a scheduled callback.
///
/// Dropping the guard does **not** cancel the timer; call
/// [`TimerGuard::cancel`] explicitly.
pub struct TimerGuard {
    cancelled: Arc<AtomicBool>,
}

impl TimerGuard {
    /// Prevent the callback from running if it has not fired yet.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether `cancel` was called (the callback may still have fired first).
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

/// Per-process context: the capability to block in virtual time.
///
/// A `SimCtx` must only be used from the process it was created for.
#[derive(Clone)]
pub struct SimCtx {
    pub(crate) handle: SimHandle,
    pub(crate) pid: ProcId,
}

impl SimCtx {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.handle.now()
    }

    /// This process's id.
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// A cloneable, non-blocking handle to the simulation.
    pub fn handle(&self) -> &SimHandle {
        &self.handle
    }

    /// Advance this process's virtual clock by `d` (charge a modeled cost).
    pub fn sleep(&self, d: SimDuration) {
        if d.is_zero() {
            return;
        }
        let (pid, epoch) = self.handle.park_token(self);
        self.handle.schedule_wake(pid, epoch, d, WakeReason::Sleep);
        let r = self.park();
        debug_assert_eq!(r, WakeReason::Sleep);
    }

    /// Whether this simulation is recording trace events. Instrumentation
    /// sites that need extra work to build a tag (e.g. counting bytes)
    /// should gate on this first.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.handle.core.trace.is_some()
    }

    /// Record a span for a cost that was just charged: it covers
    /// `[now - dur, now]`. Call *after* the corresponding `sleep`/charge.
    /// No-op (one branch) when tracing is off.
    #[inline]
    pub fn trace_span(&self, layer: TraceLayer, kind: TraceKind, dur: SimDuration, tag: TraceTag) {
        if let Some(tr) = &self.handle.core.trace {
            let now = self.handle.core.state.lock().now;
            tr.push(TraceEvent {
                start_ns: now - dur.as_nanos(),
                dur_ns: dur.as_nanos(),
                pid: self.pid.0,
                layer,
                kind,
                tag,
            });
        }
    }

    /// Record an instant event at the current virtual time.
    #[inline]
    pub fn trace_instant(&self, layer: TraceLayer, kind: TraceKind, tag: TraceTag) {
        if let Some(tr) = &self.handle.core.trace {
            let now = self.handle.core.state.lock().now;
            tr.push(TraceEvent {
                start_ns: now,
                dur_ns: 0,
                pid: self.pid.0,
                layer,
                kind,
                tag,
            });
        }
    }

    /// Record a counter increment of `delta` at the current virtual time.
    #[inline]
    pub fn trace_count(&self, layer: TraceLayer, kind: TraceKind, delta: u64, tag: TraceTag) {
        if let Some(tr) = &self.handle.core.trace {
            let now = self.handle.core.state.lock().now;
            tr.push(TraceEvent {
                start_ns: now,
                dur_ns: 0,
                pid: self.pid.0,
                layer,
                kind,
                tag: TraceTag { value: delta, ..tag },
            });
        }
    }

    /// Yield to any other same-instant events/processes without advancing
    /// time (a deterministic `sched_yield`).
    pub fn yield_now(&self) {
        let (pid, epoch) = self.handle.park_token(self);
        self.handle
            .schedule_wake(pid, epoch, SimDuration::ZERO, WakeReason::Sleep);
        let _ = self.park();
    }

    /// Park until some event wakes us. Returns the delivered reason.
    ///
    /// This is the low-level primitive behind the sync types; application
    /// code should prefer [`crate::sync`] primitives.
    pub(crate) fn park(&self) -> WakeReason {
        let core = &self.handle.core;
        {
            let mut st = core.state.lock();
            let now = st.now;
            let slot = st
                .procs
                .get_mut(&self.pid.0)
                .expect("park: unknown pid");
            assert_eq!(
                slot.state,
                ProcState::Running,
                "park() called from a process that does not hold the token"
            );
            slot.state = ProcState::Parked;
            slot.parked_at_ns = now;
            let (mut st, next) = core.dispatch(st);
            if next == Some(self.pid) {
                // We dispatched our own wake: keep the token (no switch).
                st.stats.self_wakes += 1;
                let reason = self.take_wake_reason(&mut st);
                debug_assert_ne!(reason, WakeReason::Shutdown);
                return reason;
            }
            if next.is_some() {
                st.stats.direct_handoffs += 1;
            }
            core.pass_token(st, Some(self.pid), next);
        }
        let reason = self.take_wake_reason(&mut core.state.lock());
        if reason == WakeReason::Shutdown {
            // resume_unwind skips the panic hook: teardown is silent.
            panic::resume_unwind(Box::new(ShutdownToken));
        }
        reason
    }

    /// Consume the reason the dispatcher stored when it woke us.
    fn take_wake_reason(&self, st: &mut SchedState) -> WakeReason {
        st.procs
            .get_mut(&self.pid.0)
            .expect("park: unknown pid after wake")
            .wake_reason
            .take()
            .expect("woken without a wake reason")
    }
}

/// A whole simulation: owns the event queue, clock, and process fibers.
/// Dropping it frees all three and runs the [`SimHandle::on_drop`] hooks.
pub struct Simulation {
    handle: SimHandle,
    ran: bool,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Create an empty simulation at t = 0.
    pub fn new() -> Simulation {
        Simulation::with_config_and_trace(SchedConfig, None)
    }

    /// Create an empty simulation, optionally recording trace events.
    /// With `trace: None` this is exactly [`Simulation::new`]:
    /// virtual-time results are identical either way — tracing observes,
    /// never perturbs. `SchedConfig` carries nothing (see its docs).
    pub fn with_config_and_trace(
        _config: SchedConfig,
        trace: Option<TraceConfig>,
    ) -> Simulation {
        let core = Arc::new(SimCore {
            state: Mutex::new(SchedState {
                now: 0,
                seq: 0,
                heap: BinaryHeap::new(),
                procs: BTreeMap::new(),
                next_pid: 0,
                live: 0,
                shutting_down: false,
                panic: None,
                events: 0,
                max_events: u64::MAX,
                stats: SchedStats::default(),
                drop_hooks: Vec::new(),
            }),
            main: Context::empty(),
            trace: trace.map(|cfg| Arc::new(TraceShared::new(cfg))),
        });
        Simulation {
            handle: SimHandle { core },
            ran: false,
        }
    }

    /// Execution counters (dispatch breakdown). Virtual-time results
    /// never depend on these; they exist for host-performance tracking.
    pub fn sched_stats(&self) -> SchedStats {
        let st = self.handle.core.state.lock();
        SchedStats {
            events_processed: st.events,
            ..st.stats
        }
    }

    /// Per-process run-time and wakeup accounting, ordered by pid
    /// (spawn order). Meaningful during and after `run`.
    pub fn proc_stats(&self) -> Vec<ProcStats> {
        let st = self.handle.core.state.lock();
        let mut out: Vec<ProcStats> = st
            .procs
            .iter()
            .map(|(pid, s)| ProcStats {
                pid: *pid,
                name: s.name.clone(),
                daemon: s.daemon,
                runtime: SimDuration(s.runtime_ns),
                wakeups: s.wakeups,
            })
            .collect();
        out.sort_by_key(|p| p.pid);
        out
    }

    /// Drain and return the recorded trace, or `None` if this simulation
    /// was built without tracing. Call after `run`.
    pub fn take_trace(&self) -> Option<TraceData> {
        self.handle
            .core
            .trace
            .as_deref()
            .map(TraceData::drain_from)
    }

    /// A cloneable handle for scheduling and primitive construction.
    pub fn handle(&self) -> SimHandle {
        self.handle.clone()
    }

    /// Spawn a process (see [`SimHandle::spawn`]).
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> ProcId
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        self.handle.spawn(name, f)
    }

    /// Spawn a daemon process (see [`SimHandle::spawn_daemon`]).
    pub fn spawn_daemon<F>(&self, name: impl Into<String>, f: F) -> ProcId
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        self.handle.spawn_daemon(name, f)
    }

    /// Run until all processes finish, returning the final virtual time.
    ///
    /// Takes `&mut self` so callers can query [`Simulation::sched_stats`]
    /// afterwards; a simulation still runs
    /// at most once.
    pub fn run(&mut self) -> Result<SimTime, SimError> {
        self.run_inner(u64::MAX)
    }

    /// Run with an explicit event budget.
    pub fn run_with_limit(&mut self, max_events: u64) -> Result<SimTime, SimError> {
        self.run_inner(max_events)
    }

    fn run_inner(&mut self, max_events: u64) -> Result<SimTime, SimError> {
        assert!(!self.ran, "Simulation::run called twice");
        self.ran = true;
        // Keeps the core alive while fibers run: `fiber_entry` borrows it
        // through a raw pointer.
        let core = Arc::clone(&self.handle.core);
        let mut st = core.state.lock();
        st.max_events = max_events;
        let (mut st, next) = core.dispatch(st);
        if next.is_some() {
            st.stats.coordinator_wakes += 1;
            // Processes dispatch every later event; the token comes back
            // here only when nothing is left to dispatch.
            core.pass_token(st, None, next);
        } else {
            drop(st);
        }
        let result = Self::outcome(core.state.lock());
        self.teardown();
        result
    }

    /// Classify why dispatch stopped. A spent budget has charged the
    /// refused event; otherwise the heap is empty, and the run either
    /// completed or wedged.
    fn outcome(mut st: MutexGuard<'_, SchedState>) -> Result<SimTime, SimError> {
        let at = SimTime(st.now);
        if let Some((name, message)) = st.panic.take() {
            Err(SimError::ProcessPanicked { name, message })
        } else if st.events > st.max_events {
            Err(SimError::EventLimit {
                at,
                processed: st.events - 1,
            })
        } else if st.live == 0 {
            Ok(at)
        } else {
            let parked = st
                .procs
                .values()
                .filter(|p| p.state == ProcState::Parked && !p.daemon)
                .map(|p| p.name.clone())
                .collect();
            Err(SimError::Deadlock { at, parked })
        }
    }

    /// Resume every parked process with `Shutdown` (making it unwind, or
    /// skip its body if it never started), then release the fibers' stacks.
    fn teardown(&mut self) {
        let core = &self.handle.core;
        loop {
            let mut st = core.state.lock();
            st.shutting_down = true;
            let target = st
                .procs
                .iter_mut()
                .find(|(_, s)| s.state == ProcState::Parked)
                .map(|(pid, slot)| {
                    slot.state = ProcState::Running;
                    slot.epoch += 1;
                    slot.wake_reason = Some(WakeReason::Shutdown);
                    ProcId(*pid)
                });
            match target {
                Some(pid) => core.pass_token(st, None, Some(pid)),
                None => break,
            }
        }
        // Every process is Done: no stack is in use any more.
        for slot in core.state.lock().procs.values_mut() {
            slot.fiber = None;
        }
    }
}

impl Drop for Simulation {
    /// Free the simulation's world: queued events (callbacks still pending
    /// after `EventLimit` or a panic), the process slots (the body of a
    /// process that never ran holds a `SimCtx`, and so this core), then
    /// run the [`SimHandle::on_drop`] hooks. Everything is taken out under
    /// the lock and dropped outside it: destructors may lock it again.
    fn drop(&mut self) {
        let (heap, procs, hooks) = {
            let mut st = self.handle.core.state.lock();
            (
                std::mem::take(&mut st.heap),
                std::mem::take(&mut st.procs),
                std::mem::take(&mut st.drop_hooks),
            )
        };
        drop(heap);
        drop(procs);
        for hook in hooks {
            hook();
        }
    }
}

/// First code on a process's fiber: run the process body, then dispatch
/// the next event and leave for good. `core` points to the `SimCore`
/// that `run()` keeps alive; fibers only ever run inside `run()`.
extern "C" fn fiber_entry(core: usize, pid: usize) -> ! {
    // SAFETY: see above; `run()` holds an `Arc` until every fiber is done.
    let core = unsafe { &*(core as *const SimCore) };
    let pid = ProcId(pid as u64);
    let body = core
        .state
        .lock()
        .procs
        .get_mut(&pid.0)
        .and_then(|s| s.body.take())
        .expect("a fiber runs its body once");
    body();
    let st = core.state.lock();
    let (mut st, next) = core.dispatch(st);
    if next.is_some() {
        st.stats.direct_handoffs += 1;
    }
    core.pass_token(st, Some(pid), next);
    unreachable!("a finished process was resumed");
}

/// Unwind payload used to silently tear a process down at end of simulation.
struct ShutdownToken;

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn empty_simulation_finishes_at_zero() {
        let mut sim = Simulation::new();
        assert_eq!(sim.run().unwrap(), SimTime::ZERO);
    }

    #[test]
    fn single_process_sleeps() {
        let mut sim = Simulation::new();
        let t_end = Arc::new(AtomicU64::new(0));
        let t2 = Arc::clone(&t_end);
        sim.spawn("sleeper", move |ctx| {
            ctx.sleep(SimDuration::from_micros(10));
            ctx.sleep(SimDuration::from_micros(5));
            t2.store(ctx.now().as_nanos(), Ordering::Relaxed);
        });
        let end = sim.run().unwrap();
        assert_eq!(t_end.load(Ordering::Relaxed), 15_000);
        assert_eq!(end.as_nanos(), 15_000);
    }

    #[test]
    fn processes_interleave_deterministically() {
        let mut sim = Simulation::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (name, start, step) in [("a", 1u64, 3u64), ("b", 2, 3)] {
            let log = Arc::clone(&log);
            sim.spawn(name, move |ctx| {
                ctx.sleep(SimDuration::from_micros(start));
                for _ in 0..3 {
                    log.lock().push((name, ctx.now().as_nanos()));
                    ctx.sleep(SimDuration::from_micros(step));
                }
            });
        }
        sim.run().unwrap();
        let got = log.lock().clone();
        assert_eq!(
            got,
            vec![
                ("a", 1_000),
                ("b", 2_000),
                ("a", 4_000),
                ("b", 5_000),
                ("a", 7_000),
                ("b", 8_000),
            ]
        );
    }

    #[test]
    fn same_instant_events_fire_in_schedule_order() {
        let mut sim = Simulation::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let h = sim.handle();
        for i in 0..5 {
            let log = Arc::clone(&log);
            h.schedule_in(SimDuration::from_micros(1), move |_| {
                log.lock().push(i);
            });
        }
        sim.run().unwrap();
        assert_eq!(log.lock().clone(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn timer_cancellation() {
        let mut sim = Simulation::new();
        let fired = Arc::new(AtomicU64::new(0));
        let f2 = Arc::clone(&fired);
        let h = sim.handle();
        let guard = h.schedule_in(SimDuration::from_micros(5), move |_| {
            f2.fetch_add(1, Ordering::Relaxed);
        });
        guard.cancel();
        assert!(guard.is_cancelled());
        sim.run().unwrap();
        assert_eq!(fired.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn nested_spawn() {
        let mut sim = Simulation::new();
        let sum = Arc::new(AtomicU64::new(0));
        let s2 = Arc::clone(&sum);
        sim.spawn("parent", move |ctx| {
            ctx.sleep(SimDuration::from_micros(1));
            let s3 = Arc::clone(&s2);
            ctx.handle().spawn("child", move |cctx| {
                cctx.sleep(SimDuration::from_micros(2));
                s3.fetch_add(cctx.now().as_nanos(), Ordering::Relaxed);
            });
            ctx.sleep(SimDuration::from_micros(10));
        });
        let end = sim.run().unwrap();
        assert_eq!(sum.load(Ordering::Relaxed), 3_000);
        assert_eq!(end.as_nanos(), 11_000);
    }

    #[test]
    fn process_panic_is_reported() {
        let mut sim = Simulation::new();
        sim.spawn("bad", |_| panic!("boom"));
        match sim.run() {
            Err(SimError::ProcessPanicked { name, message }) => {
                assert_eq!(name, "bad");
                assert!(message.contains("boom"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn event_limit_guard() {
        let mut sim = Simulation::new();
        sim.spawn("spin", |ctx| loop {
            ctx.sleep(SimDuration::from_nanos(1));
        });
        match sim.run_with_limit(100) {
            Err(SimError::EventLimit { .. }) => {}
            other => panic!("expected event-limit error, got {other:?}"),
        }
    }

    #[test]
    fn daemons_do_not_block_completion() {
        let mut sim = Simulation::new();
        let served = Arc::new(AtomicU64::new(0));
        // A daemon that would loop forever.
        {
            let served = Arc::clone(&served);
            sim.spawn_daemon("engine", move |ctx| loop {
                ctx.sleep(SimDuration::from_micros(1));
                served.fetch_add(1, Ordering::Relaxed);
                // Park forever after two ticks (idle engine).
                if served.load(Ordering::Relaxed) == 2 {
                    let _ = ctx.park();
                    unreachable!("daemon should be shut down while parked");
                }
            });
        }
        sim.spawn("worker", |ctx| ctx.sleep(SimDuration::from_micros(10)));
        let end = sim.run().unwrap();
        assert_eq!(end.as_nanos(), 10_000);
        assert_eq!(served.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn deadlock_reports_only_non_daemons() {
        let mut sim = Simulation::new();
        sim.spawn_daemon("idle-engine", |ctx| {
            let _ = ctx.park();
        });
        sim.spawn("stuck", |ctx| {
            let _ = ctx.park(); // nobody will wake us
        });
        match sim.run() {
            Err(SimError::Deadlock { parked, .. }) => {
                assert_eq!(parked, vec!["stuck".to_string()]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn proc_stats_account_runtime_and_wakeups() {
        let mut sim = Simulation::new();
        sim.spawn("worker", |ctx| {
            ctx.sleep(SimDuration::from_micros(10));
            ctx.sleep(SimDuration::from_micros(5));
        });
        sim.run().unwrap();
        let procs = sim.proc_stats();
        assert_eq!(procs.len(), 1);
        assert_eq!(procs[0].name, "worker");
        // Runtime = the two charged sleeps; wakeups = Start + 2 sleeps.
        assert_eq!(procs[0].runtime, SimDuration::from_micros(15));
        assert_eq!(procs[0].wakeups, 3);
        assert_eq!(sim.sched_stats().wakeups, 3);
    }

    #[test]
    fn proc_stats_of_interleaved_sleep_and_yield() {
        let mut sim = Simulation::new();
        for name in ["a", "b"] {
            sim.spawn(name, |ctx| {
                for _ in 0..4 {
                    ctx.sleep(SimDuration::from_micros(3));
                    ctx.yield_now();
                }
            });
        }
        sim.run().unwrap();
        // Runtime = four 3 µs sleeps; wakeups = Start + 4 sleeps + 4 yields.
        let want = |pid, name: &str| ProcStats {
            pid,
            name: name.to_string(),
            daemon: false,
            runtime: SimDuration::from_micros(12),
            wakeups: 9,
        };
        assert_eq!(sim.proc_stats(), vec![want(0, "a"), want(1, "b")]);
        assert_eq!(sim.sched_stats().events_processed, 18);
    }

    #[test]
    fn trace_records_spans_and_names() {
        use crate::trace::{TraceConfig, TraceKind, TraceLayer, TraceTag};
        let mut sim =
            Simulation::with_config_and_trace(SchedConfig, Some(TraceConfig::default()));
        sim.spawn("worker", |ctx| {
            ctx.sleep(SimDuration::from_micros(2));
            ctx.trace_span(
                TraceLayer::Kernel,
                TraceKind::Syscall,
                SimDuration::from_micros(2),
                TraceTag::bytes(4),
            );
        });
        sim.run().unwrap();
        let data = sim.take_trace().expect("tracing was enabled");
        assert_eq!(data.names, vec![(0, "worker".to_string())]);
        assert_eq!(data.events.len(), 1);
        let e = data.events[0];
        assert_eq!(e.start_ns, 0);
        assert_eq!(e.dur_ns, 2_000);
        assert_eq!(e.pid, 0);
        assert_eq!(e.kind, TraceKind::Syscall);
        assert_eq!(e.tag.value, 4);
        // Untraced simulations report no data.
        let mut plain = Simulation::new();
        plain.spawn("idle", |_| {});
        plain.run().unwrap();
        assert!(plain.take_trace().is_none());
    }

    #[test]
    fn yield_now_interleaves() {
        let mut sim = Simulation::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for name in ["x", "y"] {
            let log = Arc::clone(&log);
            sim.spawn(name, move |ctx| {
                for _ in 0..2 {
                    log.lock().push(name);
                    ctx.yield_now();
                }
            });
        }
        sim.run().unwrap();
        assert_eq!(log.lock().clone(), vec!["x", "y", "x", "y"]);
    }
}
