//! The microbenchmarks of Section 5.2: ping-pong latency and
//! unidirectional bandwidth, for every transport variant in Figure 6.
//!
//! Each measurement point runs in a **fresh simulation** (fully
//! deterministic, no cross-talk between points). "TCP" means TCP over the
//! LANE driver on cLAN, as in the paper's Figure 6.

use std::sync::Arc;

use dsim::{
    ProcStats, SchedConfig, SchedStats, SimDuration, Simulation, TraceConfig, TraceData, TraceKind,
    TraceLayer, TraceTag,
};
use parking_lot::Mutex;
use simos::HostId;
use sockets::{api, SockAddr, SockOption, SockType};
use sovia::SoviaConfig;
use sovia_repro::testbed;
use via::{Descriptor, MemRegion, ViAttributes, ViaNic, ViaNicId, WaitMode};

/// The transport variants of Figure 6.
#[derive(Debug, Clone)]
pub enum Variant {
    /// TCP over the LANE kernel driver on cLAN (`TCP_NODELAY` for latency).
    TcpLane,
    /// Raw VIPL (no sockets layer at all).
    NativeVia,
    /// SOVIA with a given configuration (the SINGLE/HANDLER/FLOWCTRL/
    /// DACKS/COMBINE ladder).
    Sovia(SoviaConfig),
}

impl Variant {
    /// Label used in the printed tables.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::TcpLane => "TCP",
            Variant::NativeVia => "NATIVE_VIA",
            Variant::Sovia(c) => {
                if c.mode == sovia::ReceiveMode::HandlerThread {
                    "SOVIA_HANDLER"
                } else if c.combine_small {
                    "SOVIA_COMBINE"
                } else if c.delayed_acks {
                    "SOVIA_DACKS"
                } else if c.flow_control {
                    "SOVIA_FLOWCTRL"
                } else {
                    "SOVIA_SINGLE"
                }
            }
        }
    }
}

/// One measured series: `(message size, value)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Series label (the figure legend entry).
    pub name: String,
    /// Measurement points.
    pub points: Vec<(usize, f64)>,
}

const PORT: u16 = 9000;

/// What a measurement point does with its connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Figure 6(a): one warm-up exchange, then `rounds` timed round
    /// trips; the value is half the mean round-trip time, in µs.
    PingPong {
        /// Timed round trips.
        rounds: u32,
    },
    /// Figure 6(b): stream `total` bytes one way; the value is the
    /// steady-state bandwidth, in Mb/s.
    Stream {
        /// Bytes streamed (rounded up to whole messages).
        total: usize,
    },
}

/// One measurement point: everything [`run`] needs.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Transport under test.
    pub variant: Variant,
    /// Message size in bytes.
    pub size: usize,
    /// Ping-pong or stream.
    pub load: Load,
    /// Tracing, when the caller wants the trace back in
    /// [`RunOutput::trace`].
    pub trace: Option<TraceConfig>,
}

impl RunSpec {
    /// A Figure 6(a) ping-pong point, untraced.
    pub fn latency(variant: Variant, size: usize, rounds: u32) -> RunSpec {
        RunSpec::with_load(variant, size, Load::PingPong { rounds })
    }

    /// A Figure 6(b) stream point, untraced.
    pub fn stream(variant: Variant, size: usize, total: usize) -> RunSpec {
        RunSpec::with_load(variant, size, Load::Stream { total })
    }

    fn with_load(variant: Variant, size: usize, load: Load) -> RunSpec {
        RunSpec {
            variant,
            size,
            load,
            trace: None,
        }
    }
}

/// Everything one measurement simulation reports.
///
/// Tracing observes, never perturbs: `value`, `stats` and `procs` are
/// identical whether the run was traced or not.
#[derive(Debug, Clone)]
pub struct RunOutput<T = f64> {
    /// The measured result (µs for ping-pong runs, Mb/s for streams).
    pub value: T,
    /// Whole-simulation scheduler counters.
    pub stats: SchedStats,
    /// Per-process virtual run-time / wakeup accounting, pid order.
    pub procs: Vec<ProcStats>,
    /// The recorded trace, when tracing was enabled.
    pub trace: Option<TraceData>,
}

/// Emit a measurement-window marker (a zero-width instant: no virtual
/// time passes, so marks never perturb a measurement).
pub(crate) fn mark(ctx: &dsim::SimCtx, kind: TraceKind) {
    ctx.trace_instant(TraceLayer::App, kind, TraceTag::default());
}

/// The tail every measurement shares: build the simulation, let `setup`
/// spawn its processes (they write the result into the shared slot),
/// run it, then collect the result, counters and trace.
pub(crate) fn simulate<T: Copy + Default + Send + 'static>(
    trace: Option<TraceConfig>,
    what: &str,
    setup: impl FnOnce(&mut Simulation, &Arc<Mutex<T>>),
) -> RunOutput<T> {
    let mut sim = Simulation::with_config_and_trace(SchedConfig, trace);
    let out = Arc::new(Mutex::new(T::default()));
    setup(&mut sim, &out);
    if let Err(e) = sim.run() {
        panic!("{what} simulation failed: {e:?}");
    }
    let value = *out.lock();
    RunOutput {
        value,
        stats: sim.sched_stats(),
        procs: sim.proc_stats(),
        trace: sim.take_trace(),
    }
}

/// Run one measurement point in a fresh simulation. The timed interval
/// is bracketed by [`TraceKind::MarkStart`] / [`TraceKind::MarkEnd`] App
/// instants, so a traced run's measurement window is exactly the
/// interval the value comes from.
pub fn run(spec: &RunSpec) -> RunOutput {
    match (&spec.variant, spec.load) {
        (Variant::NativeVia, Load::PingPong { rounds }) => native_via_latency(spec, rounds),
        (Variant::NativeVia, Load::Stream { total }) => native_via_bandwidth(spec, total),
        (_, Load::PingPong { rounds }) => socket_latency(spec, rounds),
        (_, Load::Stream { total }) => socket_bandwidth(spec, total),
    }
}

/// The socket type a sockets-based variant opens.
fn sock_type(variant: &Variant) -> SockType {
    match variant {
        Variant::Sovia(_) => SockType::Via,
        _ => SockType::Stream,
    }
}

/// Start `run` on the machine pair `variant` selects: a SOVIA pair, or
/// TCP over LANE on the dual-stack cLAN pair.
fn start_socket_pair(
    sim: &mut Simulation,
    variant: &Variant,
    run: impl FnOnce(&dsim::SimCtx, simos::Machine, simos::Machine) + Send + 'static,
) {
    match variant {
        Variant::Sovia(cfg) => {
            let (m0, m1) = testbed::sovia_pair(&sim.handle(), cfg.clone());
            sim.spawn("bootstrap", move |ctx| run(ctx, m0, m1));
        }
        _ => testbed::clan_dual_stack(sim, SoviaConfig::combine(), run),
    }
}

// ----- sockets-based (TCP / SOVIA) ------------------------------------------

/// The Figure 6(a) ping-pong workload over the sockets API.
fn socket_latency(spec: &RunSpec, rounds: u32) -> RunOutput {
    let size = spec.size;
    let stype = sock_type(&spec.variant);
    simulate(spec.trace, "latency", |sim, out| {
        let out = Arc::clone(out);
        start_socket_pair(sim, &spec.variant, move |ctx, m0, m1| {
            let (cp, sp) = testbed::procs(&m0, &m1);
            // Server: echo `rounds + 1` messages (one warm-up).
            {
                let h = ctx.handle().clone();
                h.spawn("pong", move |sctx| {
                    let s = api::socket(sctx, &sp, stype).unwrap();
                    api::bind(sctx, &sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
                    api::listen(sctx, &sp, s, 1).unwrap();
                    let (c, _) = api::accept(sctx, &sp, s).unwrap();
                    // The paper's latency figure runs TCP with TCP_NODELAY;
                    // SOVIA variants keep their configured behavior (the
                    // COMBINE series exists to show the timer cost).
                    if stype == SockType::Stream {
                        api::set_option(sctx, &sp, c, SockOption::NoDelay(true)).unwrap();
                    }
                    for _ in 0..=rounds {
                        let msg = api::recv_exact(sctx, &sp, c, size).unwrap();
                        if msg.len() < size {
                            break;
                        }
                        api::send_all(sctx, &sp, c, &msg).unwrap();
                    }
                    api::close(sctx, &sp, c).unwrap();
                    api::close(sctx, &sp, s).unwrap();
                });
            }
            let out = Arc::clone(&out);
            ctx.handle().spawn("ping", move |cctx| {
                cctx.sleep(SimDuration::from_millis(1));
                let s = api::socket(cctx, &cp, stype).unwrap();
                api::connect(cctx, &cp, s, SockAddr::new(HostId(1), PORT)).unwrap();
                if stype == SockType::Stream {
                    api::set_option(cctx, &cp, s, SockOption::NoDelay(true)).unwrap();
                }
                let msg = vec![0xA5u8; size];
                // Warm-up.
                api::send_all(cctx, &cp, s, &msg).unwrap();
                let _ = api::recv_exact(cctx, &cp, s, size).unwrap();
                mark(cctx, TraceKind::MarkStart);
                let t0 = cctx.now();
                for _ in 0..rounds {
                    api::send_all(cctx, &cp, s, &msg).unwrap();
                    let _ = api::recv_exact(cctx, &cp, s, size).unwrap();
                }
                mark(cctx, TraceKind::MarkEnd);
                let rtt_us = cctx.now().since(t0).as_micros_f64() / f64::from(rounds);
                *out.lock() = rtt_us / 2.0;
                api::close(cctx, &cp, s).unwrap();
            });
        });
    })
}

/// The Figure 6(b) stream workload over the sockets API.
fn socket_bandwidth(spec: &RunSpec, total: usize) -> RunOutput {
    let size = spec.size;
    let stype = sock_type(&spec.variant);
    let msgs = total.div_ceil(size);
    let total = msgs * size;
    simulate(spec.trace, "bandwidth", |sim, out| {
        let out = Arc::clone(out);
        start_socket_pair(sim, &spec.variant, move |ctx, m0, m1| {
            let (cp, sp) = testbed::procs(&m0, &m1);
            {
                // Steady-state bandwidth is measured at the sink, from the
                // first to the last received byte. The paper streams "for
                // a given time", amortizing TCP's Nagle/delayed-ACK tail
                // stall; a finite transfer must exclude that tail instead.
                let out = Arc::clone(&out);
                let h = ctx.handle().clone();
                h.spawn("sink", move |sctx| {
                    let s = api::socket(sctx, &sp, stype).unwrap();
                    api::bind(sctx, &sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
                    api::listen(sctx, &sp, s, 1).unwrap();
                    let (c, _) = api::accept(sctx, &sp, s).unwrap();
                    // The paper's footnote: socket buffer raised to the
                    // maximum (131,170) for the bandwidth measurement.
                    api::set_option(sctx, &sp, c, SockOption::RecvBuf(131_170)).unwrap();
                    // Steady-state window: time the last 75% of the
                    // bytes, skipping connection ramp (slow start, the
                    // first Nagle/delayed-ACK interlock).
                    let skip = total / 4;
                    let mut got = 0usize;
                    let mut mark: Option<(dsim::SimTime, usize)> = None;
                    let mut t_last = sctx.now();
                    while got < total {
                        let d = api::recv(sctx, &sp, c, 16 * 1024).unwrap();
                        if d.is_empty() {
                            break;
                        }
                        got += d.len();
                        t_last = sctx.now();
                        if mark.is_none() && got >= skip {
                            mark = Some((t_last, got));
                            self::mark(sctx, TraceKind::MarkStart);
                        }
                    }
                    self::mark(sctx, TraceKind::MarkEnd);
                    if let Some((t_mark, got_mark)) = mark {
                        let secs = t_last.since(t_mark).as_secs_f64();
                        if secs > 0.0 {
                            *out.lock() = (got - got_mark) as f64 * 8.0 / secs / 1e6;
                        }
                    }
                    // The terminating application-level acknowledgment.
                    api::send_all(sctx, &sp, c, b"A").unwrap();
                    api::close(sctx, &sp, c).unwrap();
                    api::close(sctx, &sp, s).unwrap();
                });
            }
            ctx.handle().spawn("source", move |cctx| {
                cctx.sleep(SimDuration::from_millis(1));
                let s = api::socket(cctx, &cp, stype).unwrap();
                api::set_option(cctx, &cp, s, SockOption::SendBuf(131_170)).unwrap();
                api::connect(cctx, &cp, s, SockAddr::new(HostId(1), PORT)).unwrap();
                let msg = vec![0x5Au8; size];
                for _ in 0..msgs {
                    api::send_all(cctx, &cp, s, &msg).unwrap();
                }
                // Wait for the receiver's acknowledgment (paper method).
                let _ = api::recv_exact(cctx, &cp, s, 1).unwrap();
                api::close(cctx, &cp, s).unwrap();
            });
        });
    })
}

// ----- native VIA (raw VIPL) --------------------------------------------------

fn native_via_latency(spec: &RunSpec, rounds: u32) -> RunOutput {
    let size = spec.size;
    simulate(spec.trace, "native VIA latency", |sim, out| {
        let (m0, m1) = testbed::clan_pair(&sim.handle());
        let n0 = ViaNic::of(&m0);
        let n1 = ViaNic::of(&m1);
        let cap = size.max(64);
        {
            let n1 = Arc::clone(&n1);
            let m1 = m1.clone();
            sim.spawn("pong", move |ctx| {
                let p = m1.spawn_process("pong");
                let vi = n1.create_vi(ViAttributes::default());
                n1.listen(1);
                let va = p.alloc(ctx, cap.max(4096));
                let region = MemRegion::register(ctx, &p, va, cap.max(4096));
                for _ in 0..=rounds + 1 {
                    vi.post_recv(ctx, Descriptor::recv(Arc::clone(&region), 0, cap))
                        .unwrap();
                }
                let pending = n1.connect_wait(ctx, 1);
                n1.connect_accept(ctx, &pending, &vi).unwrap();
                let sva = p.alloc(ctx, cap.max(4096));
                let sregion = MemRegion::register(ctx, &p, sva, cap.max(4096));
                for _ in 0..=rounds {
                    let _ = vi.recv_wait(ctx, WaitMode::Poll).unwrap();
                    vi.post_send(ctx, Descriptor::send(Arc::clone(&sregion), 0, size, None))
                        .unwrap();
                }
            });
        }
        {
            let n0 = Arc::clone(&n0);
            let m0 = m0.clone();
            let out = Arc::clone(out);
            sim.spawn("ping", move |ctx| {
                let p = m0.spawn_process("ping");
                let vi = n0.create_vi(ViAttributes::default());
                let va = p.alloc(ctx, cap.max(4096));
                let region = MemRegion::register(ctx, &p, va, cap.max(4096));
                for _ in 0..=rounds + 1 {
                    vi.post_recv(ctx, Descriptor::recv(Arc::clone(&region), 0, cap))
                        .unwrap();
                }
                ctx.sleep(SimDuration::from_millis(1));
                n0.connect_request(ctx, &vi, ViaNicId(1), 1).unwrap();
                let sva = p.alloc(ctx, cap.max(4096));
                let sregion = MemRegion::register(ctx, &p, sva, cap.max(4096));
                // Warm-up round.
                vi.post_send(ctx, Descriptor::send(Arc::clone(&sregion), 0, size, None))
                    .unwrap();
                let _ = vi.recv_wait(ctx, WaitMode::Poll).unwrap();
                mark(ctx, TraceKind::MarkStart);
                let t0 = ctx.now();
                for _ in 0..rounds {
                    vi.post_send(ctx, Descriptor::send(Arc::clone(&sregion), 0, size, None))
                        .unwrap();
                    let _ = vi.recv_wait(ctx, WaitMode::Poll).unwrap();
                }
                mark(ctx, TraceKind::MarkEnd);
                let rtt_us = ctx.now().since(t0).as_micros_f64() / f64::from(rounds);
                *out.lock() = rtt_us / 2.0;
            });
        }
    })
}

fn native_via_bandwidth(spec: &RunSpec, total: usize) -> RunOutput {
    let size = spec.size;
    let slot = size.max(64);
    let msgs = total.div_ceil(size);
    let total = msgs * size;
    // A descriptor ring deep enough to keep the NIC busy.
    let ring = 64usize.min(msgs + 1);
    simulate(spec.trace, "native VIA bandwidth", |sim, out| {
        let (m0, m1) = testbed::clan_pair(&sim.handle());
        let n0 = ViaNic::of(&m0);
        let n1 = ViaNic::of(&m1);
        {
            let n1 = Arc::clone(&n1);
            let m1 = m1.clone();
            sim.spawn("sink", move |ctx| {
                let p = m1.spawn_process("sink");
                let vi = n1.create_vi(ViAttributes::default());
                n1.listen(1);
                let va = p.alloc(ctx, ring * slot);
                let region = MemRegion::register(ctx, &p, va, ring * slot);
                for i in 0..ring {
                    vi.post_recv(ctx, Descriptor::recv(Arc::clone(&region), i * slot, slot))
                        .unwrap();
                }
                let pending = n1.connect_wait(ctx, 1);
                n1.connect_accept(ctx, &pending, &vi).unwrap();
                for _ in 0..msgs {
                    let done = vi.recv_wait(ctx, WaitMode::Poll).unwrap();
                    // Recycle the descriptor's slot immediately.
                    let fresh = Descriptor::recv(Arc::clone(&done.region), done.offset, slot);
                    vi.post_recv(ctx, fresh).unwrap();
                }
            });
        }
        {
            let n0 = Arc::clone(&n0);
            let m0 = m0.clone();
            let out = Arc::clone(out);
            sim.spawn("source", move |ctx| {
                let p = m0.spawn_process("source");
                let vi = n0.create_vi(ViAttributes::default());
                ctx.sleep(SimDuration::from_millis(1));
                n0.connect_request(ctx, &vi, ViaNicId(1), 1).unwrap();
                let va = p.alloc(ctx, slot);
                let region = MemRegion::register(ctx, &p, va, slot);
                mark(ctx, TraceKind::MarkStart);
                let t0 = ctx.now();
                let mut outstanding = 0usize;
                for _ in 0..msgs {
                    // Keep up to `ring` sends in flight without overrunning
                    // the receiver's descriptor recycling.
                    while outstanding >= ring - 1 {
                        let _ = vi.send_wait(ctx, WaitMode::Poll).unwrap();
                        outstanding -= 1;
                    }
                    vi.post_send(ctx, Descriptor::send(Arc::clone(&region), 0, size, None))
                        .unwrap();
                    outstanding += 1;
                }
                while outstanding > 0 {
                    let _ = vi.send_wait(ctx, WaitMode::Poll).unwrap();
                    outstanding -= 1;
                }
                mark(ctx, TraceKind::MarkEnd);
                let secs = ctx.now().since(t0).as_secs_f64();
                *out.lock() = total as f64 * 8.0 / secs / 1e6;
            });
        }
    })
}

/// Render a figure-style table: one row per size, one column per series.
pub fn render_table(title: &str, unit: &str, sizes: &[usize], series: &[Series]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let width = series.iter().map(|s| s.name.len() + 3).max().unwrap_or(15).max(15);
    let _ = write!(out, "{:>8}", "size");
    for s in series {
        let _ = write!(out, "{:>width$}", s.name);
    }
    let _ = writeln!(out, "    ({unit})");
    for (i, size) in sizes.iter().enumerate() {
        let _ = write!(out, "{size:>8}");
        for s in series {
            let _ = write!(out, "{:>width$.1}", s.points[i].1);
        }
        let _ = writeln!(out);
    }
    out
}
