//! One measurement point: its specification, the host-side state its
//! simulation processes report into, and [`run_point`], which builds a
//! fresh [`Simulation`], runs it under an event budget and a panic guard,
//! and times every phase on the host clock.

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use bench::fig7::RpcPlatform;
use bench::micro::Variant;
use bench::table1::Platform;
use dsim::{SchedConfig, SchedStats, SimError, Simulation, TraceConfig};
use simnic::{FaultHandle, FaultStats};
use simos::Machine;
use via::ViaNic;

use crate::probe::Probe;
use crate::traces::TraceCounts;

/// What a point simulates.
#[derive(Debug, Clone)]
pub enum Kind {
    /// Figure 6(a) ping-pong: `rounds` timed echoes of `size` bytes.
    PingPong {
        /// Transport series.
        variant: Variant,
        /// Message bytes.
        size: usize,
        /// Timed rounds (after one warm-up round).
        rounds: u32,
    },
    /// Figure 6(b) unidirectional stream of `total` bytes in `size`-byte sends.
    Stream {
        /// Transport series.
        variant: Variant,
        /// Bytes per send.
        size: usize,
        /// Bytes streamed.
        total: usize,
    },
    /// Figure 7: `calls` timed echo RPCs with an `arg_len`-byte argument.
    Rpc {
        /// Transport platform.
        platform: RpcPlatform,
        /// Argument bytes (0 = void argument).
        arg_len: usize,
        /// Timed calls (after one warm-up call).
        calls: u32,
    },
    /// Table 1: one FTP `RETR` of a `file_len`-byte file (or the local
    /// ramdisk copy for [`Platform::LocalCopy`]).
    Ftp {
        /// Transport platform.
        platform: Platform,
        /// File bytes.
        file_len: u64,
    },
    /// TCP over Fast Ethernet streaming `total` bytes in `msg`-byte sends
    /// with per-frame drop probability `loss_p` on the data direction.
    Lossy {
        /// Frame drop probability.
        loss_p: f64,
        /// Bytes per send.
        msg: usize,
        /// Bytes streamed.
        total: usize,
    },
}

impl Kind {
    /// Which transport family the point's socket calls use, for the
    /// `.tcp` / `.sovia` split of the per-call host metrics.
    pub fn transport(&self) -> Transport {
        match self {
            Kind::PingPong { variant, .. } | Kind::Stream { variant, .. } => match variant {
                Variant::TcpLane => Transport::Tcp,
                Variant::NativeVia => Transport::Native,
                Variant::Sovia(_) => Transport::Sovia,
            },
            Kind::Rpc { platform, .. } => match platform {
                RpcPlatform::SoviaClan => Transport::Sovia,
                _ => Transport::Tcp,
            },
            Kind::Ftp { platform, .. } => match platform {
                Platform::SoviaClan => Transport::Sovia,
                Platform::LocalCopy => Transport::None,
                _ => Transport::Tcp,
            },
            Kind::Lossy { .. } => Transport::Tcp,
        }
    }
}

/// Transport family of a point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Kernel TCP (LANE or Fast Ethernet).
    Tcp,
    /// SOVIA sockets over VIA.
    Sovia,
    /// Raw VIPL, no sockets layer.
    Native,
    /// No network at all (local copy).
    None,
}

/// A golden cell in `results/<file>`: the row/series label and the
/// size (message bytes, argument bytes, or file number for Table 1).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cell {
    /// File name under `results/`.
    pub file: &'static str,
    /// Series (column) or row label.
    pub series: String,
    /// Size key.
    pub size: usize,
}

/// What a point's simulated value is compared with for `paper_err_pct`.
#[derive(Debug, Clone)]
pub enum Reference {
    /// A number the paper states (EXPERIMENTS.md).
    Paper(f64),
    /// The committed full-length figure value for the same cell.
    Figure(Cell),
}

/// Deliberate damage to a point's traffic, for the benchmark's own tests
/// of its failure accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sabotage {
    /// Honest traffic.
    #[default]
    None,
    /// Flip one payload byte in flight (stream points).
    Corrupt,
    /// Send one message fewer than promised, then close (stream points).
    Short,
}

/// A measurement point.
#[derive(Debug, Clone)]
pub struct PointSpec {
    /// Unique label, `<figure>/<series>/<size>`.
    pub label: String,
    /// What to simulate.
    pub kind: Kind,
    /// Golden cell this point must reproduce digit for digit.
    pub golden: Option<Cell>,
    /// Reference for `paper_err_pct`.
    pub reference: Option<Reference>,
    /// Event budget for `run_with_limit`: a runaway point fails instead
    /// of hanging.
    pub event_budget: u64,
    /// Test-only traffic damage.
    pub sabotage: Sabotage,
}

impl PointSpec {
    /// Whether the point's simulation depends on the seed beyond payload
    /// bytes (the lossy points' fault schedule).
    pub fn seeded_faults(&self) -> bool {
        matches!(self.kind, Kind::Lossy { .. })
    }
}

/// Why a point failed.
#[derive(Debug, Clone, PartialEq)]
pub enum PointError {
    /// The simulation itself failed (deadlock, event budget, a process
    /// panicked).
    Sim(SimError),
    /// The driver panicked outside any simulation process.
    Panic(String),
    /// A call into a layer returned an error.
    Call {
        /// Which call.
        op: &'static str,
        /// The layer's error, rendered.
        err: String,
    },
    /// Fewer bytes arrived than were sent.
    Short {
        /// Bytes expected.
        want: u64,
        /// Bytes received.
        got: u64,
    },
    /// A received byte differs from the seeded pattern.
    Corrupt {
        /// Stream offset of the first bad byte.
        offset: u64,
    },
    /// An RPC echo returned the wrong length.
    BadEcho {
        /// Argument length sent.
        want: i64,
        /// Length echoed.
        got: i64,
    },
    /// The simulation finished without reporting a measurement.
    NoResult,
}

impl fmt::Display for PointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PointError::Sim(e) => write!(f, "simulation failed: {e}"),
            PointError::Panic(m) => write!(f, "driver panicked: {m}"),
            PointError::Call { op, err } => write!(f, "{op} failed: {err}"),
            PointError::Short { want, got } => write!(f, "short delivery: {got} of {want} bytes"),
            PointError::Corrupt { offset } => write!(f, "corrupt byte at stream offset {offset}"),
            PointError::BadEcho { want, got } => write!(f, "RPC echoed {got}, sent {want}"),
            PointError::NoResult => f.write_str("no measurement reported"),
        }
    }
}

/// Convert a layer's `Result` into a [`PointError::Call`] naming the call.
pub trait At<T> {
    /// Tag the error with the call `op`.
    fn at(self, op: &'static str) -> Result<T, PointError>;
}

impl<T, E: fmt::Debug> At<T> for Result<T, E> {
    fn at(self, op: &'static str) -> Result<T, PointError> {
        self.map_err(|e| PointError::Call {
            op,
            err: format!("{e:?}"),
        })
    }
}

/// What a driver reports once its measurement is done.
#[derive(Debug, Clone, Copy, Default)]
pub struct Measured {
    /// The simulated metric (µs, Mb/s, ...).
    pub value: f64,
    /// A second simulated number where the figure prints one (Table 1
    /// seconds, the lossy points' longest stall in µs).
    pub aux: f64,
    /// Application messages sent (sends, or calls, or chunks).
    pub msgs: u64,
    /// Payload bytes delivered and verified.
    pub bytes: u64,
}

/// Host-side state shared between the driver's simulation processes and
/// [`run_point`].
pub struct Shared {
    /// Per-call host-clock accumulators (active only on traced passes).
    pub probe: Probe,
    window: OnceLock<Instant>,
    failure: Mutex<Option<PointError>>,
    measured: Mutex<Option<Measured>>,
    machines: Mutex<Vec<Machine>>,
    faults: Mutex<Vec<FaultHandle>>,
}

impl Shared {
    fn new(probes: bool) -> Shared {
        Shared {
            probe: Probe::new(probes),
            window: OnceLock::new(),
            failure: Mutex::new(None),
            measured: Mutex::new(None),
            machines: Mutex::new(Vec::new()),
            faults: Mutex::new(Vec::new()),
        }
    }

    /// Mark the host instant the measurement window opens: everything
    /// before it is the point's set-up.
    pub fn open_window(&self) {
        let _ = self.window.set(Instant::now());
    }

    /// Record a failure (the first one wins: later ones are fallout).
    pub fn fail(&self, e: PointError) {
        let mut g = self.failure.lock().expect("failure slot poisoned");
        if g.is_none() {
            *g = Some(e);
        }
    }

    /// Run a simulation process body, recording its error.
    pub fn guard(&self, body: impl FnOnce() -> Result<(), PointError>) {
        if let Err(e) = body() {
            self.fail(e);
        }
    }

    /// Report the point's measurement.
    pub fn report(&self, m: Measured) {
        *self.measured.lock().expect("measurement slot poisoned") = Some(m);
    }

    /// Keep the platform's machines for post-run NIC accounting.
    pub fn keep(&self, machines: &[&Machine]) {
        let mut g = self.machines.lock().expect("machine list poisoned");
        g.extend(machines.iter().map(|m| (*m).clone()));
    }

    /// Keep a fault lane for post-run fault accounting.
    pub fn keep_faults(&self, f: FaultHandle) {
        self.faults.lock().expect("fault list poisoned").push(f);
    }
}

/// Frame counters of the VIA NICs of a point (both hosts).
#[derive(Debug, Clone, Copy, Default)]
pub struct NicCounts {
    /// Data frames transmitted.
    pub frames: u64,
    /// Payload bytes transmitted.
    pub bytes: u64,
    /// Arrivals dropped (no descriptor, or unknown VI).
    pub rx_drops: u64,
}

/// Everything one run of one point produced.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// The measurement, or why there is none.
    pub outcome: Result<Measured, PointError>,
    /// Scheduler counters.
    pub sched: SchedStats,
    /// Host time before the measurement window opened.
    pub setup: Duration,
    /// Host time dropping the `Simulation` and its platform.
    pub teardown: Duration,
    /// Host time of the whole point.
    pub wall: Duration,
    /// Per-call host time, per slot.
    pub probe: crate::probe::Totals,
    /// Trace counters (traced runs only).
    pub trace: Option<TraceCounts>,
    /// VIA NIC counters.
    pub nic: NicCounts,
    /// Fault-lane counters, summed over the point's lanes.
    pub faults: FaultStats,
}

impl PointRun {
    /// Whether the point failed.
    pub fn failed(&self) -> bool {
        self.outcome.is_err()
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one point in a fresh simulation.
///
/// `trace_capacity` switches tracing on (probes and the dsim trace ring
/// together); `None` is the untraced configuration every end-to-end
/// number comes from. Nothing here can hang or unwind: a deadlock, an
/// exhausted event budget, a panic or bad delivery becomes a
/// [`PointError`].
pub fn run_point(spec: &PointSpec, seed: u64, trace_capacity: Option<usize>) -> PointRun {
    let t0 = Instant::now();
    let sh = Arc::new(Shared::new(trace_capacity.is_some()));
    let mut sched = SchedStats::default();
    let mut trace = None;
    let mut nic = NicCounts::default();
    let mut faults = FaultStats::default();
    let mut t_run = None;
    let mut t_dropped = None;
    let body = panic::catch_unwind(AssertUnwindSafe(|| {
        let config = trace_capacity.map(|capacity| TraceConfig { capacity });
        let mut sim = Simulation::with_config_and_trace(SchedConfig::default(), config);
        crate::drivers::build(spec, seed, &sim, &sh);
        let ran = sim.run_with_limit(spec.event_budget);
        t_run = Some(Instant::now());
        sched = sim.sched_stats();
        trace = sim.take_trace().map(|t| TraceCounts::of(&t));
        for m in sh.machines.lock().expect("machine list poisoned").drain(..) {
            if let Some(n) = m.ext().get::<ViaNic>() {
                let s = n.stats();
                nic.frames += s.tx_frames;
                nic.bytes += s.tx_bytes;
                nic.rx_drops += s.rx_drops_no_descriptor + s.rx_drops_bad_vi;
            }
        }
        for f in sh.faults.lock().expect("fault list poisoned").drain(..) {
            let s = f.stats();
            faults.frames += s.frames;
            faults.dropped += s.dropped;
        }
        drop(sim);
        t_dropped = Some(Instant::now());
        ran
    }));
    let t_end = Instant::now();
    let failure = sh.failure.lock().expect("failure slot poisoned").take();
    let measured = *sh.measured.lock().expect("measurement slot poisoned");
    let outcome = match (body, failure, measured) {
        (Err(p), _, _) => Err(PointError::Panic(panic_message(p.as_ref()))),
        (Ok(_), Some(e), _) => Err(e),
        (Ok(Err(e)), None, _) => Err(PointError::Sim(e)),
        (Ok(Ok(_)), None, None) => Err(PointError::NoResult),
        (Ok(Ok(_)), None, Some(m)) => Ok(m),
    };
    let t_run = t_run.unwrap_or(t_end);
    let window = sh.window.get().copied().unwrap_or(t_run).min(t_run);
    PointRun {
        outcome,
        sched,
        setup: window.saturating_duration_since(t0),
        teardown: t_dropped.unwrap_or(t_end).saturating_duration_since(t_run),
        wall: t_end.saturating_duration_since(t0),
        probe: sh.probe.totals(),
        trace,
        nic,
        faults,
    }
}
