//! Trace-layer regression tests: tracing must be an observability
//! no-op (same virtual-time results with tracing off, on, or ignored),
//! and the exported Chrome trace JSON must be byte-identical at any
//! host thread count and across repeated runs.

use bench::fault_sweep::{self, SWEEP_SEED};
use bench::fig7::{self, RpcPlatform};
use bench::micro::{self, Load, RunOutput, RunSpec, Variant};
use bench::table1::{self, Platform};
use bench::{breakdown, runner};
use dsim::{chrome_trace_json, SchedConfig, SchedStats, TraceConfig, TraceData};
use sovia::SoviaConfig;

const SCHED: SchedConfig = SchedConfig {
    direct_handoff: true,
};

fn variants() -> Vec<Variant> {
    vec![
        Variant::TcpLane,
        Variant::NativeVia,
        Variant::Sovia(SoviaConfig::single()),
    ]
}

/// Run `spec` under [`SCHED`] with tracing on.
fn traced(spec: RunSpec) -> RunOutput {
    micro::run(&RunSpec {
        sched: SCHED,
        trace: Some(TraceConfig::default()),
        ..spec
    })
}

/// Render every fig6a variant's traced 4-byte run into one Chrome JSON
/// document, fanning the simulations out over `threads` host threads.
fn traced_suite_json(threads: usize) -> String {
    let vs = variants();
    let parts: Vec<(String, dsim::TraceData)> = runner::par_map(&vs, threads, |_, v| {
        let out = traced(RunSpec::latency(v.clone(), 4, 8));
        (
            format!("{} 4B latency", v.label()),
            out.trace.expect("tracing was enabled"),
        )
    });
    chrome_trace_json(&parts)
}

/// The fig6a acceptance point: the exported trace JSON is byte-identical
/// at `--threads 1`, `2`, and `8`.
#[test]
fn trace_json_identical_across_thread_counts() {
    let base = traced_suite_json(1);
    assert!(base.contains("traceEvents"));
    for threads in [2, 8] {
        assert_eq!(
            base,
            traced_suite_json(threads),
            "trace JSON drifted at threads={threads}"
        );
    }
}

/// What one run reports, reduced to what tracing must not change (the
/// result's bits and the scheduler counters) plus the trace itself.
struct Observed {
    bits: Vec<u64>,
    stats: SchedStats,
    trace: Option<TraceData>,
}

impl Observed {
    fn of<T>(out: RunOutput<T>, bits: impl FnOnce(&T) -> Vec<u64>) -> Observed {
        Observed {
            bits: bits(&out.value),
            stats: out.stats,
            trace: out.trace,
        }
    }
}

type Row = (String, Box<dyn Fn(Option<TraceConfig>) -> Observed>);

/// Every point function that serves both traced and untraced callers:
/// each `micro::run` load on every variant, then one point each of
/// Figure 7, Table 1 and the fault sweep.
fn noop_rows() -> Vec<Row> {
    let mut rows: Vec<Row> = Vec::new();
    for (size, load) in [
        (64, Load::PingPong { rounds: 10 }),
        (4096, Load::Stream { total: 128 * 1024 }),
    ] {
        for variant in variants() {
            let spec = RunSpec {
                variant,
                size,
                load,
                sched: SCHED,
                trace: None,
            };
            let label = format!("{} {size}B {load:?}", spec.variant.label());
            rows.push((
                label,
                Box::new(move |trace| {
                    let out = micro::run(&RunSpec {
                        trace,
                        ..spec.clone()
                    });
                    Observed::of(out, |v| vec![v.to_bits()])
                }),
            ));
        }
    }
    for p in [
        RpcPlatform::TcpFastEthernet,
        RpcPlatform::TcpClan,
        RpcPlatform::SoviaClan,
    ] {
        rows.push((
            format!("{} 128B RPC", p.label()),
            Box::new(move |trace| {
                Observed::of(fig7::rpc_elapsed(p, 128, trace), |v| vec![v.to_bits()])
            }),
        ));
    }
    for p in [
        Platform::TcpFastEthernet,
        Platform::TcpClan,
        Platform::SoviaClan,
    ] {
        rows.push((
            format!("{} 256KiB FTP", p.label()),
            Box::new(move |trace| {
                Observed::of(table1::ftp_transfer(p, 256 * 1024, trace), |c| {
                    vec![c.mbps.to_bits(), c.secs.to_bits()]
                })
            }),
        ));
    }
    rows.push((
        "TCP stream, 1% frame loss".to_string(),
        Box::new(|trace| {
            let (p, trace) = fault_sweep::lossy_tcp_stream(
                0.01,
                SWEEP_SEED ^ 3,
                fault_sweep::STREAM_MSG,
                fault_sweep::STREAM_TOTAL,
                trace,
            );
            assert!(p.faults.dropped > 0, "the 1% loss point dropped nothing");
            Observed {
                bits: vec![
                    p.goodput_mbps.to_bits(),
                    p.max_stall_us.to_bits(),
                    p.faults.frames,
                    p.faults.dropped,
                ],
                stats: p.stats,
                trace,
            }
        }),
    ));
    rows
}

/// Enabling tracing (and then ignoring the buffer) changes nothing
/// simulated: for every row, the result bits and scheduler counters
/// match the untraced run, and the traced run captured events.
#[test]
fn tracing_enabled_is_a_virtual_time_noop() {
    for (label, run) in noop_rows() {
        let plain = run(None);
        let traced = run(Some(TraceConfig::default()));
        assert!(plain.trace.is_none(), "{label}: untraced run has a trace");
        assert_eq!(
            plain.bits, traced.bits,
            "{label}: tracing changed the measured result"
        );
        assert_eq!(
            plain.stats, traced.stats,
            "{label}: tracing changed the scheduler counters"
        );
        assert!(
            !traced.trace.expect("tracing was enabled").events.is_empty(),
            "{label}: traced run captured no events"
        );
    }
}

/// Traces are bit-reproducible: two identical traced runs produce the
/// same Chrome JSON byte for byte.
#[test]
fn trace_json_identical_across_repeated_runs() {
    let run = || {
        let out = traced(RunSpec::latency(
            Variant::Sovia(SoviaConfig::single()),
            64,
            8,
        ));
        chrome_trace_json(&[(
            "SOVIA 64B".to_string(),
            out.trace.expect("tracing was enabled"),
        )])
    };
    assert_eq!(run(), run(), "trace JSON drifted between identical runs");
}

/// The breakdown attribution is exhaustive (components sum exactly to
/// the measurement window, i.e. to the end-to-end latency) and shows the
/// paper's headline contrast: TCP's syscall+copy share is present, and
/// SOVIA's is visibly smaller.
#[test]
fn breakdown_sums_to_window_and_shows_sovia_contrast() {
    let rows = breakdown::latency_breakdown(4, 8);
    assert_eq!(rows.len(), 3);
    for r in &rows {
        let sum: u64 = r.attribution.by_component.iter().map(|(_, ns)| ns).sum();
        assert_eq!(
            sum, r.attribution.window_ns,
            "{}: attribution does not sum to the window",
            r.label
        );
        assert!(
            !r.procs.is_empty(),
            "{}: per-process accounting is empty",
            r.label
        );
        assert!(
            r.procs.iter().any(|p| p.wakeups > 0),
            "{}: no process recorded a wakeup",
            r.label
        );
    }
    let share = |r: &breakdown::VariantBreakdown| {
        (r.attribution.ns(breakdown::Component::Syscall)
            + r.attribution.ns(breakdown::Component::Copy)) as f64
            / r.attribution.window_ns as f64
    };
    let (tcp, sovia) = (&rows[0], &rows[2]);
    assert!(
        share(tcp) > 0.0,
        "TCP shows no syscall+copy time at all: {:?}",
        tcp.attribution
    );
    assert!(
        share(sovia) < share(tcp),
        "SOVIA's syscall+copy share ({:.3}) is not smaller than TCP's ({:.3})",
        share(sovia),
        share(tcp)
    );
    // The user-level library never crosses the kernel boundary on the
    // data path: SOVIA's syscall bucket is exactly zero.
    assert_eq!(
        sovia.attribution.ns(breakdown::Component::Syscall),
        0,
        "SOVIA charged data-path syscall time"
    );
}

/// fig6a's per-point virtual-time numbers are reproduced by the traced
/// window: window / (2 * rounds) equals the reported one-way latency.
#[test]
fn traced_window_reproduces_reported_latency() {
    for v in &variants() {
        let rounds = 8u32;
        let out = traced(RunSpec::latency(v.clone(), 4, rounds));
        let (w0, w1) = out
            .trace
            .as_ref()
            .unwrap()
            .window()
            .expect("measurement window marks missing");
        let us = (w1 - w0) as f64 / f64::from(rounds) / 2.0 / 1e3;
        let diff = (us - out.value).abs();
        assert!(
            diff < 1e-6,
            "{}: window-derived latency {us} != reported {}",
            v.label(),
            out.value
        );
    }
}
