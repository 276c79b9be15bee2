//! Host-performance report for the simulation substrate.
//!
//! Report sections, all written to `BENCH_substrate.json`:
//!
//! * **`handoff_pingpong`, `sovia_stream_fig6b`** — two fixed workloads
//!   timed as the fastest of [`REPS`] runs, with event throughput and the
//!   dispatch breakdown ([`dsim::SchedStats`]): handoffs and self-wakes.
//! * **`platform_setup`** — [`SETUP_REPS`] rounds of build, connect, one
//!   round trip and drop of the two cLAN platforms (`clan_dual_stack`
//!   with TCP over LANE, and `sovia_pair`): what a figure point pays
//!   before and after its traffic.
//! * **`fault_sweep`** — the goodput-vs-loss-rate sweep of
//!   [`bench::fault_sweep`]: kernel TCP streaming over a lossy Fast
//!   Ethernet link, with per-point goodput, recovery latency, and fault
//!   counters (bit-reproducible for a fixed (seed, plan)).
//! * **`latency_breakdown`** — the traced per-layer decomposition of the
//!   4-byte round-trip ([`bench::breakdown`]): per-component µs that sum
//!   exactly to the Figure 6(a) one-way latency, plus per-process
//!   virtual-runtime / wakeup accounting ([`dsim::ProcStats`]) for each
//!   variant's simulation.
//!
//!   cargo run -p bench --release --bin perf_report -- \
//!   [--out PATH] [--threads N] [--trace out.json]
//!
//! `scripts/bench.sh` wraps this and compares against the committed
//! baseline, matching scenarios by name (each scenario's `gate_wall_ms`
//! is its regression-gated handle).
//! `--trace` additionally writes the breakdown runs as a Chrome
//! trace-event (Perfetto) JSON file. The end-to-end host cost of the
//! paper's figure points is measured by `hostbench/` (`BENCHMARK.json`),
//! not here.

use std::sync::Arc;
use std::time::Instant;

use bench::micro::{self, RunSpec, Variant};
use bench::{breakdown, cli, figures};
use dsim::sync::SimQueue;
use dsim::{SchedStats, Simulation};
use sovia::SoviaConfig;

/// Ping-pong rounds for the handoff microbenchmark.
const PINGPONG_ROUNDS: u32 = 20_000;
/// Message size / total bytes for the Figure 6(b)-style stream workload.
const STREAM_MSG: usize = 32 * 1024;
const STREAM_TOTAL: usize = 32 * 1024 * 1024;
/// Timed repetitions per measurement (minimum taken).
const REPS: usize = 3;
/// Platform pairs built and dropped per `platform_setup` run.
const SETUP_REPS: usize = 50;

/// One timed workload: the fastest of [`REPS`] runs.
#[derive(Clone, Copy)]
struct Measured {
    wall_ms: f64,
    stats: SchedStats,
    /// Scenario-specific virtual-time result.
    result: f64,
}

/// Run `workload` `REPS` times, keeping the fastest run.
fn measure(workload: impl Fn() -> (f64, SchedStats)) -> Measured {
    let mut best: Option<Measured> = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let (result, stats) = workload();
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        if best.map_or(true, |b| wall_ms < b.wall_ms) {
            best = Some(Measured {
                wall_ms,
                stats,
                result,
            });
        }
    }
    best.unwrap()
}

/// Two processes ping-ponging a token through a pair of [`SimQueue`]s:
/// every wake is a handoff between process fibers. Returns (final virtual
/// time in µs, stats).
fn pingpong() -> (f64, SchedStats) {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let q1 = SimQueue::<u32>::new(&h);
    let q2 = SimQueue::<u32>::new(&h);
    {
        let (q1, q2) = (Arc::clone(&q1), Arc::clone(&q2));
        sim.spawn("a", move |ctx| {
            for i in 0..PINGPONG_ROUNDS {
                q1.push(i);
                let _ = q2.pop(ctx);
            }
        });
    }
    {
        let (q1, q2) = (Arc::clone(&q1), Arc::clone(&q2));
        sim.spawn("b", move |ctx| {
            for _ in 0..PINGPONG_ROUNDS {
                let v = q1.pop(ctx);
                q2.push(v);
            }
        });
    }
    let end = sim.run().expect("pingpong failed");
    (end.as_micros_f64(), sim.sched_stats())
}

/// The Figure 6(b) SOVIA stream (COMBINE config): a realistic workload
/// with NIC service threads, doorbells, and packet payloads in flight.
/// Returns (bandwidth in Mb/s, stats).
fn sovia_stream() -> (f64, SchedStats) {
    let out = micro::run(&RunSpec::stream(
        Variant::Sovia(SoviaConfig::combine()),
        STREAM_MSG,
        STREAM_TOTAL,
    ));
    (out.value, out.stats)
}

/// [`SETUP_REPS`] times: a TCP-over-LANE point on a fresh
/// `clan_dual_stack` and a SOVIA point on a fresh `sovia_pair`, each one
/// 4-byte round trip after the handshake, then dropped. Almost all host
/// time is platform set-up (pre-posted rings, registered buffers, process
/// stacks) and teardown. Returns (the SOVIA one-way µs, summed stats).
fn platform_setup() -> (f64, SchedStats) {
    let mut sum = SchedStats::default();
    let mut one_way_us = 0.0;
    for _ in 0..SETUP_REPS {
        for variant in [Variant::TcpLane, Variant::Sovia(SoviaConfig::default())] {
            let out = micro::run(&RunSpec::latency(variant, 4, 1));
            let s = out.stats;
            sum.events_processed += s.events_processed;
            sum.direct_handoffs += s.direct_handoffs;
            sum.self_wakes += s.self_wakes;
            sum.coordinator_wakes += s.coordinator_wakes;
            sum.wakeups += s.wakeups;
            one_way_us = out.value;
        }
    }
    (one_way_us, sum)
}

/// Render a timed scenario's JSON block: `gate_wall_ms` (the handle
/// `scripts/bench.sh` gates on), the dispatch breakdown, and `extra`.
fn render_scenario(name: &str, m: &Measured, extra: &[(&str, f64)]) -> String {
    let s = &m.stats;
    let events_per_sec = s.events_processed as f64 / (m.wall_ms / 1e3);
    let mut json = format!(
        "    {{\n      \"name\": \"{name}\",\n      \"gate_wall_ms\": {:.3},\n      \
         \"events_processed\": {},\n      \"events_per_sec\": {events_per_sec:.0},\n      \
         \"direct_handoffs\": {},\n      \"self_wakes\": {}",
        m.wall_ms, s.events_processed, s.direct_handoffs, s.self_wakes,
    );
    for (k, v) in extra {
        json.push_str(&format!(",\n      \"{k}\": {v:.3}"));
    }
    json.push_str("\n    }");
    eprintln!(
        "{name}: wall {:.1} ms, {} events ({events_per_sec:.0}/s), {} handoffs, {} self-wakes",
        m.wall_ms, s.events_processed, s.direct_handoffs, s.self_wakes,
    );
    json
}

/// The fault-injection scenario: the goodput-vs-loss sweep over a lossy
/// Fast Ethernet link, with per-point goodput, recovery latency, and
/// fault counters. Fixed (seed, plan) per point keeps the block
/// bit-reproducible at any thread count; `gate_wall_ms` is the handle
/// `scripts/bench.sh` gates on (matched by scenario name).
fn render_fault_scenario(threads: usize) -> String {
    use bench::fault_sweep;
    let t0 = Instant::now();
    let points = fault_sweep::run_fault_sweep(threads, fault_sweep::SWEEP_SEED);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let pts: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "        {{\"loss_p\": {:.4}, \"goodput_mbps\": {:.3}, \
                 \"max_stall_ms\": {:.3}, \"frames\": {}, \"dropped\": {}, \
                 \"events_processed\": {}}}",
                p.loss_p,
                p.goodput_mbps,
                p.max_stall_us / 1e3,
                p.faults.frames,
                p.faults.dropped,
                p.stats.events_processed,
            )
        })
        .collect();
    eprintln!(
        "fault_sweep: {} points, wall {:.0} ms, goodput {:.1} -> {:.1} Mb/s",
        points.len(),
        wall_ms,
        points.first().map_or(0.0, |p| p.goodput_mbps),
        points.last().map_or(0.0, |p| p.goodput_mbps),
    );
    format!(
        "    {{\n      \"name\": \"fault_sweep\",\n      \"gate_wall_ms\": {wall_ms:.3},\n      \
         \"stream_msg_bytes\": {},\n      \"stream_total_bytes\": {},\n      \
         \"points\": [\n{}\n      ]\n    }}",
        fault_sweep::STREAM_MSG,
        fault_sweep::STREAM_TOTAL,
        pts.join(",\n"),
    )
}

/// The breakdown scenario: traced 4-byte latency decomposition per
/// variant, with per-component µs summing to the one-way latency and
/// the per-process runtime/wakeup accounting of each simulation.
/// `gate_wall_ms` is the handle `scripts/bench.sh` gates on.
fn render_breakdown_scenario(trace_path: Option<&str>) -> String {
    let t0 = Instant::now();
    let rows = breakdown::latency_breakdown(4, figures::LATENCY_ROUNDS);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let per_msg = |ns: u64| ns as f64 / f64::from(figures::LATENCY_ROUNDS) / 2.0 / 1e3;
    let variants: Vec<String> = rows
        .iter()
        .map(|r| {
            let comps: Vec<String> = breakdown::COMPONENTS
                .iter()
                .enumerate()
                .map(|(ci, c)| {
                    let ns = r.attribution.by_component[ci].1;
                    format!(
                        "            {{\"component\": \"{}\", \"us_per_msg\": {:.3}, \
                         \"pct\": {:.1}}}",
                        c.name(),
                        per_msg(ns),
                        ns as f64 * 100.0 / r.attribution.window_ns as f64,
                    )
                })
                .collect();
            let mut procs = r.procs.clone();
            procs.sort_by(|a, b| b.runtime.cmp(&a.runtime).then(a.pid.cmp(&b.pid)));
            let procs: Vec<String> = procs
                .iter()
                .take(5)
                .map(|p| {
                    format!(
                        "            {{\"name\": \"{}\", \"runtime_us\": {:.1}, \
                         \"wakeups\": {}}}",
                        p.name,
                        p.runtime.as_micros_f64(),
                        p.wakeups,
                    )
                })
                .collect();
            format!(
                "        {{\n          \"label\": \"{}\",\n          \
                 \"one_way_us\": {:.3},\n          \"components\": [\n{}\n          ],\n          \
                 \"top_procs\": [\n{}\n          ]\n        }}",
                r.label,
                per_msg(r.attribution.window_ns),
                comps.join(",\n"),
                procs.join(",\n"),
            )
        })
        .collect();
    let share = |r: &breakdown::VariantBreakdown| {
        (r.attribution.ns(breakdown::Component::Syscall) as f64
            + r.attribution.ns(breakdown::Component::Copy) as f64)
            * 100.0
            / r.attribution.window_ns as f64
    };
    eprintln!(
        "latency_breakdown: wall {:.0} ms; syscall+copy share {:.1}% ({}) vs {:.1}% ({})",
        wall_ms,
        share(&rows[0]),
        rows[0].label,
        share(&rows[2]),
        rows[2].label,
    );
    if let Some(path) = trace_path {
        cli::write_trace(path, &breakdown::trace_parts("latency 4B", &rows));
    }
    format!(
        "    {{\n      \"name\": \"latency_breakdown\",\n      \"gate_wall_ms\": {wall_ms:.3},\n      \
         \"message_bytes\": 4,\n      \"rounds\": {},\n      \"variants\": [\n{}\n      ]\n    }}",
        figures::LATENCY_ROUNDS,
        variants.join(",\n"),
    )
}

fn main() {
    let args = cli::BenchCli::parse_env();
    args.reject_seed("perf_report");
    let threads = args.threads();
    let mut out_path = String::from("BENCH_substrate.json");
    let mut it = args.rest.clone().into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("error: --out requires a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!(
                    "error: unknown argument {other:?} \
                     (supported: --out PATH, --threads N, --trace PATH)"
                );
                std::process::exit(2);
            }
        }
    }

    // Timed sequentially: running them concurrently would measure host
    // contention, not the scheduler.
    let pp = measure(pingpong);
    let st = measure(sovia_stream);
    let ps = measure(platform_setup);
    let handoffs = f64::from(PINGPONG_ROUNDS) * 2.0;
    let pp_json = render_scenario(
        "handoff_pingpong",
        &pp,
        &[("ns_per_handoff", pp.wall_ms * 1e6 / handoffs)],
    );
    let st_json = render_scenario(
        "sovia_stream_fig6b",
        &st,
        &[
            ("sim_bandwidth_mbps", st.result),
            ("sim_bytes_per_wall_sec", STREAM_TOTAL as f64 / (st.wall_ms / 1e3)),
        ],
    );
    let ps_json = render_scenario(
        "platform_setup",
        &ps,
        &[
            ("platforms", (2 * SETUP_REPS) as f64),
            ("ms_per_platform", ps.wall_ms / (2 * SETUP_REPS) as f64),
            ("sim_sovia_one_way_us", ps.result),
        ],
    );
    let fault_json = render_fault_scenario(threads);
    let breakdown_json = render_breakdown_scenario(args.trace.as_deref());

    let json = format!(
        "{{\n  \"pingpong_rounds\": {PINGPONG_ROUNDS},\n  \"stream_msg_bytes\": {STREAM_MSG},\n  \
         \"stream_total_bytes\": {STREAM_TOTAL},\n  \"reps\": {REPS},\n  \"scenarios\": [\n{pp_json},\n{st_json},\n{ps_json},\n{fault_json},\n{breakdown_json}\n  ]\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write report");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
