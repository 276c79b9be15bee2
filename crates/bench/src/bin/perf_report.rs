//! Host-performance report for the simulation substrate.
//!
//! Report sections, all written to `BENCH_substrate.json`:
//!
//! * **Fast-path A/B** — two fixed workloads run with direct token
//!   handoff off vs on, recording wall-clock time, event throughput, and
//!   the dispatch-path breakdown ([`dsim::SchedStats`]). Virtual-time
//!   results are asserted identical between the two configurations.
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
//! baseline, matching scenarios by name (the `fast_path_on` wall time
//! and the `gate_wall_ms` fields are the regression-gated handles).
//! `--trace` additionally writes the breakdown runs as a Chrome
//! trace-event (Perfetto) JSON file. The end-to-end host cost of the
//! paper's figure points is measured by `hostbench/` (`BENCHMARK.json`),
//! not here.

use std::sync::Arc;
use std::time::Instant;

use bench::micro::{self, RunSpec, Variant};
use bench::{breakdown, cli, figures, runner};
use dsim::sync::SimQueue;
use dsim::{SchedConfig, SchedStats, Simulation};
use sovia::SoviaConfig;

/// Ping-pong rounds for the handoff microbenchmark.
const PINGPONG_ROUNDS: u32 = 20_000;
/// Message size / total bytes for the Figure 6(b)-style stream workload.
const STREAM_MSG: usize = 32 * 1024;
const STREAM_TOTAL: usize = 32 * 1024 * 1024;
/// Timed repetitions per A/B measurement (minimum taken).
const REPS: usize = 3;

/// One measured side of an A/B pair.
#[derive(Clone, Copy)]
struct Measured {
    wall_ms: f64,
    stats: SchedStats,
    /// Scenario-specific virtual-time result, used to assert that the
    /// fast path changes nothing simulated.
    result: f64,
}

impl Measured {
    fn events_per_sec(&self) -> f64 {
        self.stats.events_processed as f64 / (self.wall_ms / 1e3)
    }

    fn json(&self, indent: &str, extra: &[(&str, f64)]) -> String {
        let s = &self.stats;
        let mut out = String::from("{\n");
        let mut push = |k: &str, v: String| {
            out.push_str(&format!("{indent}  \"{k}\": {v},\n"));
        };
        push("wall_ms", format!("{:.3}", self.wall_ms));
        push("events_processed", s.events_processed.to_string());
        push("events_per_sec", format!("{:.0}", self.events_per_sec()));
        push("direct_handoffs", s.direct_handoffs.to_string());
        push("self_wakes", s.self_wakes.to_string());
        push("coordinator_roundtrips", s.coordinator_wakes.to_string());
        for (k, v) in extra {
            push(k, format!("{v:.3}"));
        }
        // Trim the trailing comma.
        out.truncate(out.len() - 2);
        out.push('\n');
        out.push_str(indent);
        out.push('}');
        out
    }
}

/// Run `workload` under `sched`, `REPS` times, keeping the fastest run.
fn measure(sched: SchedConfig, workload: impl Fn(SchedConfig) -> (f64, SchedStats)) -> Measured {
    let mut best: Option<Measured> = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let (result, stats) = workload(sched);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let m = Measured {
            wall_ms,
            stats,
            result,
        };
        if best.map_or(true, |b| m.wall_ms < b.wall_ms) {
            best = Some(m);
        }
    }
    best.unwrap()
}

/// Two processes ping-ponging a token through a pair of [`SimQueue`]s:
/// the worst case for coordinator round-trips, the best case for direct
/// handoff. Returns (final virtual time in µs, stats).
fn pingpong(sched: SchedConfig) -> (f64, SchedStats) {
    let mut sim = Simulation::with_config(sched);
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
fn sovia_stream(sched: SchedConfig) -> (f64, SchedStats) {
    let out = micro::run(&RunSpec {
        sched,
        ..RunSpec::stream(
            Variant::Sovia(SoviaConfig::combine()),
            STREAM_MSG,
            STREAM_TOTAL,
        )
    });
    (out.value, out.stats)
}

/// Check an A/B pair's virtual-time identity and render its JSON block.
fn render_scenario(
    name: &str,
    off: &Measured,
    on: &Measured,
    extra_fn: impl Fn(&Measured) -> Vec<(&'static str, f64)>,
) -> String {
    assert_eq!(
        off.result, on.result,
        "{name}: fast path changed a virtual-time result"
    );
    assert_eq!(
        off.stats.events_processed, on.stats.events_processed,
        "{name}: fast path changed the event count"
    );
    let roundtrip_ratio =
        off.stats.coordinator_wakes as f64 / (on.stats.coordinator_wakes.max(1)) as f64;
    let wall_delta_pct = (off.wall_ms - on.wall_ms) / off.wall_ms * 100.0;
    let mut json = format!("    {{\n      \"name\": \"{name}\",\n");
    json.push_str(&format!(
        "      \"fast_path_off\": {},\n",
        off.json("      ", &extra_fn(off))
    ));
    json.push_str(&format!(
        "      \"fast_path_on\": {},\n",
        on.json("      ", &extra_fn(on))
    ));
    json.push_str(&format!(
        "      \"coordinator_roundtrip_reduction_x\": {roundtrip_ratio:.2},\n"
    ));
    json.push_str(&format!(
        "      \"wall_clock_reduction_pct\": {wall_delta_pct:.1}\n    }}"
    ));
    eprintln!(
        "{name}: wall {:.1} ms -> {:.1} ms ({wall_delta_pct:+.1}%), \
         coordinator round-trips {} -> {} ({roundtrip_ratio:.1}x fewer)",
        off.wall_ms, on.wall_ms, off.stats.coordinator_wakes, on.stats.coordinator_wakes,
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

    // The A/B grid — scenario × {off, on} — flattened into one job list
    // and run through the same runner as the sweeps. Timed A/B jobs are
    // pinned to the sequential path (cap 1): running them concurrently
    // would measure host contention, not the scheduler.
    let ab_jobs: [(&str, bool); 4] = [
        ("handoff_pingpong", false),
        ("handoff_pingpong", true),
        ("sovia_stream_fig6b", false),
        ("sovia_stream_fig6b", true),
    ];
    let measured = runner::par_map(&ab_jobs, 1, |_, &(name, handoff_on)| {
        let sched = SchedConfig {
            direct_handoff: handoff_on,
        };
        match name {
            "handoff_pingpong" => measure(sched, pingpong),
            _ => measure(sched, sovia_stream),
        }
    });
    let (pp_off, pp_on, st_off, st_on) = (measured[0], measured[1], measured[2], measured[3]);

    let handoffs = f64::from(PINGPONG_ROUNDS) * 2.0;
    let pp_json = render_scenario("handoff_pingpong", &pp_off, &pp_on, |m| {
        vec![("ns_per_handoff", m.wall_ms * 1e6 / handoffs)]
    });
    let st_json = render_scenario("sovia_stream_fig6b", &st_off, &st_on, |m| {
        vec![
            ("sim_bandwidth_mbps", m.result),
            (
                "sim_bytes_per_wall_sec",
                STREAM_TOTAL as f64 / (m.wall_ms / 1e3),
            ),
        ]
    });
    let fault_json = render_fault_scenario(threads);
    let breakdown_json = render_breakdown_scenario(args.trace.as_deref());

    // Acceptance summary: best coordinator round-trip reduction and best
    // wall-clock reduction across the A/B scenarios.
    let best_rt = [(&pp_off, &pp_on), (&st_off, &st_on)]
        .iter()
        .map(|(o, n)| o.stats.coordinator_wakes as f64 / n.stats.coordinator_wakes.max(1) as f64)
        .fold(0.0f64, f64::max);
    let best_wall = [(&pp_off, &pp_on), (&st_off, &st_on)]
        .iter()
        .map(|(o, n)| (o.wall_ms - n.wall_ms) / o.wall_ms * 100.0)
        .fold(f64::NEG_INFINITY, f64::max);

    let json = format!(
        "{{\n  \"pingpong_rounds\": {PINGPONG_ROUNDS},\n  \"stream_msg_bytes\": {STREAM_MSG},\n  \
         \"stream_total_bytes\": {STREAM_TOTAL},\n  \"reps\": {REPS},\n  \"scenarios\": [\n{pp_json},\n{st_json},\n{fault_json},\n{breakdown_json}\n  ],\n  \
         \"best_coordinator_roundtrip_reduction_x\": {best_rt:.2},\n  \
         \"best_wall_clock_reduction_pct\": {best_wall:.1}\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write report");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
