//! Metric names, units and their computation from passes. The lists
//! here are what `BENCHMARK.json` declares; a test keeps them in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::calib::Calibration;
use crate::golden::Goldens;
use crate::pass::Pass;
use crate::point::{PointSpec, Reference, Transport};
use crate::probe::Slot;
use crate::traces::TraceCounts;

/// End-to-end metrics (untraced runs): name, unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("events_per_s", "1/s"),
    ("point_wall_max_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("paper_err_pct", "%"),
    ("points", "count"),
];

/// Per-layer metrics (traced runs): name, unit.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("dsim.events", "count"),
    ("dsim.direct_handoffs", "count"),
    ("dsim.self_wakes", "count"),
    ("dsim.coordinator_wakes", "count"),
    ("dsim.ns_per_event", "ns"),
    ("dsim.os_switches_per_event", "ratio"),
    ("dsim.sys_share", "ratio"),
    ("dsim.offcpu_share", "ratio"),
    ("dsim.handoff_ns", "ns"),
    ("dsim.self_wake_ns", "ns"),
    ("dsim.timer_ns", "ns"),
    ("dsim.spawn_us", "us"),
    ("runner.busy_share", "ratio"),
    ("testbed.setup_ms_per_point", "ms"),
    ("testbed.teardown_ms_per_point", "ms"),
    ("sockets.send_host_us.tcp", "us"),
    ("sockets.send_host_us.sovia", "us"),
    ("sockets.recv_host_us.tcp", "us"),
    ("sockets.recv_host_us.sovia", "us"),
    ("core.acks_per_data", "ratio"),
    ("core.piggyback_share", "ratio"),
    ("core.combined_sends", "count"),
    ("core.zero_copy_share", "ratio"),
    ("core.descriptors_per_msg", "ratio"),
    ("tcpip.segments_per_msg", "ratio"),
    ("tcpip.pure_acks_per_segment", "ratio"),
    ("tcpip.retransmits", "count"),
    ("via.post_host_us", "us"),
    ("via.wait_host_us", "us"),
    ("via.registrations", "count"),
    ("simnic.frames", "count"),
    ("simnic.bytes_per_frame", "B"),
    ("simnic.rx_drops", "count"),
    ("simnic.fault_drops", "count"),
    ("simos.bytes_copied", "B"),
    ("simos.bytes_zero_copy", "B"),
    ("simos.host_ns_per_byte", "ns"),
    ("apps.ftp_retr_host_ms", "ms"),
    ("apps.rpc_call_host_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.dropped", "count"),
];

/// `a / b`, or 0 when nothing was measured.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Median of `v` (mean of the middle two for an even count).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean |sim − reference| / reference over the points that have a
/// reference, in percent.
pub fn paper_err_pct(points: &[PointSpec], pass: &Pass, goldens: &Goldens) -> f64 {
    let mut errs = Vec::new();
    for (p, r) in points.iter().zip(&pass.runs) {
        let (Some(reference), Ok(m)) = (&p.reference, &r.outcome) else {
            continue;
        };
        let want = match reference {
            Reference::Paper(v) => Some(*v),
            Reference::Figure(cell) => goldens.value(cell),
        };
        if let Some(want) = want.filter(|w| *w > 0.0) {
            errs.push((m.value - want).abs() / want);
        }
    }
    100.0 * ratio(errs.iter().sum(), errs.len() as f64)
}

/// End-to-end metrics of one untraced pass (`paper_err_pct`,
/// `peak_rss_mb` and `points` are filled in per run).
pub fn end_to_end(pass: &Pass) -> BTreeMap<&'static str, f64> {
    let secs = pass.wall.as_secs_f64();
    BTreeMap::from([
        ("wall_s", secs),
        ("cpu_s", pass.usage.cpu().as_secs_f64()),
        ("events_per_s", ratio(pass.events() as f64, secs)),
        (
            "point_wall_max_s",
            pass.runs
                .iter()
                .map(|r| r.wall.as_secs_f64())
                .fold(0.0, f64::max),
        ),
        (
            "setup_s",
            pass.runs.iter().map(|r| r.setup.as_secs_f64()).sum(),
        ),
    ])
}

/// Per-layer metrics of one untraced/traced pass pair plus a
/// calibration.
pub fn per_layer(
    points: &[PointSpec],
    plain: &Pass,
    traced: &Pass,
    cal: &Calibration,
    cap: usize,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let events = plain.events() as f64;
    let sum =
        |f: &dyn Fn(&crate::point::PointRun) -> f64| -> f64 { plain.runs.iter().map(f).sum() };
    let n = plain.runs.len() as f64;
    let capacity = plain.wall.as_secs_f64() * cap as f64;

    m.insert("dsim.events", events);
    m.insert(
        "dsim.direct_handoffs",
        sum(&|r| r.sched.direct_handoffs as f64),
    );
    m.insert("dsim.self_wakes", sum(&|r| r.sched.self_wakes as f64));
    m.insert(
        "dsim.coordinator_wakes",
        sum(&|r| r.sched.coordinator_wakes as f64),
    );
    let point_ns = sum(&|r| r.wall.as_nanos() as f64);
    m.insert("dsim.ns_per_event", ratio(point_ns, events));
    m.insert(
        "dsim.os_switches_per_event",
        ratio(plain.usage.switches as f64, events),
    );
    m.insert(
        "dsim.sys_share",
        ratio(plain.usage.sys.as_secs_f64(), capacity),
    );
    m.insert(
        "dsim.offcpu_share",
        (1.0 - ratio(plain.usage.cpu().as_secs_f64(), capacity)).max(0.0),
    );
    m.insert("dsim.handoff_ns", cal.handoff_ns);
    m.insert("dsim.self_wake_ns", cal.self_wake_ns);
    m.insert("dsim.timer_ns", cal.timer_ns);
    m.insert("dsim.spawn_us", cal.spawn_us);

    m.insert("runner.busy_share", ratio(point_ns / 1e9, capacity));
    m.insert(
        "testbed.setup_ms_per_point",
        ratio(sum(&|r| r.setup.as_secs_f64() * 1e3), n),
    );
    m.insert(
        "testbed.teardown_ms_per_point",
        ratio(sum(&|r| r.teardown.as_secs_f64() * 1e3), n),
    );

    // Per-call host time, from the traced pass's probes.
    let mut probe = [(0u64, 0u64); crate::probe::SLOTS];
    for r in &traced.runs {
        for (acc, (ns, calls)) in probe.iter_mut().zip(r.probe) {
            acc.0 += ns;
            acc.1 += calls;
        }
    }
    let per_call = |slots: &[Slot], unit_ns: f64| -> f64 {
        let (ns, calls) = slots.iter().fold((0u64, 0u64), |(a, b), s| {
            (a + probe[*s as usize].0, b + probe[*s as usize].1)
        });
        ratio(ns as f64 / unit_ns, calls as f64)
    };
    m.insert("sockets.send_host_us.tcp", per_call(&[Slot::SendTcp], 1e3));
    m.insert(
        "sockets.send_host_us.sovia",
        per_call(&[Slot::SendSovia], 1e3),
    );
    m.insert("sockets.recv_host_us.tcp", per_call(&[Slot::RecvTcp], 1e3));
    m.insert(
        "sockets.recv_host_us.sovia",
        per_call(&[Slot::RecvSovia], 1e3),
    );
    m.insert("via.post_host_us", per_call(&[Slot::ViaPost], 1e3));
    m.insert("via.wait_host_us", per_call(&[Slot::ViaWait], 1e3));
    m.insert("apps.ftp_retr_host_ms", per_call(&[Slot::FtpRetr], 1e6));
    m.insert("apps.rpc_call_host_us", per_call(&[Slot::RpcCall], 1e3));

    // Trace counters, split by the transport of the point they came from.
    let mut all = TraceCounts::default();
    let mut tcp = TraceCounts::default();
    let mut sovia = TraceCounts::default();
    let (mut tcp_msgs, mut sovia_msgs) = (0u64, 0u64);
    for (p, r) in points.iter().zip(&traced.runs) {
        let Some(t) = &r.trace else { continue };
        all.add(t);
        let msgs = r.outcome.as_ref().map(|m| m.msgs).unwrap_or(0);
        match p.kind.transport() {
            Transport::Tcp => {
                tcp.add(t);
                tcp_msgs += msgs;
            }
            Transport::Sovia => {
                sovia.add(t);
                sovia_msgs += msgs;
            }
            Transport::Native | Transport::None => {}
        }
    }
    let f = |v: u64| v as f64;
    m.insert(
        "core.acks_per_data",
        ratio(f(sovia.sovia_ctrl_posts), f(sovia.sovia_data_posts)),
    );
    m.insert(
        "core.piggyback_share",
        ratio(
            f(sovia.acks_piggybacked),
            f(sovia.acks_piggybacked + sovia.sovia_ctrl_posts + sovia.sovia_acks_delayed),
        ),
    );
    m.insert("core.combined_sends", f(sovia.combined_sends));
    m.insert(
        "core.zero_copy_share",
        ratio(
            f(sovia.bytes_zero_copy),
            f(sovia.bytes_zero_copy + sovia.sovia_bytes_copied),
        ),
    );
    m.insert(
        "core.descriptors_per_msg",
        ratio(f(sovia.sovia_descriptors), f(sovia_msgs)),
    );
    m.insert(
        "tcpip.segments_per_msg",
        ratio(f(tcp.tx_segments), f(tcp_msgs)),
    );
    m.insert(
        "tcpip.pure_acks_per_segment",
        ratio(f(tcp.pure_acks), f(tcp.tx_segments)),
    );
    m.insert("tcpip.retransmits", f(all.retransmits));
    m.insert("via.registrations", f(all.registrations));
    m.insert("simos.bytes_copied", f(all.bytes_copied));
    m.insert("simos.bytes_zero_copy", f(all.bytes_zero_copy));
    m.insert("trace.dropped", f(all.dropped));

    let frames = sum(&|r| r.nic.frames as f64);
    m.insert("simnic.frames", frames);
    m.insert(
        "simnic.bytes_per_frame",
        ratio(sum(&|r| r.nic.bytes as f64), frames),
    );
    m.insert("simnic.rx_drops", sum(&|r| r.nic.rx_drops as f64));
    m.insert("simnic.fault_drops", sum(&|r| r.faults.dropped as f64));

    let moved = sum(&|r| r.outcome.as_ref().map(|m| m.bytes as f64).unwrap_or(0.0));
    let measure_ns = sum(&|r| (r.wall.saturating_sub(r.setup + r.teardown)).as_nanos() as f64);
    m.insert("simos.host_ns_per_byte", ratio(measure_ns, moved));
    m.insert(
        "trace.overhead_pct",
        100.0 * (ratio(traced.wall.as_secs_f64(), plain.wall.as_secs_f64()) - 1.0),
    );
    m
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric of `names`, in order.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    names: &[(&str, &str)],
    values: &BTreeMap<String, f64>,
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let v = values.get(*name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}
