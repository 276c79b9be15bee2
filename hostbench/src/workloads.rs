//! The three workloads, as point lists built from the paper's own
//! experiment parameters (`bench::figures`, `bench::fig7`,
//! `bench::table1`, `bench::fault_sweep`).

use bench::fault_sweep::{STREAM_MSG, STREAM_TOTAL};
use bench::fig7::{RpcPlatform, CALLS, FIG7_SIZES};
use bench::figures::{
    bandwidth_total, fig6a_variants, fig6b_variants, FIG6A_SIZES, LATENCY_ROUNDS,
};
use bench::micro::Variant;
use bench::table1::{Platform, FILE_SIZES};

use crate::point::{Cell, Kind, PointSpec, Reference, Sabotage};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["latency", "stream_small", "bulk"];

/// Message sizes of the `stream_small` workload.
pub const STREAM_SMALL_SIZES: [usize; 4] = [4, 16, 64, 256];

/// `stream_small` streams `bandwidth_total(size) / STREAM_SMALL_DIVISOR`
/// bytes per point: the figure's 1 MiB floor would make the six 4-byte
/// points alone take minutes. 64 KiB is two thousand credits' worth, past
/// the credit-bound series' ramp.
pub const STREAM_SMALL_DIVISOR: usize = 32;

/// The series that buffer small sends (TCP in its 131,170-byte socket
/// buffer, COMBINE into 32 KB packets) stream `bandwidth_total(size) /
/// BUFFERED_DIVISOR` instead: 256 KiB, so the sender fills its buffer
/// and blocks on it, as in the figure's steady state.
pub const BUFFERED_DIVISOR: usize = 4;

/// Message sizes of the `bulk` workload's Figure 6(b) points.
pub const BULK_SIZES: [usize; 3] = [8192, 16384, 32768];

/// Drop probabilities of the `bulk` workload's lossy streams.
pub const LOSS_RATES: [f64; 2] = [0.001, 0.01];

/// Event budget per point: far above any point's count (the largest, a
/// Table 1 transfer, is under 2 M events), so only a runaway trips it.
const EVENT_BUDGET: u64 = 20_000_000;

/// Paper values (EXPERIMENTS.md) for the latency anchors, µs.
const PAPER_LATENCY: [(&str, usize, f64); 3] = [
    ("NATIVE_VIA", 4, 8.5),
    ("TCP", 4, 55.0),
    ("SOVIA_SINGLE", 4, 10.5),
];

/// Paper values for the null RPC, µs.
const PAPER_RPC: [(RpcPlatform, f64); 3] = [
    (RpcPlatform::TcpFastEthernet, 200.0),
    (RpcPlatform::TcpClan, 149.0),
    (RpcPlatform::SoviaClan, 35.0),
];

/// Paper peak bandwidths at 32 KiB, Mb/s.
const PAPER_PEAK: [(&str, f64); 2] = [("NATIVE_VIA", 815.0), ("TCP", 450.0)];

/// Paper Table 1 File 1 bandwidths, Mb/s.
const PAPER_FTP: [(Platform, f64); 4] = [
    (Platform::TcpFastEthernet, 90.0),
    (Platform::TcpClan, 262.0),
    (Platform::SoviaClan, 573.0),
    (Platform::LocalCopy, 611.0),
];

fn point(label: String, kind: Kind) -> PointSpec {
    PointSpec {
        label,
        kind,
        golden: None,
        reference: None,
        event_budget: EVENT_BUDGET,
        sabotage: Sabotage::None,
    }
}

fn cell(file: &'static str, series: &str, size: usize) -> Cell {
    Cell {
        file,
        series: series.to_string(),
        size,
    }
}

fn lookup<K: PartialEq, V: Copy>(table: &[(K, V)], key: &K) -> Option<V> {
    table.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

/// The points of workload `name`, or `None` for an unknown name.
pub fn points(name: &str) -> Option<Vec<PointSpec>> {
    match name {
        "latency" => Some(latency()),
        "stream_small" => Some(stream_small()),
        "bulk" => Some(bulk()),
        _ => None,
    }
}

/// Figure 6(a) ping-pong (all five series, every size, `LATENCY_ROUNDS`)
/// and Figure 7 RPC (three platforms, every size, `CALLS`).
pub fn latency() -> Vec<PointSpec> {
    let mut v = Vec::new();
    for variant in fig6a_variants() {
        for size in FIG6A_SIZES {
            let series = variant.label();
            let mut p = point(
                format!("fig6a/{series}/{size}"),
                Kind::PingPong {
                    variant: variant.clone(),
                    size,
                    rounds: LATENCY_ROUNDS,
                },
            );
            p.golden = Some(cell("fig6a.txt", series, size));
            p.reference = PAPER_LATENCY
                .iter()
                .find(|(s, z, _)| *s == series && *z == size)
                .map(|(_, _, us)| Reference::Paper(*us));
            v.push(p);
        }
    }
    for platform in [
        RpcPlatform::TcpFastEthernet,
        RpcPlatform::TcpClan,
        RpcPlatform::SoviaClan,
    ] {
        for arg_len in FIG7_SIZES {
            let series = platform.label();
            let mut p = point(
                format!("fig7/{series}/{arg_len}"),
                Kind::Rpc {
                    platform,
                    arg_len,
                    calls: CALLS,
                },
            );
            p.golden = Some(cell("fig7.txt", series, arg_len));
            if arg_len == 0 {
                p.reference = lookup(&PAPER_RPC, &platform).map(Reference::Paper);
            }
            v.push(p);
        }
    }
    v
}

/// Figure 6(b) streams, all six series at 4–256 B, scaled-down totals.
/// No golden digits (the totals differ from the figure's); the fidelity
/// reference is the committed full-length figure value.
pub fn stream_small() -> Vec<PointSpec> {
    let mut v = Vec::new();
    for variant in fig6b_variants() {
        for size in STREAM_SMALL_SIZES {
            let series = variant.label();
            let divisor = match &variant {
                Variant::TcpLane => BUFFERED_DIVISOR,
                Variant::Sovia(c) if c.combine_small => BUFFERED_DIVISOR,
                _ => STREAM_SMALL_DIVISOR,
            };
            let mut p = point(
                format!("stream/{series}/{size}"),
                Kind::Stream {
                    variant: variant.clone(),
                    size,
                    total: bandwidth_total(size) / divisor,
                },
            );
            p.reference = Some(Reference::Figure(cell("fig6b.txt", series, size)));
            v.push(p);
        }
    }
    v
}

/// Table 1 File 1 on every platform, Figure 6(b) at 8–32 KiB at figure
/// totals, and two lossy TCP/Fast-Ethernet streams. The two TCP
/// transfers, the longest points, go first: they then run beside the
/// other points instead of alone at the end, where a handoff-bound
/// point's host time depends on how fast an idle CPU wakes.
pub fn bulk() -> Vec<PointSpec> {
    let mut v = Vec::new();
    for platform in [
        Platform::TcpFastEthernet,
        Platform::TcpClan,
        Platform::SoviaClan,
        Platform::LocalCopy,
    ] {
        let mut p = point(
            format!("table1/{}/file1", platform.label()),
            Kind::Ftp {
                platform,
                file_len: FILE_SIZES[0],
            },
        );
        p.golden = Some(cell("table1.txt", platform.label(), 1));
        p.reference = lookup(&PAPER_FTP, &platform).map(Reference::Paper);
        v.push(p);
    }
    for variant in fig6b_variants() {
        for size in BULK_SIZES {
            let series = variant.label();
            let mut p = point(
                format!("fig6b/{series}/{size}"),
                Kind::Stream {
                    variant: variant.clone(),
                    size,
                    total: bandwidth_total(size),
                },
            );
            p.golden = Some(cell("fig6b.txt", series, size));
            if size == 32768 {
                p.reference = lookup(&PAPER_PEAK, &series).map(Reference::Paper);
            }
            v.push(p);
        }
    }
    for loss_p in LOSS_RATES {
        v.push(point(
            format!("lossy/TCP-FastEth/{loss_p}"),
            Kind::Lossy {
                loss_p,
                msg: STREAM_MSG,
                total: STREAM_TOTAL,
            },
        ));
    }
    v
}
