//! Table 1: FTP file-transfer performance.
//!
//! Two files (19,090,223 and 145,864,380 bytes, the paper's exact sizes)
//! stored on ramdisks; rows: TCP/IP on Fast Ethernet, TCP/IP on cLAN
//! (LANE), SOVIA on cLAN, and the local ramdisk-to-ramdisk copy bound.

use std::sync::Arc;

use apps::ftp::{spawn_ftp_server, FtpClient, FtpServerConfig, FtpTransports, FTP_PORT};
use dsim::{SimDuration, TraceConfig};
use simos::fs::OpenMode;
use simos::HostId;
use sovia::SoviaConfig;
use sovia_repro::testbed;

use crate::micro::{simulate, RunOutput};
use crate::runner;

/// The paper's file sizes.
pub const FILE_SIZES: [u64; 2] = [19_090_223, 145_864_380];

/// One measured cell of Table 1.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cell {
    /// Bandwidth, Mb/s.
    pub mbps: f64,
    /// Elapsed seconds.
    pub secs: f64,
}

/// One measured row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label.
    pub name: String,
    /// One cell per file.
    pub cells: Vec<Cell>,
}

/// The Table 1 platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// TCP/IP on Fast Ethernet.
    TcpFastEthernet,
    /// TCP/IP on cLAN through the LANE driver.
    TcpClan,
    /// SOVIA on cLAN.
    SoviaClan,
    /// Local ramdisk-to-ramdisk copy (no network).
    LocalCopy,
}

impl Platform {
    /// Row label as in the paper.
    pub fn label(self) -> &'static str {
        match self {
            Platform::TcpFastEthernet => "TCP/IP on Fast Ethernet",
            Platform::TcpClan => "TCP/IP on cLAN",
            Platform::SoviaClan => "SOVIA on cLAN",
            Platform::LocalCopy => "Local copy (on ramdisks)",
        }
    }
}

/// A deterministic, cheap-to-generate file body (content never inspected
/// by Table 1; only sizes and timing matter).
fn file_body(len: u64) -> Vec<u8> {
    let mut v = vec![0u8; len as usize];
    // A light pattern (full RNG fill of 145 MB is wasted host time).
    for (i, b) in v.iter_mut().enumerate().step_by(4096) {
        *b = (i / 4096) as u8;
    }
    v
}

/// Run one FTP transfer in a fresh simulation and report what the
/// client reports. A traced run's window is the whole run: FTP has no
/// warm-up phase to exclude.
pub fn ftp_transfer(
    platform: Platform,
    file_len: u64,
    trace: Option<TraceConfig>,
) -> RunOutput<Cell> {
    assert_ne!(platform, Platform::LocalCopy);
    let transports = match platform {
        Platform::SoviaClan => FtpTransports::sovia(),
        _ => FtpTransports::tcp(),
    };
    simulate(trace, "FTP", |sim, out| {
        let out = Arc::clone(out);
        let run = move |ctx: &dsim::SimCtx, m0: simos::Machine, m1: simos::Machine| {
            let (cp, sp) = testbed::procs(&m0, &m1);
            m1.fs().add_file("pub/file.bin", file_body(file_len));
            spawn_ftp_server(
                ctx.handle(),
                sp,
                FtpServerConfig {
                    transports,
                    fork_for_list: false,
                    max_sessions: Some(1),
                    ..Default::default()
                },
            );
            let out = Arc::clone(&out);
            ctx.handle().spawn("ftp-client", move |cctx| {
                cctx.sleep(SimDuration::from_millis(1));
                let mut ftp =
                    FtpClient::connect(cctx, &cp, HostId(1), FTP_PORT, transports).unwrap();
                let stats = ftp.retr(cctx, "pub/file.bin", "file.bin").unwrap();
                assert_eq!(stats.bytes, file_len);
                *out.lock() = Cell {
                    mbps: stats.mbps(),
                    secs: stats.elapsed.as_secs_f64(),
                };
                ftp.quit(cctx).unwrap();
            });
        };
        match platform {
            Platform::TcpFastEthernet => {
                let (m0, m1) = testbed::tcp_ethernet_pair(&sim.handle());
                sim.spawn("bootstrap", move |ctx| run(ctx, m0, m1));
            }
            Platform::TcpClan => testbed::clan_dual_stack(sim, SoviaConfig::combine(), run),
            Platform::SoviaClan => {
                let (m0, m1) = testbed::sovia_pair(&sim.handle(), SoviaConfig::combine());
                sim.spawn("bootstrap", move |ctx| run(ctx, m0, m1));
            }
            Platform::LocalCopy => unreachable!(),
        }
    })
}

/// The local ramdisk-to-ramdisk copy row (`cp src dst` on one host).
fn local_copy(file_len: u64) -> Cell {
    simulate(None, "local copy", |sim, out| {
        let (m0, _m1) = testbed::clan_pair(&sim.handle());
        m0.fs().add_file("src.bin", file_body(file_len));
        let out = Arc::clone(out);
        sim.spawn("cp", move |ctx| {
            let p = m0.spawn_process("cp");
            let t0 = ctx.now();
            let src = p.open(ctx, "src.bin", OpenMode::Read).unwrap();
            let dst = p.open(ctx, "dst.bin", OpenMode::Write).unwrap();
            loop {
                let chunk = p.read(ctx, src, 8 * 1024).unwrap();
                if chunk.is_empty() {
                    break;
                }
                p.write(ctx, dst, &chunk).unwrap();
            }
            p.close(ctx, src).unwrap();
            p.close(ctx, dst).unwrap();
            let secs = ctx.now().since(t0).as_secs_f64();
            *out.lock() = Cell {
                mbps: file_len as f64 * 8.0 / secs / 1e6,
                secs,
            };
        });
    })
    .value
}

/// Run the whole table on at most `threads` concurrent simulations:
/// each platform × file cell is an independent simulation.
pub fn run_table1(file_sizes: &[u64], threads: usize) -> Vec<Row> {
    let platforms = [
        Platform::TcpFastEthernet,
        Platform::TcpClan,
        Platform::SoviaClan,
        Platform::LocalCopy,
    ];
    let jobs: Vec<(Platform, u64)> = platforms
        .iter()
        .flat_map(|&p| file_sizes.iter().map(move |&len| (p, len)))
        .collect();
    let cells = runner::par_map(&jobs, threads, |_, &(p, len)| match p {
        Platform::LocalCopy => local_copy(len),
        _ => ftp_transfer(p, len, None).value,
    });
    platforms
        .iter()
        .enumerate()
        .map(|(pi, &p)| Row {
            name: p.label().to_string(),
            cells: cells[pi * file_sizes.len()..(pi + 1) * file_sizes.len()].to_vec(),
        })
        .collect()
}

/// Render in the paper's format.
pub fn render(rows: &[Row], file_sizes: &[u64]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# Table 1: The performance of file transfers using FTP");
    let _ = write!(out, "{:<28}", "");
    for (i, len) in file_sizes.iter().enumerate() {
        let _ = write!(out, "   File {} ({} bytes)", i + 1, len);
    }
    let _ = writeln!(out);
    for row in rows {
        let _ = write!(out, "{:<28}", row.name);
        for c in &row.cells {
            let _ = write!(out, "   {:>4.0} Mbps ({:.2} sec)   ", c.mbps, c.secs);
        }
        let _ = writeln!(out);
    }
    out
}
