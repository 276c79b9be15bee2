//! The simulations behind every point, written against the public APIs
//! (`sovia_repro::testbed`, `sockets::api`, `via`, `apps`, `dsim`).
//!
//! Each driver reproduces the matching `bench` experiment event for
//! event: the same platform, processes, spawn order, socket options and
//! timed loop, so anchor points print the committed golden digits. What
//! the drivers add is host-side only and costs no virtual time: seeded
//! payload bytes verified at the receiver (`MemRegion::dma_*` for raw
//! VIA, which charge nothing), host-clock probes around each layer call,
//! the host instant the measurement window opens, and typed errors in
//! place of `unwrap`.

use std::sync::Arc;

use apps::ftp::{spawn_ftp_server, FtpClient, FtpServerConfig, FtpTransports, FTP_PORT};
use apps::rpc::client::Transport as RpcTransport;
use apps::rpc::echo::{echo_client, echo_len_1, echo_null_1, spawn_echo_server};
use bench::fig7::RpcPlatform;
use bench::micro::Variant;
use bench::table1::Platform;
use dsim::{SimCtx, SimDuration, SimTime, Simulation};
use simnic::FaultPlan;
use simos::fs::OpenMode;
use simos::{Fd, HostId, Machine};
use sockets::{api, SockAddr, SockOption, SockType};
use sovia::SoviaConfig;
use sovia_repro::testbed;
use via::{Descriptor, MemRegion, ViAttributes, ViaNic, ViaNicId, WaitMode};

use crate::pattern::Pattern;
use crate::point::{At, Kind, Measured, PointError, PointSpec, Sabotage, Shared};
use crate::probe::Slot;

const PORT: u16 = 9000;

/// Receive-side chunk of the stream sinks (as in `bench::micro`).
const SINK_CHUNK: usize = 16 * 1024;

/// Socket buffer size of the bandwidth runs (the paper's footnote).
const SOCKBUF: usize = 131_170;

/// Pattern lanes: independent byte streams of one point.
const LANE_DATA: u64 = 1;
const LANE_FILE: u64 = 2;
const LANE_RPC: u64 = 3;
const LANE_FAULTS: u64 = 4;

/// Build `spec`'s platform and processes into `sim`.
pub fn build(spec: &PointSpec, seed: u64, sim: &Simulation, sh: &Arc<Shared>) {
    let sh = Arc::clone(sh);
    match spec.kind.clone() {
        Kind::PingPong {
            variant: Variant::NativeVia,
            size,
            rounds,
        } => native_pingpong(sim, sh, seed, size, rounds),
        Kind::PingPong {
            variant,
            size,
            rounds,
        } => socket_pingpong(sim, sh, seed, sovia_config(variant), size, rounds),
        Kind::Stream {
            variant: Variant::NativeVia,
            size,
            total,
        } => native_stream(sim, sh, seed, size, total),
        Kind::Stream {
            variant,
            size,
            total,
        } => socket_stream(
            sim,
            sh,
            seed,
            sovia_config(variant),
            size,
            total,
            spec.sabotage,
        ),
        Kind::Rpc {
            platform,
            arg_len,
            calls,
        } => rpc(sim, sh, seed, platform, arg_len, calls),
        Kind::Ftp {
            platform: Platform::LocalCopy,
            file_len,
        } => local_copy(sim, sh, seed, file_len),
        Kind::Ftp { platform, file_len } => ftp(sim, sh, seed, platform, file_len),
        Kind::Lossy { loss_p, msg, total } => {
            let fault_seed = Pattern::new(seed, LANE_FAULTS).derive(&spec.label);
            lossy(sim, sh, seed, fault_seed, loss_p, msg, total)
        }
    }
}

fn sovia_config(v: Variant) -> Option<SoviaConfig> {
    match v {
        Variant::Sovia(c) => Some(c),
        _ => None,
    }
}

fn sock_type(config: &Option<SoviaConfig>) -> SockType {
    if config.is_some() {
        SockType::Via
    } else {
        SockType::Stream
    }
}

fn slots(stype: SockType) -> (Slot, Slot) {
    if stype == SockType::Via {
        (Slot::SendSovia, Slot::RecvSovia)
    } else {
        (Slot::SendTcp, Slot::RecvTcp)
    }
}

/// Bring up the cLAN platform `bench::micro` uses for `config` (SOVIA
/// pair, or the dual stack for TCP over LANE) and run `f` on it.
fn on_clan(
    sim: &Simulation,
    sh: &Arc<Shared>,
    config: Option<SoviaConfig>,
    f: impl FnOnce(&SimCtx, Machine, Machine) + Send + 'static,
) {
    let sh = Arc::clone(sh);
    let run = move |ctx: &SimCtx, m0: Machine, m1: Machine| {
        sh.keep(&[&m0, &m1]);
        f(ctx, m0, m1)
    };
    match config {
        Some(cfg) => {
            let (m0, m1) = testbed::sovia_pair(&sim.handle(), cfg);
            sim.spawn("bootstrap", move |ctx| run(ctx, m0, m1));
        }
        None => testbed::clan_dual_stack(sim, SoviaConfig::combine(), run),
    }
}

/// Check `got` against the pattern at `off`, `want` bytes long.
fn verify(p: &Pattern, off: u64, want: usize, got: &[u8]) -> Result<(), PointError> {
    if got.len() < want {
        return Err(PointError::Short {
            want: want as u64,
            got: got.len() as u64,
        });
    }
    match p.mismatch(off, &got[..want]) {
        Some(offset) => Err(PointError::Corrupt { offset }),
        None => Ok(()),
    }
}

// ----- Figure 6(a): ping-pong ------------------------------------------------

fn socket_pingpong(
    sim: &Simulation,
    sh: Arc<Shared>,
    seed: u64,
    config: Option<SoviaConfig>,
    size: usize,
    rounds: u32,
) {
    let stype = sock_type(&config);
    let (send, recv) = slots(stype);
    let pat = Pattern::new(seed, LANE_DATA);
    let sh2 = Arc::clone(&sh);
    on_clan(sim, &sh, config, move |ctx, m0, m1| {
        let (cp, sp) = testbed::procs(&m0, &m1);
        let h = ctx.handle().clone();
        let shp = Arc::clone(&sh2);
        // Server: echo `rounds + 1` messages (one warm-up).
        h.spawn("pong", move |c| {
            shp.guard(|| {
                let s = api::socket(c, &sp, stype).at("socket")?;
                api::bind(c, &sp, s, SockAddr::new(HostId(1), PORT)).at("bind")?;
                api::listen(c, &sp, s, 1).at("listen")?;
                let (fd, _) = api::accept(c, &sp, s).at("accept")?;
                if stype == SockType::Stream {
                    api::set_option(c, &sp, fd, SockOption::NoDelay(true)).at("setsockopt")?;
                }
                for _ in 0..=rounds {
                    let msg = shp
                        .probe
                        .time(recv, || api::recv_exact(c, &sp, fd, size))
                        .at("recv")?;
                    if msg.len() < size {
                        break;
                    }
                    shp.probe
                        .time(send, || api::send_all(c, &sp, fd, &msg))
                        .at("send")?;
                }
                api::close(c, &sp, fd).at("close")?;
                api::close(c, &sp, s).at("close")
            })
        });
        let sh = Arc::clone(&sh2);
        h.spawn("ping", move |c| {
            sh.guard(|| {
                c.sleep(SimDuration::from_millis(1));
                let s = api::socket(c, &cp, stype).at("socket")?;
                api::connect(c, &cp, s, SockAddr::new(HostId(1), PORT)).at("connect")?;
                if stype == SockType::Stream {
                    api::set_option(c, &cp, s, SockOption::NoDelay(true)).at("setsockopt")?;
                }
                let round = |r: u32| -> Result<(), PointError> {
                    let off = u64::from(r) * size as u64;
                    let msg = pat.bytes(off, size);
                    sh.probe
                        .time(send, || api::send_all(c, &cp, s, &msg))
                        .at("send")?;
                    let echo = sh
                        .probe
                        .time(recv, || api::recv_exact(c, &cp, s, size))
                        .at("recv")?;
                    verify(&pat, off, size, &echo)
                };
                round(0)?; // warm-up
                sh.open_window();
                let t0 = c.now();
                for r in 1..=rounds {
                    round(r)?;
                }
                let rtt_us = c.now().since(t0).as_micros_f64() / f64::from(rounds);
                sh.report(Measured {
                    value: rtt_us / 2.0,
                    aux: 0.0,
                    msgs: 2 * u64::from(rounds + 1),
                    bytes: 2 * u64::from(rounds + 1) * size as u64,
                });
                api::close(c, &cp, s).at("close")
            })
        });
    });
}

fn native_pingpong(sim: &Simulation, sh: Arc<Shared>, seed: u64, size: usize, rounds: u32) {
    let (m0, m1) = testbed::clan_pair(&sim.handle());
    sh.keep(&[&m0, &m1]);
    let n0 = ViaNic::of(&m0);
    let n1 = ViaNic::of(&m1);
    let pat = Pattern::new(seed, LANE_DATA);
    let cap = size.max(64);
    let buf = cap.max(4096);
    {
        let sh = Arc::clone(&sh);
        sim.spawn("pong", move |ctx| {
            sh.guard(|| {
                let p = m1.spawn_process("pong");
                let vi = n1.create_vi(ViAttributes::default());
                n1.listen(1);
                let va = p.alloc(ctx, buf);
                let region = MemRegion::register(ctx, &p, va, buf);
                for _ in 0..=rounds + 1 {
                    sh.probe
                        .time(Slot::ViaPost, || {
                            vi.post_recv(ctx, Descriptor::recv(Arc::clone(&region), 0, cap))
                        })
                        .at("VipPostRecv")?;
                }
                let pending = n1.connect_wait(ctx, 1);
                n1.connect_accept(ctx, &pending, &vi)
                    .at("VipConnectAccept")?;
                let sva = p.alloc(ctx, buf);
                let sregion = MemRegion::register(ctx, &p, sva, buf);
                for _ in 0..=rounds {
                    let d = sh
                        .probe
                        .time(Slot::ViaWait, || vi.recv_wait(ctx, WaitMode::Poll))
                        .at("VipRecvWait")?;
                    // Echo what arrived (a host-side copy: no virtual time).
                    let n = d.status().xfer_len.min(size);
                    sregion.dma_write(0, &d.region.dma_read(d.offset, n));
                    sh.probe
                        .time(Slot::ViaPost, || {
                            vi.post_send(ctx, Descriptor::send(Arc::clone(&sregion), 0, size, None))
                        })
                        .at("VipPostSend")?;
                }
                Ok(())
            })
        });
    }
    sim.spawn("ping", move |ctx| {
        sh.guard(|| {
            let p = m0.spawn_process("ping");
            let vi = n0.create_vi(ViAttributes::default());
            let va = p.alloc(ctx, buf);
            let region = MemRegion::register(ctx, &p, va, buf);
            for _ in 0..=rounds + 1 {
                sh.probe
                    .time(Slot::ViaPost, || {
                        vi.post_recv(ctx, Descriptor::recv(Arc::clone(&region), 0, cap))
                    })
                    .at("VipPostRecv")?;
            }
            ctx.sleep(SimDuration::from_millis(1));
            n0.connect_request(ctx, &vi, ViaNicId(1), 1)
                .at("VipConnectRequest")?;
            let sva = p.alloc(ctx, buf);
            let sregion = MemRegion::register(ctx, &p, sva, buf);
            let round = |r: u32| -> Result<(), PointError> {
                let off = u64::from(r) * size as u64;
                sregion.dma_write(0, &pat.bytes(off, size));
                sh.probe
                    .time(Slot::ViaPost, || {
                        vi.post_send(ctx, Descriptor::send(Arc::clone(&sregion), 0, size, None))
                    })
                    .at("VipPostSend")?;
                let d = sh
                    .probe
                    .time(Slot::ViaWait, || vi.recv_wait(ctx, WaitMode::Poll))
                    .at("VipRecvWait")?;
                let n = d.status().xfer_len.min(size);
                verify(&pat, off, size, &d.region.dma_read(d.offset, n))
            };
            round(0)?; // warm-up
            sh.open_window();
            let t0 = ctx.now();
            for r in 1..=rounds {
                round(r)?;
            }
            let rtt_us = ctx.now().since(t0).as_micros_f64() / f64::from(rounds);
            sh.report(Measured {
                value: rtt_us / 2.0,
                aux: 0.0,
                msgs: 2 * u64::from(rounds + 1),
                bytes: 2 * u64::from(rounds + 1) * size as u64,
            });
            Ok(())
        })
    });
}

// ----- Figure 6(b): streams ---------------------------------------------------

/// Sink side of a socket stream: receive `total` bytes in `SINK_CHUNK`
/// reads, verifying each against the pattern, and return the
/// steady-state Mb/s over the last 75% of the bytes (`bench::micro`'s
/// window).
fn sink_stream(
    c: &SimCtx,
    sh: &Shared,
    sp: &simos::Process,
    fd: Fd,
    recv: Slot,
    pat: &Pattern,
    total: usize,
) -> Result<f64, PointError> {
    let skip = total / 4;
    let mut got = 0usize;
    let mut mark: Option<(SimTime, usize)> = None;
    let mut t_last = c.now();
    while got < total {
        let d = sh
            .probe
            .time(recv, || api::recv(c, sp, fd, SINK_CHUNK))
            .at("recv")?;
        if d.is_empty() {
            break;
        }
        verify(pat, got as u64, d.len(), &d)?;
        got += d.len();
        t_last = c.now();
        if mark.is_none() && got >= skip {
            mark = Some((t_last, got));
        }
    }
    if got < total {
        return Err(PointError::Short {
            want: total as u64,
            got: got as u64,
        });
    }
    Ok(match mark {
        Some((t_mark, got_mark)) => {
            let secs = t_last.since(t_mark).as_secs_f64();
            if secs > 0.0 {
                (got - got_mark) as f64 * 8.0 / secs / 1e6
            } else {
                0.0
            }
        }
        None => 0.0,
    })
}

fn socket_stream(
    sim: &Simulation,
    sh: Arc<Shared>,
    seed: u64,
    config: Option<SoviaConfig>,
    size: usize,
    total: usize,
    sabotage: Sabotage,
) {
    let stype = sock_type(&config);
    let (send, recv) = slots(stype);
    let pat = Pattern::new(seed, LANE_DATA);
    let msgs = total.div_ceil(size);
    let total = msgs * size;
    let sh2 = Arc::clone(&sh);
    on_clan(sim, &sh, config, move |ctx, m0, m1| {
        let (cp, sp) = testbed::procs(&m0, &m1);
        let h = ctx.handle().clone();
        let shs = Arc::clone(&sh2);
        h.spawn("sink", move |c| {
            shs.guard(|| {
                let s = api::socket(c, &sp, stype).at("socket")?;
                api::bind(c, &sp, s, SockAddr::new(HostId(1), PORT)).at("bind")?;
                api::listen(c, &sp, s, 1).at("listen")?;
                let (fd, _) = api::accept(c, &sp, s).at("accept")?;
                api::set_option(c, &sp, fd, SockOption::RecvBuf(SOCKBUF)).at("setsockopt")?;
                let mbps = sink_stream(c, &shs, &sp, fd, recv, &pat, total)?;
                shs.report(Measured {
                    value: mbps,
                    aux: 0.0,
                    msgs: msgs as u64,
                    bytes: total as u64,
                });
                // The terminating application-level acknowledgment.
                shs.probe
                    .time(send, || api::send_all(c, &sp, fd, b"A"))
                    .at("send")?;
                api::close(c, &sp, fd).at("close")?;
                api::close(c, &sp, s).at("close")
            })
        });
        let sh = Arc::clone(&sh2);
        h.spawn("source", move |c| {
            sh.guard(|| {
                c.sleep(SimDuration::from_millis(1));
                let s = api::socket(c, &cp, stype).at("socket")?;
                api::set_option(c, &cp, s, SockOption::SendBuf(SOCKBUF)).at("setsockopt")?;
                api::connect(c, &cp, s, SockAddr::new(HostId(1), PORT)).at("connect")?;
                sh.open_window();
                let sent = if sabotage == Sabotage::Short {
                    msgs - 1
                } else {
                    msgs
                };
                for m in 0..sent {
                    let mut msg = pat.bytes((m * size) as u64, size);
                    if sabotage == Sabotage::Corrupt && m == msgs / 2 {
                        msg[0] ^= 0xFF;
                    }
                    sh.probe
                        .time(send, || api::send_all(c, &cp, s, &msg))
                        .at("send")?;
                }
                if sabotage == Sabotage::Short {
                    return api::close(c, &cp, s).at("close");
                }
                // Wait for the receiver's acknowledgment (paper method).
                let ack = sh
                    .probe
                    .time(recv, || api::recv_exact(c, &cp, s, 1))
                    .at("recv")?;
                if ack.as_slice() != b"A" {
                    return Err(PointError::Short {
                        want: 1,
                        got: ack.len() as u64,
                    });
                }
                api::close(c, &cp, s).at("close")
            })
        });
    });
}

fn native_stream(sim: &Simulation, sh: Arc<Shared>, seed: u64, size: usize, total: usize) {
    let (m0, m1) = testbed::clan_pair(&sim.handle());
    sh.keep(&[&m0, &m1]);
    let n0 = ViaNic::of(&m0);
    let n1 = ViaNic::of(&m1);
    let pat = Pattern::new(seed, LANE_DATA);
    let msgs = total.div_ceil(size);
    let total = msgs * size;
    // A descriptor ring deep enough to keep the NIC busy.
    let ring = 64usize.min(msgs + 1);
    let slot = size.max(64);
    {
        let sh = Arc::clone(&sh);
        sim.spawn("sink", move |ctx| {
            sh.guard(|| {
                let p = m1.spawn_process("sink");
                let vi = n1.create_vi(ViAttributes::default());
                n1.listen(1);
                let va = p.alloc(ctx, ring * slot);
                let region = MemRegion::register(ctx, &p, va, ring * slot);
                for i in 0..ring {
                    sh.probe
                        .time(Slot::ViaPost, || {
                            vi.post_recv(ctx, Descriptor::recv(Arc::clone(&region), i * slot, slot))
                        })
                        .at("VipPostRecv")?;
                }
                let pending = n1.connect_wait(ctx, 1);
                n1.connect_accept(ctx, &pending, &vi)
                    .at("VipConnectAccept")?;
                for _ in 0..msgs {
                    let done = sh
                        .probe
                        .time(Slot::ViaWait, || vi.recv_wait(ctx, WaitMode::Poll))
                        .at("VipRecvWait")?;
                    // Every send carries the same registered buffer.
                    let n = done.status().xfer_len.min(size);
                    verify(&pat, 0, size, &done.region.dma_read(done.offset, n))?;
                    // Recycle the descriptor's slot immediately.
                    let fresh = Descriptor::recv(Arc::clone(&done.region), done.offset, slot);
                    sh.probe
                        .time(Slot::ViaPost, || vi.post_recv(ctx, fresh))
                        .at("VipPostRecv")?;
                }
                Ok(())
            })
        });
    }
    sim.spawn("source", move |ctx| {
        sh.guard(|| {
            let p = m0.spawn_process("source");
            let vi = n0.create_vi(ViAttributes::default());
            ctx.sleep(SimDuration::from_millis(1));
            n0.connect_request(ctx, &vi, ViaNicId(1), 1)
                .at("VipConnectRequest")?;
            let va = p.alloc(ctx, slot);
            let region = MemRegion::register(ctx, &p, va, slot);
            region.dma_write(0, &pat.bytes(0, size));
            sh.open_window();
            let t0 = ctx.now();
            let mut outstanding = 0usize;
            for _ in 0..msgs {
                // Keep up to `ring` sends in flight without overrunning
                // the receiver's descriptor recycling.
                while outstanding >= ring - 1 {
                    sh.probe
                        .time(Slot::ViaWait, || vi.send_wait(ctx, WaitMode::Poll))
                        .at("VipSendWait")?;
                    outstanding -= 1;
                }
                sh.probe
                    .time(Slot::ViaPost, || {
                        vi.post_send(ctx, Descriptor::send(Arc::clone(&region), 0, size, None))
                    })
                    .at("VipPostSend")?;
                outstanding += 1;
            }
            while outstanding > 0 {
                sh.probe
                    .time(Slot::ViaWait, || vi.send_wait(ctx, WaitMode::Poll))
                    .at("VipSendWait")?;
                outstanding -= 1;
            }
            let secs = ctx.now().since(t0).as_secs_f64();
            sh.report(Measured {
                value: total as f64 * 8.0 / secs / 1e6,
                aux: 0.0,
                msgs: msgs as u64,
                bytes: total as u64,
            });
            Ok(())
        })
    });
}

// ----- Figure 7: RPC ----------------------------------------------------------

fn rpc(
    sim: &Simulation,
    sh: Arc<Shared>,
    seed: u64,
    platform: RpcPlatform,
    arg_len: usize,
    calls: u32,
) {
    let transport = match platform {
        RpcPlatform::SoviaClan => RpcTransport::Via,
        _ => RpcTransport::Tcp,
    };
    // A seeded lowercase argument string.
    let arg: String = Pattern::new(seed, LANE_RPC)
        .bytes(0, arg_len)
        .iter()
        .map(|b| char::from(b'a' + b % 26))
        .collect();
    let sh2 = Arc::clone(&sh);
    let run = move |ctx: &SimCtx, m0: Machine, m1: Machine| {
        sh2.keep(&[&m0, &m1]);
        let (cp, sp) = testbed::procs(&m0, &m1);
        spawn_echo_server(ctx.handle(), sp, HostId(1), transport, Some(1));
        let sh = Arc::clone(&sh2);
        ctx.handle().spawn("rpc-client", move |c| {
            sh.guard(|| {
                c.sleep(SimDuration::from_millis(1));
                let clnt = echo_client(c, &cp, HostId(1), transport).at("clnt_create")?;
                let call = || -> Result<(), PointError> {
                    if arg_len == 0 {
                        sh.probe
                            .time(Slot::RpcCall, || echo_null_1(c, &clnt))
                            .at("echo_null_1")
                    } else {
                        let r = sh
                            .probe
                            .time(Slot::RpcCall, || echo_len_1(c, &clnt, &arg))
                            .at("echo_len_1")?;
                        if r as i64 != arg_len as i64 {
                            return Err(PointError::BadEcho {
                                want: arg_len as i64,
                                got: i64::from(r),
                            });
                        }
                        Ok(())
                    }
                };
                call()?; // warm-up
                sh.open_window();
                let t0 = c.now();
                for _ in 0..calls {
                    call()?;
                }
                sh.report(Measured {
                    value: c.now().since(t0).as_micros_f64() / f64::from(calls),
                    aux: 0.0,
                    msgs: u64::from(calls + 1),
                    bytes: u64::from(calls + 1) * arg_len as u64,
                });
                clnt.destroy(c);
                Ok(())
            })
        });
    };
    match platform {
        RpcPlatform::TcpFastEthernet => {
            let (m0, m1) = testbed::tcp_ethernet_pair(&sim.handle());
            sim.spawn("bootstrap", move |ctx| run(ctx, m0, m1));
        }
        RpcPlatform::TcpClan => testbed::clan_dual_stack(sim, SoviaConfig::combine(), run),
        RpcPlatform::SoviaClan => {
            let (m0, m1) = testbed::sovia_pair(&sim.handle(), SoviaConfig::combine());
            sim.spawn("bootstrap", move |ctx| run(ctx, m0, m1));
        }
    }
}

// ----- Table 1: FTP and the local copy ---------------------------------------

/// A seeded file body of `len` bytes.
fn file_body(pat: &Pattern, len: u64) -> Vec<u8> {
    pat.bytes(0, len as usize)
}

/// Check a whole file against the pattern.
fn verify_file(m: &Machine, path: &str, pat: &Pattern, len: u64) -> Result<(), PointError> {
    let got = m.fs().contents(path).at("read back")?;
    verify(pat, 0, len as usize, &got)?;
    if got.len() as u64 != len {
        return Err(PointError::Short {
            want: len,
            got: got.len() as u64,
        });
    }
    Ok(())
}

fn ftp(sim: &Simulation, sh: Arc<Shared>, seed: u64, platform: Platform, file_len: u64) {
    let transports = match platform {
        Platform::SoviaClan => FtpTransports::sovia(),
        _ => FtpTransports::tcp(),
    };
    let pat = Pattern::new(seed, LANE_FILE);
    let sh2 = Arc::clone(&sh);
    let run = move |ctx: &SimCtx, m0: Machine, m1: Machine| {
        sh2.keep(&[&m0, &m1]);
        let (cp, sp) = testbed::procs(&m0, &m1);
        m1.fs().add_file("pub/file.bin", file_body(&pat, file_len));
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
        let sh = Arc::clone(&sh2);
        ctx.handle().spawn("ftp-client", move |c| {
            sh.guard(|| {
                c.sleep(SimDuration::from_millis(1));
                let mut ftp = FtpClient::connect(c, &cp, HostId(1), FTP_PORT, transports)
                    .at("ftp connect")?;
                sh.open_window();
                let stats = sh
                    .probe
                    .time(Slot::FtpRetr, || ftp.retr(c, "pub/file.bin", "file.bin"))
                    .at("RETR")?;
                if stats.bytes != file_len {
                    return Err(PointError::Short {
                        want: file_len,
                        got: stats.bytes,
                    });
                }
                ftp.quit(c).at("QUIT")?;
                verify_file(&m0, "file.bin", &pat, file_len)?;
                sh.report(Measured {
                    value: stats.mbps(),
                    aux: stats.elapsed.as_secs_f64(),
                    msgs: 1,
                    bytes: file_len,
                });
                Ok(())
            })
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
        Platform::LocalCopy => unreachable!("local copy has its own driver"),
    }
}

fn local_copy(sim: &Simulation, sh: Arc<Shared>, seed: u64, file_len: u64) {
    let (m0, m1) = testbed::clan_pair(&sim.handle());
    sh.keep(&[&m0, &m1]);
    let pat = Pattern::new(seed, LANE_FILE);
    m0.fs().add_file("src.bin", file_body(&pat, file_len));
    sim.spawn("cp", move |ctx| {
        sh.guard(|| {
            let p = m0.spawn_process("cp");
            sh.open_window();
            let t0 = ctx.now();
            let src = p.open(ctx, "src.bin", OpenMode::Read).at("open")?;
            let dst = p.open(ctx, "dst.bin", OpenMode::Write).at("open")?;
            loop {
                let chunk = p.read(ctx, src, 8 * 1024).at("read")?;
                if chunk.is_empty() {
                    break;
                }
                p.write(ctx, dst, &chunk).at("write")?;
            }
            p.close(ctx, src).at("close")?;
            p.close(ctx, dst).at("close")?;
            let secs = ctx.now().since(t0).as_secs_f64();
            verify_file(&m0, "dst.bin", &pat, file_len)?;
            sh.report(Measured {
                value: file_len as f64 * 8.0 / secs / 1e6,
                aux: secs,
                msgs: 1,
                bytes: file_len,
            });
            Ok(())
        })
    });
}

// ----- lossy TCP streams (the fault-sweep path) -------------------------------

fn lossy(
    sim: &Simulation,
    sh: Arc<Shared>,
    seed: u64,
    fault_seed: u64,
    loss_p: f64,
    msg: usize,
    total: usize,
) {
    let h = sim.handle();
    let plan = FaultPlan::drops(fault_seed, loss_p);
    let (m0, m1, f01, f10) = testbed::tcp_ethernet_pair_with_faults(&h, &plan, &FaultPlan::empty());
    sh.keep(&[&m0, &m1]);
    sh.keep_faults(f01);
    sh.keep_faults(f10);
    let pat = Pattern::new(seed, LANE_DATA);
    let msgs = total.div_ceil(msg);
    let total = msgs * msg;
    let (cp, sp) = testbed::procs(&m0, &m1);
    {
        let sh = Arc::clone(&sh);
        sim.spawn("sink", move |ctx| {
            sh.guard(|| {
                let s = api::socket(ctx, &sp, SockType::Stream).at("socket")?;
                api::bind(ctx, &sp, s, SockAddr::new(HostId(1), PORT)).at("bind")?;
                api::listen(ctx, &sp, s, 1).at("listen")?;
                let (c, _) = api::accept(ctx, &sp, s).at("accept")?;
                api::set_option(ctx, &sp, c, SockOption::RecvBuf(SOCKBUF)).at("setsockopt")?;
                let mut got = 0usize;
                let mut t_first: Option<SimTime> = None;
                let mut t_last = ctx.now();
                let mut max_stall = 0f64;
                while got < total {
                    let d = sh
                        .probe
                        .time(Slot::RecvTcp, || api::recv(ctx, &sp, c, SINK_CHUNK))
                        .at("recv")?;
                    if d.is_empty() {
                        break;
                    }
                    verify(&pat, got as u64, d.len(), &d)?;
                    let now = ctx.now();
                    match t_first {
                        None => t_first = Some(now),
                        Some(_) => max_stall = max_stall.max(now.since(t_last).as_micros_f64()),
                    }
                    t_last = now;
                    got += d.len();
                }
                if got < total {
                    return Err(PointError::Short {
                        want: total as u64,
                        got: got as u64,
                    });
                }
                let goodput = match t_first {
                    Some(t0) if t_last.since(t0).as_secs_f64() > 0.0 => {
                        got as f64 * 8.0 / t_last.since(t0).as_secs_f64() / 1e6
                    }
                    _ => 0.0,
                };
                sh.report(Measured {
                    value: goodput,
                    aux: max_stall,
                    msgs: msgs as u64,
                    bytes: total as u64,
                });
                sh.probe
                    .time(Slot::SendTcp, || api::send_all(ctx, &sp, c, b"A"))
                    .at("send")?;
                api::close(ctx, &sp, c).at("close")?;
                api::close(ctx, &sp, s).at("close")
            })
        });
    }
    sim.spawn("source", move |ctx| {
        sh.guard(|| {
            ctx.sleep(SimDuration::from_millis(1));
            let s = api::socket(ctx, &cp, SockType::Stream).at("socket")?;
            api::set_option(ctx, &cp, s, SockOption::SendBuf(SOCKBUF)).at("setsockopt")?;
            api::connect(ctx, &cp, s, SockAddr::new(HostId(1), PORT)).at("connect")?;
            sh.open_window();
            for m in 0..msgs {
                let payload = pat.bytes((m * msg) as u64, msg);
                sh.probe
                    .time(Slot::SendTcp, || api::send_all(ctx, &cp, s, &payload))
                    .at("send")?;
            }
            sh.probe
                .time(Slot::RecvTcp, || api::recv_exact(ctx, &cp, s, 1))
                .at("recv")?;
            api::close(ctx, &cp, s).at("close")
        })
    });
}
