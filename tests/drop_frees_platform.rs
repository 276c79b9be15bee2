//! Dropping a `Simulation` frees everything built on it: machines, NICs,
//! protocol stacks, library instances, processes, ramdisk files, and the
//! closures of processes and callbacks that never ran.
//!
//! A counting global allocator tracks live heap bytes. Each scenario is
//! warmed up twice (process-wide pools and lazily built statics settle),
//! then run for five rounds of build → run → drop; the live bytes must not
//! grow by a kilobyte. One `#[test]` keeps the binary single-threaded, so
//! nothing else allocates between two readings.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use apps::ftp::{spawn_ftp_server, FtpClient, FtpServerConfig, FtpTransports, FTP_PORT};
use dsim::{SimDuration, SimError, Simulation};
use simos::HostId;
use sovia_repro::sockets::{api, SockAddr, SockType};
use sovia_repro::sovia::SoviaConfig;
use sovia_repro::testbed;

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ROUNDS: isize = 5;

/// Live heap bytes that five rounds of `round` leave behind.
fn leaked_over_rounds(round: impl Fn()) -> isize {
    round();
    round();
    let before = LIVE.load(Ordering::Relaxed);
    for _ in 0..ROUNDS {
        round();
    }
    LIVE.load(Ordering::Relaxed) - before
}

/// A SOVIA ping-pong of `rounds` 64-byte messages on a fresh `sovia_pair`;
/// returns the simulation unrun.
fn sovia_pingpong(rounds: usize) -> Simulation {
    let sim = Simulation::new();
    let (m0, m1) = testbed::sovia_pair(&sim.handle(), SoviaConfig::default());
    let (cp, sp) = testbed::procs(&m0, &m1);
    sim.spawn("pong", move |ctx| {
        let s = api::socket(ctx, &sp, SockType::Via).unwrap();
        api::bind(ctx, &sp, s, SockAddr::new(HostId(1), 7)).unwrap();
        api::listen(ctx, &sp, s, 1).unwrap();
        let (c, _) = api::accept(ctx, &sp, s).unwrap();
        for _ in 0..rounds {
            let m = api::recv_exact(ctx, &sp, c, 64).unwrap();
            api::send_all(ctx, &sp, c, &m).unwrap();
        }
        api::close(ctx, &sp, c).unwrap();
        api::close(ctx, &sp, s).unwrap();
    });
    sim.spawn("ping", move |ctx| {
        ctx.sleep(SimDuration::from_micros(50));
        let s = api::socket(ctx, &cp, SockType::Via).unwrap();
        api::connect(ctx, &cp, s, SockAddr::new(HostId(1), 7)).unwrap();
        for _ in 0..rounds {
            api::send_all(ctx, &cp, s, &[7u8; 64]).unwrap();
            api::recv_exact(ctx, &cp, s, 64).unwrap();
        }
        api::close(ctx, &cp, s).unwrap();
    });
    sim
}

fn sovia_pair_pingpong() {
    sovia_pingpong(20).run().unwrap();
}

fn tcp_ethernet_stream() {
    let mut sim = Simulation::new();
    let (m0, m1) = testbed::tcp_ethernet_pair(&sim.handle());
    let (cp, sp) = testbed::procs(&m0, &m1);
    const BYTES: usize = 64 << 10;
    sim.spawn("sink", move |ctx| {
        let s = api::socket(ctx, &sp, SockType::Stream).unwrap();
        api::bind(ctx, &sp, s, SockAddr::new(HostId(1), 9)).unwrap();
        api::listen(ctx, &sp, s, 1).unwrap();
        let (c, _) = api::accept(ctx, &sp, s).unwrap();
        api::recv_exact(ctx, &sp, c, BYTES).unwrap();
        api::close(ctx, &sp, c).unwrap();
        api::close(ctx, &sp, s).unwrap();
    });
    sim.spawn("source", move |ctx| {
        ctx.sleep(SimDuration::from_micros(50));
        let s = api::socket(ctx, &cp, SockType::Stream).unwrap();
        api::connect(ctx, &cp, s, SockAddr::new(HostId(1), 9)).unwrap();
        for _ in 0..BYTES / 4096 {
            api::send_all(ctx, &cp, s, &[1u8; 4096]).unwrap();
        }
        api::close(ctx, &cp, s).unwrap();
    });
    sim.run().unwrap();
}

/// One TCP (over LANE) and one SOVIA connection on the full cLAN platform.
fn clan_dual_stack_both_connections() {
    let mut sim = Simulation::new();
    testbed::clan_dual_stack(&sim, SoviaConfig::default(), |ctx, m0, m1| {
        let (cp, sp) = testbed::procs(&m0, &m1);
        ctx.handle().spawn("server", move |sctx| {
            let tcp = api::socket(sctx, &sp, SockType::Stream).unwrap();
            api::bind(sctx, &sp, tcp, SockAddr::new(HostId(1), 80)).unwrap();
            api::listen(sctx, &sp, tcp, 1).unwrap();
            let via = api::socket(sctx, &sp, SockType::Via).unwrap();
            api::bind(sctx, &sp, via, SockAddr::new(HostId(1), 81)).unwrap();
            api::listen(sctx, &sp, via, 1).unwrap();
            let (c1, _) = api::accept(sctx, &sp, tcp).unwrap();
            api::recv_exact(sctx, &sp, c1, 100).unwrap();
            let (c2, _) = api::accept(sctx, &sp, via).unwrap();
            api::recv_exact(sctx, &sp, c2, 100).unwrap();
            for fd in [c1, c2, tcp, via] {
                api::close(sctx, &sp, fd).unwrap();
            }
        });
        ctx.handle().spawn("client", move |cctx| {
            cctx.sleep(SimDuration::from_millis(1));
            let tcp = api::socket(cctx, &cp, SockType::Stream).unwrap();
            api::connect(cctx, &cp, tcp, SockAddr::new(HostId(1), 80)).unwrap();
            api::send_all(cctx, &cp, tcp, &[2u8; 100]).unwrap();
            let via = api::socket(cctx, &cp, SockType::Via).unwrap();
            api::connect(cctx, &cp, via, SockAddr::new(HostId(1), 81)).unwrap();
            api::send_all(cctx, &cp, via, &[3u8; 100]).unwrap();
            api::close(cctx, &cp, tcp).unwrap();
            api::close(cctx, &cp, via).unwrap();
        });
    });
    sim.run().unwrap();
}

/// An FTP RETR over TCP on Fast Ethernet (Table 1's baseline transport).
fn ftp_retr_over_tcp() {
    let mut sim = Simulation::new();
    let (m0, m1) = testbed::tcp_ethernet_pair(&sim.handle());
    let (cp, sp) = testbed::procs(&m0, &m1);
    m1.fs().add_file("pub/file.bin", vec![5u8; 100_000]);
    spawn_ftp_server(
        &sim.handle(),
        sp,
        FtpServerConfig {
            transports: FtpTransports::tcp(),
            max_sessions: Some(1),
            ..Default::default()
        },
    );
    sim.spawn("ftp-client", move |ctx| {
        ctx.sleep(SimDuration::from_micros(500));
        let mut ftp = FtpClient::connect(ctx, &cp, HostId(1), FTP_PORT, FtpTransports::tcp()).unwrap();
        let stats = ftp.retr(ctx, "pub/file.bin", "file.bin").unwrap();
        assert_eq!(stats.bytes, 100_000);
        ftp.quit(ctx).unwrap();
    });
    sim.run().unwrap();
}

/// A fork whose parent and child both write the COW-shared page.
fn process_fork() {
    let mut sim = Simulation::new();
    let (m0, _m1) = testbed::sovia_pair(&sim.handle(), SoviaConfig::default());
    let parent = m0.spawn_process("parent");
    sim.spawn("parent", move |ctx| {
        let va = parent.alloc(ctx, 8192);
        parent.write_mem(ctx, va, b"before fork");
        parent.fork(ctx, "child", move |cctx, child| {
            child.write_mem(cctx, va, b"child");
        });
        parent.write_mem(ctx, va, b"parent");
        ctx.sleep(SimDuration::from_micros(10));
    });
    sim.run().unwrap();
}

/// A ping-pong stopped by its event budget mid-conversation, with wakes
/// and callbacks still queued and every process parked.
fn run_stopped_by_event_limit() {
    let mut sim = sovia_pingpong(1_000);
    match sim.run_with_limit(2_000) {
        Err(SimError::EventLimit { .. }) => {}
        other => panic!("expected EventLimit, got {other:?}"),
    }
}

#[test]
fn dropping_a_simulation_frees_its_platform() {
    let scenarios: [(&str, fn()); 6] = [
        ("sovia_pair ping-pong", sovia_pair_pingpong),
        ("tcp_ethernet_pair stream", tcp_ethernet_stream),
        ("clan_dual_stack TCP + SOVIA", clan_dual_stack_both_connections),
        ("FTP RETR over TCP/Fast Ethernet", ftp_retr_over_tcp),
        ("Process::fork", process_fork),
        ("run_with_limit stop", run_stopped_by_event_limit),
    ];
    let leaks: Vec<(&str, isize)> = scenarios
        .iter()
        .map(|&(name, round)| (name, leaked_over_rounds(round)))
        .collect();
    for &(name, leaked) in &leaks {
        assert!(
            leaked < 1024,
            "{name}: {leaked} live bytes left after {ROUNDS} dropped simulations; all: {leaks:?}"
        );
    }
}
