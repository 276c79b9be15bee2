//! Figure 7: average elapsed time for a single RPC vs argument size.
//!
//! Series: RPC over TCP on Fast Ethernet, RPC over TCP on cLAN (LANE),
//! RPC over SOVIA on cLAN. Argument is a character string of 0..4 KB;
//! the remote procedure body is empty and returns an integer.

use std::sync::Arc;

use apps::rpc::client::Transport;
use apps::rpc::echo::{echo_client, echo_len_1, echo_null_1, spawn_echo_server};
use dsim::{SimDuration, TraceConfig, TraceKind};
use simos::HostId;
use sovia::SoviaConfig;
use sovia_repro::testbed;

use crate::micro::{mark, simulate, RunOutput, Series};
use crate::runner;

/// The argument sizes of Figure 7 (0 = void argument).
pub const FIG7_SIZES: [usize; 12] = [0, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Calls per measurement point.
pub const CALLS: u32 = 30;

/// The three platforms of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcPlatform {
    /// sunrpc over TCP on Fast Ethernet.
    TcpFastEthernet,
    /// sunrpc over TCP on cLAN (LANE driver).
    TcpClan,
    /// sunrpc over SOVIA on cLAN.
    SoviaClan,
}

impl RpcPlatform {
    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            RpcPlatform::TcpFastEthernet => "RPC/TCP(FastEth)",
            RpcPlatform::TcpClan => "RPC/TCP(cLAN)",
            RpcPlatform::SoviaClan => "RPC/SOVIA(cLAN)",
        }
    }
}

/// Mean elapsed µs for a single RPC with an `arg_len`-byte string
/// argument (0 = void), in a fresh simulation. The timed calls are
/// bracketed by measurement-window marks; `trace` switches tracing on.
pub fn rpc_elapsed(platform: RpcPlatform, arg_len: usize, trace: Option<TraceConfig>) -> RunOutput {
    let transport = match platform {
        RpcPlatform::SoviaClan => Transport::Via,
        _ => Transport::Tcp,
    };
    simulate(trace, "RPC", |sim, out| {
        let out = Arc::clone(out);
        let run = move |ctx: &dsim::SimCtx, m0: simos::Machine, m1: simos::Machine| {
            let (cp, sp) = testbed::procs(&m0, &m1);
            spawn_echo_server(ctx.handle(), sp, HostId(1), transport, Some(1));
            let out = Arc::clone(&out);
            ctx.handle().spawn("rpc-client", move |cctx| {
                cctx.sleep(SimDuration::from_millis(1));
                let clnt = echo_client(cctx, &cp, HostId(1), transport).unwrap();
                let arg = "x".repeat(arg_len);
                // Warm-up call.
                do_call(cctx, &clnt, &arg, arg_len);
                mark(cctx, TraceKind::MarkStart);
                let t0 = cctx.now();
                for _ in 0..CALLS {
                    do_call(cctx, &clnt, &arg, arg_len);
                }
                mark(cctx, TraceKind::MarkEnd);
                *out.lock() = cctx.now().since(t0).as_micros_f64() / f64::from(CALLS);
                clnt.destroy(cctx);
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
    })
}

fn do_call(ctx: &dsim::SimCtx, clnt: &apps::rpc::client::Clnt, arg: &str, arg_len: usize) {
    if arg_len == 0 {
        echo_null_1(ctx, clnt).unwrap();
    } else {
        let r = echo_len_1(ctx, clnt, arg).unwrap();
        assert_eq!(r, arg_len as i32);
    }
}

/// Run the whole figure on at most `threads` concurrent simulations:
/// each platform × argument-size point is an independent simulation.
pub fn run_fig7(sizes: &[usize], threads: usize) -> Vec<Series> {
    let platforms = [
        RpcPlatform::TcpFastEthernet,
        RpcPlatform::TcpClan,
        RpcPlatform::SoviaClan,
    ];
    let jobs: Vec<(RpcPlatform, usize)> = platforms
        .iter()
        .flat_map(|&p| sizes.iter().map(move |&s| (p, s)))
        .collect();
    let elapsed = runner::par_map(&jobs, threads, |_, &(p, s)| rpc_elapsed(p, s, None).value);
    platforms
        .iter()
        .enumerate()
        .map(|(pi, &p)| Series {
            name: p.label().to_string(),
            points: sizes
                .iter()
                .enumerate()
                .map(|(si, &s)| (s, elapsed[pi * sizes.len() + si]))
                .collect(),
        })
        .collect()
}
