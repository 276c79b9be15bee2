//! Host-clock readings around each call the drivers make into a layer.
//! Off (one branch, no clock read) on untraced runs; on traced runs every
//! timed call adds its host nanoseconds and a count to its [`Slot`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A layer entry point the drivers time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// `sockets::api::send_all` on a TCP socket.
    SendTcp,
    /// `sockets::api::send_all` on a SOVIA socket.
    SendSovia,
    /// `sockets::api::recv`/`recv_exact` on a TCP socket.
    RecvTcp,
    /// `sockets::api::recv`/`recv_exact` on a SOVIA socket.
    RecvSovia,
    /// `via::Vi::post_send`/`post_recv`.
    ViaPost,
    /// `via::Vi::send_wait`/`recv_wait`.
    ViaWait,
    /// `apps::ftp::FtpClient::retr`.
    FtpRetr,
    /// One `apps::rpc::echo` call.
    RpcCall,
}

/// Number of [`Slot`]s.
pub const SLOTS: usize = 8;

/// Per-slot `(host ns, calls)` totals.
pub type Totals = [(u64, u64); SLOTS];

/// The accumulators of one point. Relaxed atomics: each is a statistic
/// that publishes no other data.
pub struct Probe {
    on: bool,
    ns: [AtomicU64; SLOTS],
    calls: [AtomicU64; SLOTS],
}

impl Probe {
    /// Accumulators, recording only when `on`.
    pub fn new(on: bool) -> Probe {
        Probe {
            on,
            ns: Default::default(),
            calls: Default::default(),
        }
    }

    /// Run `f`, adding its host time to `slot` when recording.
    pub fn time<R>(&self, slot: Slot, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.ns[slot as usize].fetch_add(ns, Ordering::Relaxed);
        self.calls[slot as usize].fetch_add(1, Ordering::Relaxed);
        r
    }

    /// The totals so far.
    pub fn totals(&self) -> Totals {
        std::array::from_fn(|i| {
            (
                self.ns[i].load(Ordering::Relaxed),
                self.calls[i].load(Ordering::Relaxed),
            )
        })
    }
}
