//! Process-wide OS accounting through `getrusage(2)`, declared directly
//! (no libc crate): CPU time split into user and kernel, context
//! switches, and peak resident memory. Linux/x86-64 layout.

use std::time::Duration;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out by glibc/musl on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// A snapshot of the whole process's resource use (all threads, live and
/// exited).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User-mode CPU time.
    pub user: Duration,
    /// Kernel-mode CPU time.
    pub sys: Duration,
    /// Voluntary plus involuntary context switches.
    pub switches: u64,
    /// Peak resident set size, KiB.
    pub max_rss_kib: u64,
}

fn to_duration(t: &Timeval) -> Duration {
    Duration::from_secs(t.sec.max(0) as u64) + Duration::from_micros(t.usec.max(0) as u64)
}

impl Usage {
    /// Read the current usage of this process.
    pub fn now() -> Usage {
        let mut ru = RUsage::default();
        // SAFETY: `ru` is a valid, writable `struct rusage` with the
        // 64-bit Linux layout declared above; RUSAGE_SELF is a valid
        // `who`, so the call only writes within `ru`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        Usage {
            user: to_duration(&ru.utime),
            sys: to_duration(&ru.stime),
            switches: (ru.nvcsw + ru.nivcsw).max(0) as u64,
            max_rss_kib: ru.maxrss.max(0) as u64,
        }
    }

    /// User + kernel CPU time.
    pub fn cpu(&self) -> Duration {
        self.user + self.sys
    }

    /// Resource use between `earlier` and `self` (peak RSS is kept as the
    /// later high-water mark, not differenced).
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
            switches: self.switches.saturating_sub(earlier.switches),
            max_rss_kib: self.max_rss_kib,
        }
    }
}

/// Host CPUs available to this process.
pub fn host_cpus() -> usize {
    bench::runner::available_threads()
}

/// CPU mask words: room for 1024 CPUs, glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs this thread may run on, in ascending order.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is writable and `size` is its length in bytes; pid 0
    // names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread, and every thread it creates from now on,
/// to `cpu`. Returns false if the kernel refused.
pub fn pin_current_thread(cpu: usize) -> bool {
    if cpu >= MASK_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable CPU set of `size` bytes; pid 0 names
    // the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// System-wide CPU time from the first line of `/proc/stat`, in clock
/// ticks: `(stolen, total)`. Stolen time is time the hypervisor ran
/// something else while a virtual CPU of this machine wanted to run;
/// `(0, 0)` where there is no such file.
pub fn steal_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}
