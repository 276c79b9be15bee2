//! Stackful coroutines ("fibers"): the carrier of simulation processes.
//!
//! Every process of a [`crate::Simulation`] runs on its own fiber, and all
//! fibers of a simulation run on the OS thread that called `run()`. Passing
//! the execution token is [`switch`]: save the callee-saved registers on
//! the current stack, store the stack pointer, load another, restore. No
//! kernel entry, no futex, no OS scheduler.
//!
//! Each stack is an `mmap` of [`STACK_BYTES`] (the size of std's default
//! thread stack) reserved with `MAP_NORESERVE`, so pages are committed
//! only when touched, with one `PROT_NONE` guard page below it. Running
//! off the end hits the guard page and the process dies of a plain
//! SIGSEGV: std's "has overflowed its stack" message only knows about the
//! guard pages of real threads.
//!
//! Stacks are pooled: a dropped fiber's stack, guard page and committed
//! pages included, goes into one process-wide pool, and the next
//! [`Fiber::new`] on any thread takes it from there, so a spawn skips
//! `mmap`, `mprotect`, first-touch page faults and `munmap`. The pool
//! holds at most [`POOL_CAP`] stacks; that caps both the address space
//! (2 MiB each) and the committed pages it keeps. A fiber dropped while
//! the pool is full is unmapped.
//!
//! x86-64 Linux only (System V calling convention, Linux `mmap` flags).

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("dsim's fiber carrier supports x86-64 Linux only");

use std::cell::UnsafeCell;
use std::ffi::c_void;
use std::ptr;

use parking_lot::Mutex;

/// Usable bytes of one fiber stack.
const STACK_BYTES: usize = 2 << 20;
const PAGE: usize = 4096;
/// Most stacks [`POOL`] keeps mapped for reuse.
const POOL_CAP: usize = 128;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x2_0000;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

/// Where a suspended context's stack pointer is kept. [`switch`] writes
/// it when leaving a context and reads it when entering one.
#[repr(transparent)]
pub(crate) struct Context(UnsafeCell<*mut u8>);

// SAFETY: the one field is a stack pointer that only `switch` reads or
// writes, and only on the OS thread that holds the simulation's token.
unsafe impl Send for Context {}
// SAFETY: as above; shared references are only ever turned into the raw
// pointers `switch` takes.
unsafe impl Sync for Context {}

impl Context {
    /// A context to save into; it holds nothing to resume until a
    /// `switch` away from it stores the stack pointer.
    pub(crate) const fn empty() -> Context {
        Context(UnsafeCell::new(ptr::null_mut()))
    }
}

/// Base of one stack mapping, guard page included.
struct Stack(*mut u8);

// SAFETY: a pooled stack is an unused private mapping; whoever pops it
// owns it.
unsafe impl Send for Stack {}

/// Stacks of finished fibers, still mapped, guard page in place, for any
/// thread's next [`Fiber::new`].
static POOL: Mutex<Vec<Stack>> = Mutex::new(Vec::new());

/// A stack from the pool, or a fresh mapping with its guard page.
fn take_stack() -> *mut u8 {
    if let Some(Stack(map)) = POOL.lock().pop() {
        return map;
    }
    let len = STACK_BYTES + PAGE;
    // SAFETY: an anonymous private mapping at an address of the kernel's
    // choosing aliases nothing; the result is checked below.
    let map = unsafe {
        mmap(
            ptr::null_mut(),
            len,
            PROT_READ | PROT_WRITE,
            MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
            -1,
            0,
        )
    };
    assert!(
        map as isize != -1,
        "mmap of a {len}-byte fiber stack failed"
    );
    // SAFETY: the first page lies inside the mapping just made.
    let rc = unsafe { mprotect(map, PAGE, PROT_NONE) };
    assert_eq!(rc, 0, "mprotect of a fiber guard page failed");
    map.cast::<u8>()
}

/// A suspended coroutine: its stack and its saved context.
pub(crate) struct Fiber {
    ctx: Context,
    /// Base of the mapping, guard page included.
    map: *mut u8,
}

// SAFETY: `map` is a private mapping owned by this fiber and only touched
// by the OS thread that switches into it; `ctx` is `Send` (see above).
unsafe impl Send for Fiber {}

impl Fiber {
    /// A fiber whose first `switch` into it calls `entry(a0, a1)` on its
    /// own stack. `entry` must never return: it leaves by switching away.
    pub(crate) fn new(entry: extern "C" fn(usize, usize) -> !, a0: usize, a1: usize) -> Box<Fiber> {
        let len = STACK_BYTES + PAGE;
        let map = take_stack();

        // The first frame `switch` restores, from the saved stack pointer
        // up: MXCSR and x87 control word, r15, r14, r13, r12, rbx, rbp, the
        // return address (`fiber_start`), and a zero that ends backtraces.
        // `fiber_start` starts with rsp on that zero, 16-byte aligned, so
        // its `call` enters `entry` with the ABI's alignment.
        let frame: [u64; 9] = [
            0x037F_0000_1F80, // MXCSR 0x1F80, x87 control word 0x037F (the defaults)
            0,
            entry as usize as u64,
            a1 as u64,
            a0 as u64,
            0,
            0,
            fiber_start as *const () as u64,
            0,
        ];
        // SAFETY: the mapping is `len` bytes, so its top minus 80 bytes is
        // in bounds, 16-byte aligned (the mapping is page-aligned) and
        // leaves room for the 72-byte frame.
        let sp = unsafe {
            let sp = map.add(len - 80);
            ptr::copy_nonoverlapping(frame.as_ptr(), sp.cast::<u64>(), frame.len());
            sp
        };
        Box::new(Fiber {
            ctx: Context(UnsafeCell::new(sp)),
            map,
        })
    }

    /// The context this fiber is resumed from and saves into.
    pub(crate) fn context(&self) -> &Context {
        &self.ctx
    }
}

impl Drop for Fiber {
    /// Callers drop a fiber only once it can no longer be resumed, so
    /// nothing lives on its stack: it goes back to the pool, or is
    /// unmapped when the pool is full.
    fn drop(&mut self) {
        let mut pool = POOL.lock();
        if pool.len() < POOL_CAP {
            pool.push(Stack(self.map));
            return;
        }
        drop(pool);
        // SAFETY: `map` is a mapping made by `take_stack`, and no longer
        // in use (see above).
        unsafe { munmap(self.map.cast(), STACK_BYTES + PAGE) };
    }
}

/// Entry of a new fiber: `switch` returns here with r12/r13 holding the
/// two arguments and r14 the entry function.
#[unsafe(naked)]
unsafe extern "C" fn fiber_start() {
    core::arch::naked_asm!("mov rdi, r12", "mov rsi, r13", "call r14", "ud2");
}

/// Save the current context into `save` and resume the one in `to`.
/// Returns when some later `switch` resumes `save`.
///
/// Saves what the System V ABI makes callee-saved: rbx, rbp, r12-r15,
/// the MXCSR control bits and the x87 control word.
///
/// # Safety
///
/// `save` and `to` must point to live `Context`s. `to` must hold a context
/// saved by an earlier `switch` (or set up by [`Fiber::new`]) that has not
/// been resumed since, and whose stack is still mapped.
#[unsafe(naked)]
pub(crate) unsafe extern "C" fn switch(save: *const Context, to: *const Context) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, [rsi]",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    );
}
