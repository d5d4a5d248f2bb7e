//! Guard-page fault diagnostics: a SIGSEGV handler that recognises fiber
//! stack overflows and reports them before the process dies.
//!
//! Without this, a task recursing past its fiber stack dies as an anonymous
//! `SIGSEGV` — indistinguishable from memory corruption. The pieces:
//!
//! * a lock-free **registry** of mapped fiber stacks ([`register_stack`] /
//!   [`unregister_stack`], maintained by [`crate::stack::Stack`]);
//! * a process-wide **SIGSEGV handler** ([`install_guard_handler`]) that
//!   classifies the faulting address against the registry: a hit inside a
//!   guard page is reported with the worker label, the stack bounds, the
//!   faulting address, `sp` and `pc`, then the process dies with the default
//!   disposition. Faults that are *not* guard hits are chained to whatever
//!   handler was installed before (e.g. the Rust standard library's own
//!   stack-overflow reporter);
//! * a per-thread **alternate signal stack** ([`AltStack`]) — mandatory for
//!   worker threads, because at the moment of a stack overflow the faulting
//!   thread's stack pointer sits inside the guard page and the handler could
//!   not run on it;
//! * a **thread label** ([`set_thread_label`]) naming the worker in the
//!   report, and an optional **crash hook** ([`set_crash_hook`]) the runtime
//!   uses to drain its flight recorder (the bounded overwrite-oldest ring
//!   of recent scheduler events) and dump its last trace events.
//!
//! Everything on the fault path is async-signal-safe: the report is
//! formatted into a stack buffer and written with raw `write(2)`; the only
//! exception is the crash hook, which is documented as best-effort (the
//! process is already doomed when it runs).

use core::cell::Cell;
use core::ffi::c_void;
use core::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use crate::sys::{self, SysError, PAGE_SIZE};

const SIGSEGV: i32 = 11;
const SA_SIGINFO: usize = 4;
const SA_ONSTACK: usize = 0x0800_0000;
const SA_RESTORER: usize = 0x0400_0000;
const SS_DISABLE: i32 = 2;
/// Kernel sigset size in bytes (Linux `_NSIG / 8`).
const SIGSET_SIZE: usize = 8;
/// Offset of `si_addr` in `siginfo_t` (identical on x86_64 and aarch64).
const SI_ADDR_OFFSET: usize = 16;

/// The kernel's `struct sigaction` as consumed by `rt_sigaction` (both
/// x86_64 and aarch64 lay it out as handler, flags, restorer, mask).
#[repr(C)]
#[derive(Clone, Copy)]
struct KernelSigaction {
    handler: usize,
    flags: usize,
    restorer: usize,
    mask: u64,
}

/// The kernel's `stack_t` for `sigaltstack`.
#[repr(C)]
struct StackT {
    ss_sp: *mut c_void,
    ss_flags: i32,
    ss_size: usize,
}

// The signal trampoline `rt_sigaction` needs with `SA_RESTORER`: the kernel
// returns *to* this code after the handler, and it must invoke
// `rt_sigreturn` (x86_64 nr 15, aarch64 nr 139) to restore the interrupted
// context. Written in global asm because it must not have a prologue.
#[cfg(target_arch = "x86_64")]
core::arch::global_asm!(
    ".global __nowa_rt_sigreturn",
    ".hidden __nowa_rt_sigreturn",
    "__nowa_rt_sigreturn:",
    "mov rax, 15",
    "syscall",
);

#[cfg(target_arch = "aarch64")]
core::arch::global_asm!(
    ".global __nowa_rt_sigreturn",
    ".hidden __nowa_rt_sigreturn",
    "__nowa_rt_sigreturn:",
    "mov x8, #139",
    "svc #0",
);

extern "C" {
    fn __nowa_rt_sigreturn() -> !;
}

// ---------------------------------------------------------------- registry

/// Capacity of the fiber-stack registry. A slot is one live mapped stack;
/// overflowing the registry only loses diagnostics, never correctness.
const MAX_STACKS: usize = 4096;
/// Sentinel marking a slot mid-registration.
const CLAIMED: usize = usize::MAX;

#[allow(clippy::declare_interior_mutable_const)]
static STACK_BASES: [AtomicUsize; MAX_STACKS] = [const { AtomicUsize::new(0) }; MAX_STACKS];
static STACK_LENS: [AtomicUsize; MAX_STACKS] = [const { AtomicUsize::new(0) }; MAX_STACKS];
static REGISTRY_OVERFLOW: AtomicU64 = AtomicU64::new(0);

/// Records a mapped fiber stack (`base` = low end including the guard page,
/// `len` = total mapping length) so the fault handler can attribute hits.
/// Lock-free and wait-free in the common case; called by `Stack::map`.
pub fn register_stack(base: usize, len: usize) {
    for i in 0..MAX_STACKS {
        if STACK_BASES[i]
            .compare_exchange(0, CLAIMED, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            STACK_LENS[i].store(len, Ordering::Relaxed);
            STACK_BASES[i].store(base, Ordering::Release);
            return;
        }
    }
    // Registry full: the stack works fine, it just cannot be diagnosed.
    REGISTRY_OVERFLOW.fetch_add(1, Ordering::Relaxed);
}

/// Removes a stack from the registry; called by `Stack`'s `Drop`.
pub fn unregister_stack(base: usize) {
    for slot in STACK_BASES.iter().take(MAX_STACKS) {
        if slot
            .compare_exchange(base, 0, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            return;
        }
    }
}

// ------------------------------------------------------- labels and hooks

std::thread_local! {
    static THREAD_LABEL: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Labels the calling thread for fault reports (workers pass their index).
pub fn set_thread_label(label: usize) {
    THREAD_LABEL.with(|l| l.set(label));
}

/// The calling thread's label, `usize::MAX` when unlabelled.
pub fn thread_label() -> usize {
    THREAD_LABEL.with(|l| l.get())
}

static CRASH_HOOK: AtomicUsize = AtomicUsize::new(0);

/// Registers a hook run after the guard-page diagnostic has been written,
/// before the process dies.
///
/// The runtime uses this as the third leg of the flight-recorder drain
/// protocol (panic propagation and watchdog stall reports are the other
/// two): the hook snapshots each worker's flight ring — a lock-free read
/// that discards any slot the producer may still be overwriting — merges
/// the retained events by timestamp, and writes the dump to stderr.
///
/// **Best-effort**: the hook runs inside a
/// signal handler on an alternate stack, so it may allocate or lock only
/// because the process is beyond saving anyway — a deadlock here trades a
/// crash for a hang, so hooks should stay minimal.
pub fn set_crash_hook(hook: fn()) {
    CRASH_HOOK.store(hook as *const () as usize, Ordering::Release);
}

// -------------------------------------------------------------- alt stack

/// A per-thread alternate signal stack, installed with `sigaltstack`.
///
/// Worker threads must hold one for guard-page diagnostics to work: when a
/// fiber stack overflows, `sp` points into the guard page and the kernel
/// could not push a signal frame there — without `SA_ONSTACK` + an alt
/// stack the process dies before the handler runs.
pub struct AltStack {
    base: *mut u8,
    len: usize,
}

impl AltStack {
    /// Size of the alternate stack: generous for the handler plus a
    /// best-effort crash hook.
    pub const SIZE: usize = 64 * 1024;

    /// Maps and installs an alternate signal stack for the calling thread.
    pub fn install() -> Result<AltStack, SysError> {
        let len = AltStack::SIZE;
        // SAFETY: fresh anonymous mapping; nothing else is touched.
        let base = unsafe {
            sys::mmap(
                len,
                sys::prot::READ | sys::prot::WRITE,
                sys::map::PRIVATE | sys::map::ANONYMOUS,
            )?
        } as *mut u8;
        let ss = StackT {
            ss_sp: base as *mut c_void,
            ss_flags: 0,
            ss_size: len,
        };
        // SAFETY: `ss` is a fully initialised `StackT` on this stack; the
        // kernel copies it during the call.
        let installed = unsafe {
            sys::sigaltstack(&ss as *const StackT as *const c_void, core::ptr::null_mut())
        };
        match installed {
            Ok(()) => Ok(AltStack { base, len }),
            Err(e) => {
                // SAFETY: unmapping the mapping we just created; it was
                // never installed.
                unsafe {
                    let _ = sys::munmap(base as *mut c_void, len);
                }
                Err(e)
            }
        }
    }
}

impl Drop for AltStack {
    fn drop(&mut self) {
        let ss = StackT {
            ss_sp: core::ptr::null_mut(),
            ss_flags: SS_DISABLE,
            ss_size: 0,
        };
        // SAFETY: disabling the alt stack before unmapping it, so the
        // kernel never redirects a signal onto freed memory; `Drop` owns the
        // mapping exclusively.
        unsafe {
            let _ = sys::sigaltstack(&ss as *const StackT as *const c_void, core::ptr::null_mut());
            let _ = sys::munmap(self.base as *mut c_void, self.len);
        }
    }
}

// SAFETY: the alt stack is raw memory owned by the value; the kernel-side
// registration is per thread and re-done by each worker.
unsafe impl Send for AltStack {}

// ---------------------------------------------------------------- handler

static INSTALLED: AtomicBool = AtomicBool::new(false);
static OLD_HANDLER: AtomicUsize = AtomicUsize::new(0);
static OLD_FLAGS: AtomicUsize = AtomicUsize::new(0);
static OLD_RESTORER: AtomicUsize = AtomicUsize::new(0);
static OLD_MASK: AtomicU64 = AtomicU64::new(0);

/// Installs the process-wide guard-page SIGSEGV handler. Idempotent:
/// returns `Ok(true)` on first installation, `Ok(false)` when already
/// installed. The previously installed action (typically the Rust standard
/// library's stack-overflow reporter) is saved and chained to for faults
/// that are not fiber guard-page hits.
pub fn install_guard_handler() -> Result<bool, SysError> {
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return Ok(false);
    }
    let new = KernelSigaction {
        handler: guard_handler as *const () as usize,
        flags: SA_SIGINFO | SA_ONSTACK | SA_RESTORER,
        restorer: __nowa_rt_sigreturn as *const () as usize,
        mask: 0,
    };
    let mut old = KernelSigaction {
        handler: 0,
        flags: 0,
        restorer: 0,
        mask: 0,
    };
    // SAFETY: `new` and `old` are fully initialised, properly sized
    // kernel-layout sigaction structs living on this stack.
    let result = unsafe {
        sys::rt_sigaction(
            SIGSEGV,
            &new as *const KernelSigaction as *const c_void,
            &mut old as *mut KernelSigaction as *mut c_void,
            SIGSET_SIZE,
        )
    };
    match result {
        Ok(()) => {
            OLD_HANDLER.store(old.handler, Ordering::Relaxed);
            OLD_FLAGS.store(old.flags, Ordering::Relaxed);
            OLD_RESTORER.store(old.restorer, Ordering::Relaxed);
            OLD_MASK.store(old.mask, Ordering::Relaxed);
            Ok(true)
        }
        Err(e) => {
            INSTALLED.store(false, Ordering::SeqCst);
            Err(e)
        }
    }
}

/// Reinstalls an action for `sig` from inside the handler (async-signal-
/// safe: one raw syscall).
///
/// # Safety
/// `act` must describe a valid handler/restorer pair (or SIG_DFL); the call
/// replaces the process-wide disposition for `sig`.
unsafe fn set_action(sig: i32, act: &KernelSigaction) {
    // SAFETY: `act` is a valid kernel-layout struct per the contract above;
    // passing a null old-action pointer is allowed.
    unsafe {
        let _ = sys::rt_sigaction(
            sig,
            act as *const KernelSigaction as *const c_void,
            core::ptr::null_mut(),
            SIGSET_SIZE,
        );
    }
}

/// `sp`/`pc` of the interrupted context, read from the raw `ucontext_t`.
///
/// x86_64: `uc_mcontext` starts at offset 40; `rsp`/`rip` are the 16th/17th
/// general registers (offsets 160/168). aarch64: `uc_mcontext` is 16-byte
/// aligned after the 128-byte `uc_sigmask` (offset 176); `sp`/`pc` follow
/// `fault_address` and `regs[0..31]` (offsets 432/440).
///
/// # Safety
/// `ctx` must be the `ucontext_t` pointer the kernel passed to an
/// `SA_SIGINFO` handler; the hard-coded offsets assume the Linux layout for
/// the current architecture.
unsafe fn fault_sp_pc(ctx: *const c_void) -> (usize, usize) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        let base = ctx.cast::<u8>();
        (
            base.add(160).cast::<usize>().read(),
            base.add(168).cast::<usize>().read(),
        )
    }
    #[cfg(target_arch = "aarch64")]
    unsafe {
        let base = ctx.cast::<u8>();
        (
            base.add(432).cast::<usize>().read(),
            base.add(440).cast::<usize>().read(),
        )
    }
}

/// Fixed-size, allocation-free output buffer for the fault report.
struct Buf {
    data: [u8; 512],
    len: usize,
}

impl Buf {
    fn new() -> Buf {
        Buf {
            data: [0; 512],
            len: 0,
        }
    }

    fn push_str(&mut self, s: &str) {
        for &b in s.as_bytes() {
            if self.len < self.data.len() {
                self.data[self.len] = b;
                self.len += 1;
            }
        }
    }

    fn push_hex(&mut self, v: usize) {
        self.push_str("0x");
        let mut started = false;
        for shift in (0..usize::BITS / 4).rev() {
            let nibble = (v >> (shift * 4)) & 0xF;
            if nibble != 0 {
                started = true;
            }
            if started || shift == 0 {
                let digit = b"0123456789abcdef"[nibble];
                if self.len < self.data.len() {
                    self.data[self.len] = digit;
                    self.len += 1;
                }
            }
        }
    }

    fn push_dec(&mut self, v: usize) {
        let mut digits = [0u8; 20];
        let mut n = v;
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        for &d in &digits[i..] {
            if self.len < self.data.len() {
                self.data[self.len] = d;
                self.len += 1;
            }
        }
    }

    fn as_bytes(&self) -> &[u8] {
        &self.data[..self.len]
    }
}

/// Formats and writes the overflow diagnostic to stderr. Async-signal-safe.
fn report_guard_hit(base: usize, len: usize, addr: usize, sp: usize, pc: usize) {
    let mut buf = Buf::new();
    buf.push_str("nowa: fiber stack overflow: guard page hit on worker ");
    let label = thread_label();
    if label == usize::MAX {
        buf.push_str("<unlabelled thread>");
    } else {
        buf.push_dec(label);
    }
    buf.push_str("\n  stack bounds: ");
    buf.push_hex(base + PAGE_SIZE);
    buf.push_str(" - ");
    buf.push_hex(base + len);
    buf.push_str(" (");
    buf.push_dec(len - PAGE_SIZE);
    buf.push_str(" usable bytes)\n  fault addr: ");
    buf.push_hex(addr);
    buf.push_str("  sp: ");
    buf.push_hex(sp);
    buf.push_str("  pc: ");
    buf.push_hex(pc);
    buf.push_str("\n  hint: raise Config::stack_size or shrink per-frame state\n");
    let _ = sys::write_raw(2, buf.as_bytes());
}

// SAFETY: invoked only by the kernel as an `SA_SIGINFO` SIGSEGV handler, so
// `info`/`ctx` are valid `siginfo_t`/`ucontext_t` pointers. The body is
// async-signal-safe: atomics, raw syscalls, and a stack buffer — no locks,
// no allocation.
unsafe extern "C" fn guard_handler(sig: i32, info: *mut c_void, ctx: *mut c_void) {
    unsafe {
        let addr = info.cast::<u8>().add(SI_ADDR_OFFSET).cast::<usize>().read();
        // Classify the fault against the registry.
        let mut hit: Option<(usize, usize)> = None;
        for i in 0..MAX_STACKS {
            let base = STACK_BASES[i].load(Ordering::Acquire);
            if base == 0 || base == CLAIMED {
                continue;
            }
            let len = STACK_LENS[i].load(Ordering::Relaxed);
            if addr >= base && addr < base + len {
                hit = Some((base, len));
                break;
            }
        }
        match hit {
            Some((base, len)) if addr < base + PAGE_SIZE => {
                // Guard page of a fiber stack: the overflow diagnostic.
                let (sp, pc) = fault_sp_pc(ctx);
                report_guard_hit(base, len, addr, sp, pc);
                let hook = CRASH_HOOK.load(Ordering::Acquire);
                if hook != 0 {
                    let hook: fn() = core::mem::transmute(hook);
                    hook();
                }
                // Die with the default disposition: returning re-executes
                // the faulting access, which the kernel now treats as fatal.
                set_action(
                    sig,
                    &KernelSigaction {
                        handler: 0, // SIG_DFL
                        flags: 0,
                        restorer: 0,
                        mask: 0,
                    },
                );
            }
            _ => {
                // Not ours: restore whoever was installed before us (e.g.
                // std's overflow reporter) and let the refault reach them.
                set_action(
                    sig,
                    &KernelSigaction {
                        handler: OLD_HANDLER.load(Ordering::Relaxed),
                        flags: OLD_FLAGS.load(Ordering::Relaxed),
                        restorer: OLD_RESTORER.load(Ordering::Relaxed),
                        mask: OLD_MASK.load(Ordering::Relaxed),
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_round_trip() {
        // The registry is process-global and sibling tests map and unmap
        // stacks while this runs: follow this test's own (never mapped)
        // address, not the population count.
        const BASE: usize = 0x1000_0000;
        let present = || {
            STACK_BASES
                .iter()
                .any(|slot| slot.load(Ordering::Acquire) == BASE)
        };
        register_stack(BASE, 8 * PAGE_SIZE);
        assert!(present());
        // Unregistering something never registered is a no-op.
        unregister_stack(0xDEAD_0000);
        assert!(present());
        unregister_stack(BASE);
        assert!(!present());
    }

    #[test]
    fn thread_labels_are_per_thread() {
        set_thread_label(7);
        assert_eq!(thread_label(), 7);
        std::thread::spawn(|| assert_eq!(thread_label(), usize::MAX))
            .join()
            .unwrap();
        set_thread_label(usize::MAX);
    }

    #[test]
    fn buf_formatting() {
        let mut b = Buf::new();
        b.push_str("x=");
        b.push_hex(0xAB00CD);
        b.push_str(" n=");
        b.push_dec(1048576);
        b.push_dec(0);
        assert_eq!(b.as_bytes(), b"x=0xab00cd n=10485760");
    }

    #[test]
    fn buf_truncates_instead_of_overflowing() {
        let mut b = Buf::new();
        for _ in 0..100 {
            b.push_str("0123456789");
        }
        assert_eq!(b.as_bytes().len(), 512);
    }

    #[test]
    fn altstack_install_and_drop() {
        let t = std::thread::spawn(|| {
            let alt = AltStack::install().expect("sigaltstack");
            drop(alt);
        });
        t.join().unwrap();
    }

    #[test]
    fn handler_installation_is_idempotent() {
        // The first call either installs (true) or finds the handler already
        // installed by another test in this process (false); either way the
        // second call must observe it installed and do nothing.
        let _first = install_guard_handler().expect("rt_sigaction");
        let second = install_guard_handler().expect("rt_sigaction");
        assert!(!second, "second call must report already-installed");
    }
}
