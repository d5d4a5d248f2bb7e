//! Minimal raw Linux syscall layer.
//!
//! Every kernel service the workspace uses goes through this module:
//!
//! * memory: anonymous mappings (`mmap`/`munmap`/`mprotect`) for fiber
//!   stacks and large kernel temporaries, and the `madvise` advice of the
//!   paper's §V-B study plus `MADV_HUGEPAGE` for large temporaries;
//! * the idle engine's futex sleep and wake;
//! * the reactor: `epoll`, the `eventfd` it is kicked through, and raw
//!   `read`/`write`/`close`;
//! * the guard-page fault handler: `rt_sigaction`, `sigaltstack` and an
//!   async-signal-safe `write`.
//!
//! [`rss_kib`] reads `/proc/self/status` through `std`. Rather than pulling
//! in `libc`, the calls are issued directly with the `syscall` instruction
//! (x86_64) / `svc 0` (aarch64); the ABI surface is tiny and stable.

#![allow(clippy::missing_safety_doc)]

use core::ffi::c_void;
use core::time::Duration;

// Syscall numbers.
#[cfg(target_arch = "x86_64")]
mod nr {
    pub const READ: usize = 0;
    pub const WRITE: usize = 1;
    pub const CLOSE: usize = 3;
    pub const MMAP: usize = 9;
    pub const MPROTECT: usize = 10;
    pub const MUNMAP: usize = 11;
    pub const RT_SIGACTION: usize = 13;
    pub const MADVISE: usize = 28;
    pub const SIGALTSTACK: usize = 131;
    pub const FUTEX: usize = 202;
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_PWAIT: usize = 281;
    pub const EVENTFD2: usize = 290;
    pub const EPOLL_CREATE1: usize = 291;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const READ: usize = 63;
    pub const WRITE: usize = 64;
    pub const CLOSE: usize = 57;
    pub const MMAP: usize = 222;
    pub const MPROTECT: usize = 226;
    pub const MUNMAP: usize = 215;
    pub const RT_SIGACTION: usize = 134;
    pub const MADVISE: usize = 233;
    pub const SIGALTSTACK: usize = 132;
    pub const FUTEX: usize = 98;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
    pub const EVENTFD2: usize = 19;
    pub const EPOLL_CREATE1: usize = 20;
}

/// `PROT_*` constants for [`mmap`]/[`mprotect`].
pub mod prot {
    /// Pages may not be accessed.
    pub const NONE: usize = 0;
    /// Pages may be read.
    pub const READ: usize = 1;
    /// Pages may be written.
    pub const WRITE: usize = 2;
}

/// `MAP_*` constants for [`mmap`].
pub mod map {
    /// Changes are private to the process.
    pub const PRIVATE: usize = 0x02;
    /// The mapping is not backed by any file.
    pub const ANONYMOUS: usize = 0x20;
    /// Do not reserve swap space; suitable for sparse stacks.
    pub const NORESERVE: usize = 0x4000;
    /// The mapping grows downward (stack semantics). Unused by default.
    pub const STACK: usize = 0x20000;
}

/// `MADV_*` advice values for [`madvise`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advice {
    /// `MADV_DONTNEED`: free the backing pages immediately; the next touch
    /// refaults a zero page. The advice Yang & Mellor-Crummey's practical
    /// cactus-stack solution uses.
    DontNeed = 4,
    /// `MADV_FREE`: the kernel may lazily reclaim the pages; cheaper than
    /// `DONTNEED` but only by a small margin per the paper (§V-B).
    Free = 8,
    /// `MADV_HUGEPAGE`: back the range with transparent huge pages where
    /// it covers whole 2 MiB-aligned blocks, one fault per 2 MiB instead
    /// of per 4 KiB page. Fails with `EINVAL` when the kernel has no
    /// transparent huge pages; it is only a hint.
    HugePage = 14,
}

#[cfg(target_arch = "x86_64")]
#[inline]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    // SAFETY: a raw syscall instruction; the caller vouches for the
    // arguments per this function's contract.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

#[cfg(target_arch = "aarch64")]
#[inline]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    // SAFETY: as in the x86_64 twin.
    unsafe {
        core::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a as isize => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            options(nostack),
        );
    }
    ret
}

/// Error type carrying a raw negated errno.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SysError(pub i32);

impl core::fmt::Display for SysError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "syscall failed with errno {}", self.0)
    }
}

impl std::error::Error for SysError {}

#[inline]
fn check(ret: isize) -> Result<usize, SysError> {
    if (-4095..0).contains(&ret) {
        Err(SysError(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

/// Maps `len` bytes of anonymous memory with the given protection.
pub unsafe fn mmap(len: usize, protection: usize, flags: usize) -> Result<*mut c_void, SysError> {
    let ret = unsafe { syscall6(nr::MMAP, 0, len, protection, flags, usize::MAX, 0) };
    check(ret).map(|addr| addr as *mut c_void)
}

/// Unmaps a region previously returned by [`mmap`].
pub unsafe fn munmap(addr: *mut c_void, len: usize) -> Result<(), SysError> {
    check(unsafe { syscall6(nr::MUNMAP, addr as usize, len, 0, 0, 0, 0) }).map(|_| ())
}

/// Changes the protection of a mapped region (used for guard pages).
pub unsafe fn mprotect(addr: *mut c_void, len: usize, protection: usize) -> Result<(), SysError> {
    check(unsafe { syscall6(nr::MPROTECT, addr as usize, len, protection, 0, 0, 0) }).map(|_| ())
}

/// Advises the kernel about a mapped region (the §V-B experiments).
pub unsafe fn madvise(addr: *mut c_void, len: usize, advice: Advice) -> Result<(), SysError> {
    check(unsafe { syscall6(nr::MADVISE, addr as usize, len, advice as usize, 0, 0, 0) })
        .map(|_| ())
}

/// Installs a signal action via raw `rt_sigaction`. `new`/`old` point at
/// kernel `sigaction` structs (see [`crate::signal`]); `sigsetsize` is the
/// kernel sigset size (8 on Linux).
pub unsafe fn rt_sigaction(
    signum: i32,
    new: *const c_void,
    old: *mut c_void,
    sigsetsize: usize,
) -> Result<(), SysError> {
    check(unsafe {
        syscall6(
            nr::RT_SIGACTION,
            signum as usize,
            new as usize,
            old as usize,
            sigsetsize,
            0,
            0,
        )
    })
    .map(|_| ())
}

/// Installs/queries the calling thread's alternate signal stack. `new`/`old`
/// point at kernel `stack_t` structs (see [`crate::signal`]).
pub unsafe fn sigaltstack(new: *const c_void, old: *mut c_void) -> Result<(), SysError> {
    check(unsafe { syscall6(nr::SIGALTSTACK, new as usize, old as usize, 0, 0, 0, 0) }).map(|_| ())
}

/// Raw `write(2)`. Async-signal-safe (no locks, no allocation); used by the
/// guard-page fault handler to emit its diagnostic. Short writes are not
/// retried — the caller is about to die anyway.
pub fn write_raw(fd: i32, buf: &[u8]) -> isize {
    // SAFETY: `write(2)` only reads `buf.len()` bytes from the valid slice;
    // no memory is mutated on our side.
    unsafe {
        syscall6(
            nr::WRITE,
            fd as usize,
            buf.as_ptr() as usize,
            buf.len(),
            0,
            0,
            0,
        )
    }
}

/// `FUTEX_WAIT | FUTEX_PRIVATE_FLAG`.
const FUTEX_WAIT_PRIVATE: usize = 128;
/// `FUTEX_WAKE | FUTEX_PRIVATE_FLAG`.
const FUTEX_WAKE_PRIVATE: usize = 1 | 128;

/// Kernel `timespec` for the futex and epoll timeouts.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

impl Timespec {
    fn from_duration(d: Duration) -> Timespec {
        Timespec {
            tv_sec: d.as_secs().min(i64::MAX as u64) as i64,
            tv_nsec: i64::from(d.subsec_nanos()),
        }
    }
}

/// Outcome of a [`futex_wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FutexWait {
    /// The thread slept and was woken by a [`futex_wake`].
    Woken,
    /// The word no longer held `expected` at wait time (`EAGAIN`) — the
    /// wake raced ahead of the sleep; no syscall-level sleep happened.
    NotExpected,
    /// The relative timeout elapsed (`ETIMEDOUT`).
    TimedOut,
    /// The wait was interrupted by a signal (`EINTR`); retry or revalidate.
    Interrupted,
}

/// `futex(FUTEX_WAIT_PRIVATE)`: blocks while `*addr == expected`, for at
/// most `timeout_ns` nanoseconds (`None` = forever). The caller must
/// revalidate its sleep condition on every return — all four outcomes,
/// including [`FutexWait::Woken`], permit spurious wakeups.
pub fn futex_wait(
    addr: &core::sync::atomic::AtomicU32,
    expected: u32,
    timeout_ns: Option<u64>,
) -> FutexWait {
    let ts = timeout_ns.map(|ns| Timespec::from_duration(Duration::from_nanos(ns)));
    let ts_ptr = ts
        .as_ref()
        .map_or(core::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `addr` is a live atomic word and `ts_ptr` is null or points
    // at a `Timespec` that outlives the call; FUTEX_WAIT only reads both.
    let ret = unsafe {
        syscall6(
            nr::FUTEX,
            addr.as_ptr() as usize,
            FUTEX_WAIT_PRIVATE,
            expected as usize,
            ts_ptr as usize,
            0,
            0,
        )
    };
    match check(ret) {
        Ok(_) => FutexWait::Woken,
        Err(SysError(11)) => FutexWait::NotExpected, // EAGAIN
        Err(SysError(110)) => FutexWait::TimedOut,   // ETIMEDOUT
        _ => FutexWait::Interrupted,                 // EINTR and anything exotic
    }
}

/// `futex(FUTEX_WAKE_PRIVATE)`: wakes up to `count` threads blocked in
/// [`futex_wait`] on `addr`. Returns the number of threads actually woken.
pub fn futex_wake(addr: &core::sync::atomic::AtomicU32, count: u32) -> usize {
    // SAFETY: FUTEX_WAKE dereferences nothing — the address is only a key
    // into the kernel's wait-queue hash.
    let ret = unsafe {
        syscall6(
            nr::FUTEX,
            addr.as_ptr() as usize,
            FUTEX_WAKE_PRIVATE,
            count as usize,
            0,
            0,
            0,
        )
    };
    check(ret).unwrap_or(0)
}

/// `EPOLL_CTL_*` op codes and `EPOLL*` event bits for [`epoll_ctl`].
pub mod epoll {
    /// Register a new fd with the epoll instance.
    pub const CTL_ADD: i32 = 1;
    /// Deregister an fd.
    pub const CTL_DEL: i32 = 2;
    /// The fd is readable.
    pub const IN: u32 = 0x001;
    /// The fd is writable.
    pub const OUT: u32 = 0x004;
    /// Error condition (always reported, need not be requested).
    pub const ERR: u32 = 0x008;
    /// Hang-up (always reported, need not be requested).
    pub const HUP: u32 = 0x010;
    /// Peer closed its writing half.
    pub const RDHUP: u32 = 0x2000;
    /// Edge-triggered: report a readiness *change* once instead of the
    /// readiness state on every wait.
    pub const ET: u32 = 1 << 31;
}

/// One `struct epoll_event`. On x86_64 the kernel ABI packs the struct
/// (no padding between `events` and `data`); aarch64 uses the natural
/// 16-byte layout. The `cfg_attr` reproduces exactly what the kernel
/// expects on each architecture.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Debug, Clone, Copy)]
pub struct EpollEvent {
    /// Bitmask of `epoll::*` event bits.
    pub events: u32,
    /// Caller-chosen cookie returned verbatim with the event.
    pub data: u64,
}

/// `epoll_create1(EPOLL_CLOEXEC)`: a fresh epoll instance.
pub fn epoll_create1() -> Result<i32, SysError> {
    const EPOLL_CLOEXEC: usize = 0o2000000;
    // SAFETY: epoll_create1 reads no caller memory.
    let ret = unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) };
    check(ret).map(|fd| fd as i32)
}

/// `epoll_ctl(epfd, op, fd, event)`. `event` is ignored by the kernel for
/// [`epoll::CTL_DEL`] (pass anything).
pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: &EpollEvent) -> Result<(), SysError> {
    // SAFETY: the kernel reads one `EpollEvent` from the live reference
    // (and nothing for CTL_DEL).
    let ret = unsafe {
        syscall6(
            nr::EPOLL_CTL,
            epfd as usize,
            op as usize,
            fd as usize,
            event as *const EpollEvent as usize,
            0,
            0,
        )
    };
    check(ret).map(|_| ())
}

/// Outcome of an [`epoll_wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpollWait {
    /// `n` events were written into the caller's buffer (possibly 0 on
    /// timeout). The caller must treat 0 as a spurious return and
    /// revalidate its sleep condition, exactly like [`FutexWait`].
    Ready(usize),
    /// The wait was interrupted by a signal (`EINTR`); retry or revalidate.
    Interrupted,
}

/// `epoll_pwait(epfd, events, timeout, NULL)`: blocks until an event,
/// the timeout, or a signal. `None` blocks forever; `Some(Duration::ZERO)`
/// polls without blocking. The timeout is rounded up to whole
/// milliseconds, so the wait never ends early.
pub fn epoll_wait(epfd: i32, events: &mut [EpollEvent], timeout: Option<Duration>) -> EpollWait {
    // `epoll_pwait`, because aarch64 has no plain `epoll_wait`; `-1`
    // blocks forever.
    let ms = timeout.map_or(-1, |d| {
        d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32
    });
    // SAFETY: the kernel writes at most `events.len()` entries into the
    // live mutable slice; a null sigmask pointer means "don't touch the
    // signal mask" (plain epoll_wait semantics).
    let ret = unsafe {
        syscall6(
            nr::EPOLL_PWAIT,
            epfd as usize,
            events.as_mut_ptr() as usize,
            events.len(),
            ms as usize,
            0,
            0,
        )
    };
    match check(ret) {
        Ok(n) => EpollWait::Ready(n),
        Err(_) => EpollWait::Interrupted, // EINTR and anything exotic
    }
}

/// `eventfd2(initval, EFD_CLOEXEC | EFD_NONBLOCK)`: the reactor's kick fd.
/// Non-blocking so a kick never stalls the kicker and a drain never stalls
/// the poller.
pub fn eventfd() -> Result<i32, SysError> {
    const EFD_CLOEXEC: usize = 0o2000000;
    const EFD_NONBLOCK: usize = 0o4000;
    // SAFETY: eventfd2 reads no caller memory.
    let ret = unsafe { syscall6(nr::EVENTFD2, 0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0) };
    check(ret).map(|fd| fd as i32)
}

/// Raw `read(2)` into `buf`. Returns the byte count, 0 at EOF, or the
/// negated-errno mapped into [`SysError`] (`EAGAIN` = 11 for an empty
/// non-blocking fd).
pub fn read_raw(fd: i32, buf: &mut [u8]) -> Result<usize, SysError> {
    // SAFETY: the kernel writes at most `buf.len()` bytes into the live
    // mutable slice.
    let ret = unsafe {
        syscall6(
            nr::READ,
            fd as usize,
            buf.as_mut_ptr() as usize,
            buf.len(),
            0,
            0,
            0,
        )
    };
    check(ret)
}

/// `close(2)`. Errors are ignored by design: the only caller is reactor
/// teardown, where a failed close of an fd we own has no recovery.
pub fn close(fd: i32) {
    // SAFETY: close reads no caller memory.
    let _ = unsafe { syscall6(nr::CLOSE, fd as usize, 0, 0, 0, 0, 0) };
}

/// The system page size. Linux/x86_64 and the common aarch64 configuration
/// use 4 KiB pages, which is also what the paper's evaluation used.
pub const PAGE_SIZE: usize = 4096;

/// Reads the current and peak resident set size (KiB) from
/// `/proc/self/status` (`VmRSS` / `VmHWM`). Used by the Table II experiment.
pub fn rss_kib() -> Option<(u64, u64)> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let mut rss = None;
    let mut hwm = None;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            rss = rest.trim().trim_end_matches(" kB").trim().parse().ok();
        } else if let Some(rest) = line.strip_prefix("VmHWM:") {
            hwm = rest.trim().trim_end_matches(" kB").trim().parse().ok();
        }
    }
    Some((rss?, hwm?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmap_munmap_round_trip() {
        // SAFETY: every access stays inside the fresh R/W mapping, unmapped
        // only at the end.
        unsafe {
            let len = 4 * PAGE_SIZE;
            let addr =
                mmap(len, prot::READ | prot::WRITE, map::PRIVATE | map::ANONYMOUS).expect("mmap");
            // Touch every page.
            let bytes = core::slice::from_raw_parts_mut(addr as *mut u8, len);
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = i as u8;
            }
            assert_eq!(bytes[PAGE_SIZE + 1], (PAGE_SIZE + 1) as u8);
            munmap(addr, len).expect("munmap");
        }
    }

    #[test]
    fn mprotect_guard_page() {
        // SAFETY: the write lands in the second page, which stays R/W after
        // the first page is protected.
        unsafe {
            let len = 2 * PAGE_SIZE;
            let addr =
                mmap(len, prot::READ | prot::WRITE, map::PRIVATE | map::ANONYMOUS).expect("mmap");
            mprotect(addr, PAGE_SIZE, prot::NONE).expect("mprotect");
            // The second page is still usable.
            *(addr as *mut u8).add(PAGE_SIZE) = 7;
            munmap(addr, len).expect("munmap");
        }
    }

    #[test]
    fn madvise_dontneed_zeroes_pages() {
        // SAFETY: accesses stay inside the fresh R/W mapping; DONTNEED keeps
        // it mapped (refaults as zero).
        unsafe {
            let len = 2 * PAGE_SIZE;
            let addr =
                mmap(len, prot::READ | prot::WRITE, map::PRIVATE | map::ANONYMOUS).expect("mmap");
            *(addr as *mut u8) = 42;
            madvise(addr, len, Advice::DontNeed).expect("madvise");
            // DONTNEED on anonymous memory refaults as zero.
            assert_eq!(*(addr as *const u8), 0);
            munmap(addr, len).expect("munmap");
        }
    }

    #[test]
    fn madvise_free_keeps_mapping_valid() {
        // SAFETY: accesses stay inside the fresh R/W mapping; MADV_FREE
        // keeps it mapped.
        unsafe {
            let len = 2 * PAGE_SIZE;
            let addr =
                mmap(len, prot::READ | prot::WRITE, map::PRIVATE | map::ANONYMOUS).expect("mmap");
            *(addr as *mut u8) = 42;
            madvise(addr, len, Advice::Free).expect("madvise");
            // MADV_FREE pages may retain data until reclaim; either value
            // is acceptable, the mapping just must not fault.
            let v = *(addr as *const u8);
            assert!(v == 0 || v == 42);
            munmap(addr, len).expect("munmap");
        }
    }

    #[test]
    fn bad_munmap_reports_errno() {
        // Unaligned address must fail with EINVAL (22).
        // SAFETY: the call is guaranteed to fail before touching any
        // mapping, and address 1 maps nothing anyway.
        let err = unsafe { munmap(core::ptr::without_provenance_mut(1), PAGE_SIZE) }.unwrap_err();
        assert_eq!(err.0, 22);
    }

    #[test]
    fn rss_is_reported() {
        let (rss, hwm) = rss_kib().expect("proc status parse");
        assert!(rss > 0);
        assert!(hwm >= rss);
    }

    #[test]
    fn futex_wait_value_mismatch_returns_immediately() {
        use core::sync::atomic::AtomicU32;
        let word = AtomicU32::new(7);
        assert_eq!(futex_wait(&word, 8, None), FutexWait::NotExpected);
    }

    #[test]
    fn futex_wait_times_out() {
        use core::sync::atomic::AtomicU32;
        let word = AtomicU32::new(1);
        let start = std::time::Instant::now();
        assert_eq!(
            futex_wait(&word, 1, Some(2_000_000)),
            FutexWait::TimedOut,
            "2ms relative timeout"
        );
        assert!(start.elapsed() >= std::time::Duration::from_millis(2));
    }

    #[test]
    fn epoll_event_layout_matches_kernel_abi() {
        // x86_64 packs the struct to 12 bytes; everywhere else it is the
        // natural 16. Getting this wrong corrupts every second event in a
        // multi-event wait, so pin it here.
        #[cfg(target_arch = "x86_64")]
        assert_eq!(core::mem::size_of::<EpollEvent>(), 12);
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(core::mem::size_of::<EpollEvent>(), 16);
    }

    #[test]
    fn epoll_reports_eventfd_readability() {
        let ep = epoll_create1().expect("epoll_create1");
        let efd = eventfd().expect("eventfd");
        let ev = EpollEvent {
            events: epoll::IN,
            data: 0x5EED,
        };
        epoll_ctl(ep, epoll::CTL_ADD, efd, &ev).expect("ctl add");

        // Nothing written yet: a zero-timeout wait returns no events.
        let mut buf = [EpollEvent { events: 0, data: 0 }; 4];
        assert_eq!(
            epoll_wait(ep, &mut buf, Some(Duration::ZERO)),
            EpollWait::Ready(0)
        );

        // An eventfd write makes it readable; the cookie comes back.
        assert_eq!(write_raw(efd, &1u64.to_ne_bytes()), 8);
        match epoll_wait(ep, &mut buf, Some(Duration::from_millis(100))) {
            EpollWait::Ready(n) => {
                assert_eq!(n, 1);
                let (events, data) = (buf[0].events, buf[0].data);
                assert_ne!(events & epoll::IN, 0);
                assert_eq!(data, 0x5EED);
            }
            EpollWait::Interrupted => panic!("unexpected EINTR in test"),
        }

        // Draining resets readability (level-triggered).
        let mut eight = [0u8; 8];
        assert_eq!(read_raw(efd, &mut eight), Ok(8));
        assert_eq!(u64::from_ne_bytes(eight), 1);
        assert_eq!(
            epoll_wait(ep, &mut buf, Some(Duration::ZERO)),
            EpollWait::Ready(0)
        );

        // A drained non-blocking eventfd reads EAGAIN.
        assert_eq!(read_raw(efd, &mut eight), Err(SysError(11)));

        epoll_ctl(ep, epoll::CTL_DEL, efd, &ev).expect("ctl del");
        close(efd);
        close(ep);
    }

    /// The timeout is rounded up to whole milliseconds, so no wait ends
    /// early, a sub-millisecond one included. Only the lower bound is
    /// checked (a loaded host may oversleep by any amount).
    #[test]
    fn epoll_wait_times_out() {
        let ep = epoll_create1().expect("epoll_create1");
        let mut buf = [EpollEvent { events: 0, data: 0 }; 1];
        for timeout in [Duration::from_millis(5), Duration::from_micros(300)] {
            let start = std::time::Instant::now();
            assert_eq!(epoll_wait(ep, &mut buf, Some(timeout)), EpollWait::Ready(0));
            assert!(start.elapsed() >= timeout, "{timeout:?}");
        }
        close(ep);
    }

    #[test]
    fn futex_wake_unblocks_waiter() {
        use core::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let word = Arc::new(AtomicU32::new(0));
        let w2 = word.clone();
        let t = std::thread::spawn(move || {
            // Loop: spurious returns are permitted by the contract.
            while w2.load(Ordering::Acquire) == 0 {
                futex_wait(&w2, 0, Some(1_000_000_000));
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        word.store(1, Ordering::Release);
        futex_wake(&word, u32::MAX);
        t.join().expect("waiter exits after wake");
    }
}
