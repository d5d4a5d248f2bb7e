//! The epoll reactor: I/O readiness for the async surface.
//!
//! There is exactly ONE reactor per runtime and NO dedicated reactor
//! thread. Idle workers poll it themselves: on the spin/yield rungs of the
//! idle ladder a worker busy-polls (`epoll_wait` with timeout 0) whenever
//! a source is registered, and a worker that would otherwise futex-park
//! first tries to claim the poller slot and sleeps in `epoll_wait` instead
//! of on a futex, with its timeout clamped to `min(IdleConfig::max_park,
//! next deadline)` — the earliest entry of the runtime's deadline map
//! ([`crate::time`]), which every poll then fires. Everything the idle
//! engine documents about bounded parks applies verbatim: the
//! claim/release handshake has a store-buffering window (a producer can
//! miss the poller exactly as it can miss a futex sleeper), and the
//! bounded timeout is the belt-and-braces backstop for it.
//!
//! Readiness is edge-triggered: a source is registered once for
//! `IN|OUT|RDHUP` with `EPOLLET`, and every reported edge is latched in
//! the slab's per-direction `ready` flag until a future consumes it. No
//! `epoll_ctl` runs between registration and deregistration, and a
//! ready-but-unserviced fd cannot spin the poller — its edge is reported
//! once. `ERR`/`HUP`/`RDHUP` latch both directions — the woken task re-runs
//! its syscall and observes the real error or EOF itself; the reactor
//! never interprets errors on a task's behalf.
//!
//! A poll hands the wakers it collected back to its caller, which wakes
//! them after releasing the poller slot: a wake issued while the slot is
//! held would find it claimed and kick the eventfd of the very thread
//! that is about to re-scan for the woken work.
//!
//! Cross-thread wakes reach a sleeping poller through an `eventfd` kick,
//! coalesced by an armed flag so a storm of wakes costs one `write(2)`.
//! The kick carries the cookie `KICK`; real fds carry a generation-tagged
//! slab key, so a stale event for a recycled slot is dropped on the floor
//! instead of waking a stranger.

use core::future::Future;
use core::pin::Pin;
use core::task::{Context, Poll, Waker};
use std::io;
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nowa_context::sys::{self, epoll, EpollEvent, EpollWait};

use crate::chaos;
use crate::stats::{self, Counter};
use crate::sync::{AtomicU32, AtomicUsize, Ordering};
use crate::time::Deadlines;
use crate::worker::{current_worker, Shared, Worker};

/// Event-cookie for the kick eventfd; real sources use slab keys, which
/// never reach this value (the slab would exhaust memory first).
const KICK: u64 = u64::MAX;

/// Events fetched per `epoll_wait`. Spillover is not lost — an edge stays
/// on epoll's ready list until a wait fetches it.
pub(crate) const MAX_EVENTS: usize = 64;

/// The interest every source is registered with, once.
const INTEREST: u32 = epoll::IN | epoll::OUT | epoll::RDHUP | epoll::ET;

/// One direction (read or write) of a registered source.
#[derive(Default)]
struct Direction {
    /// An edge reported by a dispatch and not yet consumed by a poll.
    ready: bool,
    /// The waker parked on this direction, if any; the next edge takes it.
    waker: Option<Waker>,
}

impl Direction {
    /// Latches an edge and hands over the parked waker, if any.
    fn latch(&mut self, woken: &mut Vec<Waker>) {
        self.ready = true;
        woken.extend(self.waker.take());
    }
}

/// A registered fd.
struct Source {
    fd: i32,
    read: Direction,
    write: Direction,
}

/// Slab slot: a generation counter (bumped on free) plus the occupant.
/// Keys are `(gen << 32) | index`, so an event fetched just before a
/// deregistration cannot be misdelivered to the slot's next tenant.
struct Slot {
    gen: u32,
    source: Option<Source>,
}

#[derive(Default)]
struct SourceSlab {
    slots: Vec<Slot>,
    free: Vec<usize>,
}

impl SourceSlab {
    fn insert(&mut self, source: Source) -> u64 {
        let index = match self.free.pop() {
            Some(i) => {
                self.slots[i].source = Some(source);
                i
            }
            None => {
                self.slots.push(Slot {
                    gen: 0,
                    source: Some(source),
                });
                self.slots.len() - 1
            }
        };
        ((self.slots[index].gen as u64) << 32) | index as u64
    }

    fn get_mut(&mut self, key: u64) -> Option<&mut Source> {
        let index = (key & 0xffff_ffff) as usize;
        let gen = (key >> 32) as u32;
        let slot = self.slots.get_mut(index)?;
        if slot.gen != gen {
            return None;
        }
        slot.source.as_mut()
    }

    fn remove(&mut self, key: u64) -> Option<Source> {
        let index = (key & 0xffff_ffff) as usize;
        let gen = (key >> 32) as u32;
        let slot = self.slots.get_mut(index)?;
        if slot.gen != gen {
            return None;
        }
        let src = slot.source.take();
        if src.is_some() {
            slot.gen = slot.gen.wrapping_add(1);
            self.free.push(index);
        }
        src
    }
}

/// Which direction a future is parked on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dir {
    Read,
    Write,
}

/// The poller-claim slot: `0` free, `index + 1` claimed by worker
/// `index`. At most one worker polls at a time; everyone else spins,
/// yields or futex-parks as before. Encoding the index lets the watchdog
/// classify the poller as healthy the same way it treats futex-parked
/// workers.
///
/// A standalone type (rather than a bare field of `Reactor`) so the
/// loom models can drive the *real* claim/release protocol without an
/// epoll instance — see `tests/loom.rs`.
pub struct PollerSlot {
    slot: AtomicU32,
}

impl Default for PollerSlot {
    fn default() -> Self {
        PollerSlot::new()
    }
}

impl PollerSlot {
    /// A free slot.
    pub fn new() -> PollerSlot {
        PollerSlot {
            slot: AtomicU32::new(0),
        }
    }

    /// Tries to claim the slot for worker `index`. SeqCst on purpose: the
    /// claim must be totally ordered against producers'
    /// [`claimed`](PollerSlot::claimed) loads the same way the idle engine
    /// orders announce against wake scans — the remaining store-buffering
    /// window is bounded by the poll timeout.
    pub fn try_claim(&self, index: usize) -> bool {
        // ordering: §7b "reactor poller claim".
        let tag = (index as u32).saturating_add(1);
        self.slot
            .compare_exchange(0, tag, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Whether worker `index` currently holds the slot. Used by the
    /// watchdog: the poller's progress counter is frozen inside
    /// `epoll_wait` exactly like a futex-parked worker's, and must not
    /// read as a stall.
    pub fn is_poller(&self, index: usize) -> bool {
        // ordering: §7b "reactor poller claim" — monitoring-only load; a
        // racy read here only delays or spares one watchdog report.
        self.slot.load(Ordering::SeqCst) == (index as u32).saturating_add(1)
    }

    /// Whether *any* worker currently holds the slot (the
    /// `kick_if_claimed` producer-side gate).
    pub fn claimed(&self) -> bool {
        // ordering: §7b "reactor poller claim" — SeqCst load pairs with
        // the claim CAS; a miss in the store-buffering window is recovered
        // by the bounded poll timeout.
        self.slot.load(Ordering::SeqCst) != 0
    }

    /// The producer's half of a wake rule: runs `publish`, which makes
    /// work visible to a poller and says whether the poller must hear of
    /// it, and then `kick`s when it must and a poller holds the slot.
    /// Publishing first is the rule: a poller that claims after the
    /// `claimed` load below reads the published work when it computes its
    /// timeout, and one that claimed before it is kicked. Returns what
    /// `publish` returned.
    pub fn publish_then_kick<T>(
        &self,
        publish: impl FnOnce() -> (T, bool),
        kick: impl FnOnce(),
    ) -> T {
        let (out, wake) = publish();
        if wake && self.claimed() {
            kick();
        }
        out
    }

    /// Releases the slot (claimant only). The SeqCst store also publishes
    /// the outgoing poller's duty-state writes (dispatched readiness) to
    /// the next claimant, whose claim CAS reads the `0` this stores.
    pub fn release(&self) {
        // ordering: §7b "reactor poller claim" — SeqCst store pairs with
        // the claim CAS and the `claimed` load.
        self.slot.store(0, Ordering::SeqCst);
    }
}

/// The per-runtime reactor. See the module docs for the ownership model.
pub(crate) struct Reactor {
    epfd: i32,
    kick_fd: i32,
    /// See [`PollerSlot`].
    pub(crate) poller: PollerSlot,
    /// Kick coalescing: 1 while a `write(2)` to the eventfd is outstanding
    /// (not yet drained), so kick storms cost one syscall per poll cycle.
    kick_armed: AtomicU32,
    /// `write(2)`s to the kick eventfd, for the tests that pin when a kick
    /// is (not) paid.
    #[cfg(all(test, not(loom)))]
    kick_writes: AtomicUsize,
    sources: parking_lot::Mutex<SourceSlab>,
    /// Registered sources: the gate of the idle ladder's busy poll and
    /// the `reactor_sources` gauge.
    registered: AtomicUsize,
    /// The deadline map rides the reactor: its earliest entry clamps the
    /// poll timeout, and every poll fires it.
    pub(crate) deadlines: Deadlines,
}

impl Reactor {
    pub(crate) fn new() -> Result<Reactor, sys::SysError> {
        let epfd = sys::epoll_create1()?;
        let kick_fd = match sys::eventfd() {
            Ok(fd) => fd,
            Err(e) => {
                sys::close(epfd);
                return Err(e);
            }
        };
        let ev = EpollEvent {
            events: epoll::IN,
            data: KICK,
        };
        if let Err(e) = sys::epoll_ctl(epfd, epoll::CTL_ADD, kick_fd, &ev) {
            sys::close(kick_fd);
            sys::close(epfd);
            return Err(e);
        }
        Ok(Reactor {
            epfd,
            kick_fd,
            poller: PollerSlot::new(),
            kick_armed: AtomicU32::new(0),
            #[cfg(all(test, not(loom)))]
            kick_writes: AtomicUsize::new(0),
            sources: parking_lot::Mutex::new(SourceSlab::default()),
            registered: AtomicUsize::new(0),
            deadlines: Deadlines::new(),
        })
    }

    // ---- poller claim ----------------------------------------------------

    /// Tries to become the poller; see [`PollerSlot::try_claim`].
    pub(crate) fn try_claim(&self, index: usize) -> bool {
        self.poller.try_claim(index)
    }

    /// Whether worker `index` holds the slot; see [`PollerSlot::is_poller`].
    pub(crate) fn is_poller(&self, index: usize) -> bool {
        self.poller.is_poller(index)
    }

    /// Releases the poller slot; see [`PollerSlot::release`].
    pub(crate) fn release(&self) {
        self.poller.release()
    }

    // ---- kicks -----------------------------------------------------------

    /// Wakes the poller out of `epoll_wait` (or makes its next wait return
    /// immediately). Coalesced: only the 0→1 arming transition pays the
    /// `write(2)`.
    pub(crate) fn kick(&self) {
        // ordering: §7b "kick coalescing" — Release so the work made
        // visible before the kick (ready push, deadline insert) is ordered
        // before the flag a drain will clear.
        if self.kick_armed.swap(1, Ordering::Release) == 0 {
            #[cfg(all(test, not(loom)))]
            // ordering: test-only tally, read after the workload joined.
            self.kick_writes.fetch_add(1, Ordering::Relaxed);
            let buf = 1u64.to_ne_bytes();
            let _ = sys::write_raw(self.kick_fd, &buf);
        }
    }

    /// [`Reactor::kick`], but only when a poller is (or may be) sleeping.
    /// Producers that found no futex sleeper call this: the poller does not
    /// announce to the idle engine, so `sleepers() == 0` does not mean
    /// "nobody is parked".
    pub(crate) fn kick_if_claimed(&self) {
        if self.poller.claimed() {
            self.kick();
        }
    }

    fn drain_kick(&self) {
        let mut buf = [0u8; 8];
        let _ = sys::read_raw(self.kick_fd, &mut buf);
        // ordering: §7b "kick coalescing" — Release store after the drain;
        // a kicker that still sees 1 is coalesced into the poll cycle that
        // is already awake and about to re-scan every work source.
        self.kick_armed.store(0, Ordering::Release);
    }

    /// Eventfd kicks written since the reactor was created.
    #[cfg(all(test, not(loom)))]
    pub(crate) fn kick_writes(&self) -> usize {
        // ordering: test-only tally, read after the workload joined.
        self.kick_writes.load(Ordering::Relaxed)
    }

    // ---- source registration --------------------------------------------

    /// Registers `fd` (which must already be non-blocking) for every
    /// readiness edge it will ever report, and returns its
    /// generation-tagged key. An fd that is already ready reports that as
    /// its first edge.
    pub(crate) fn register(&self, fd: i32) -> Result<u64, sys::SysError> {
        let mut slab = self.sources.lock();
        let key = slab.insert(Source {
            fd,
            read: Direction::default(),
            write: Direction::default(),
        });
        let ev = EpollEvent {
            events: INTEREST,
            data: key,
        };
        if let Err(e) = sys::epoll_ctl(self.epfd, epoll::CTL_ADD, fd, &ev) {
            slab.remove(key);
            return Err(e);
        }
        // ordering: §7b "source count".
        self.registered.fetch_add(1, Ordering::Relaxed);
        Ok(key)
    }

    /// Deregisters a source. Any parked wakers are woken (spuriously —
    /// their next poll re-runs the I/O and observes whatever the fd says).
    pub(crate) fn deregister(&self, key: u64) {
        let mut woken: [Option<Waker>; 2] = [None, None];
        {
            let mut slab = self.sources.lock();
            if let Some(mut src) = slab.remove(key) {
                let ev = EpollEvent { events: 0, data: 0 };
                let _ = sys::epoll_ctl(self.epfd, epoll::CTL_DEL, src.fd, &ev);
                // ordering: §7b "source count".
                self.registered.fetch_sub(1, Ordering::Relaxed);
                woken[0] = src.read.waker.take();
                woken[1] = src.write.waker.take();
            }
        }
        for w in woken.into_iter().flatten() {
            w.wake();
        }
    }

    /// Registered sources right now (racy; a gate and a gauge, never a
    /// decision that must be exact).
    pub(crate) fn sources(&self) -> usize {
        // ordering: §7b "source count".
        self.registered.load(Ordering::Relaxed)
    }

    /// One readiness poll for `key`/`dir`: consumes a latched edge, or
    /// parks `cx`'s waker for the next one.
    fn poll_direction(&self, key: u64, dir: Dir, cx: &mut Context<'_>) -> Poll<io::Result<()>> {
        let mut slab = self.sources.lock();
        let src = slab
            .get_mut(key)
            .expect("nowa reactor: polled a deregistered source (stale key)");
        let slot = match dir {
            Dir::Read => &mut src.read,
            Dir::Write => &mut src.write,
        };
        if slot.ready {
            slot.ready = false;
            return Poll::Ready(Ok(()));
        }
        slot.waker = Some(cx.waker().clone());
        Poll::Pending
    }

    /// Delivers one fetched event: latches the directions it reports and
    /// collects their parked wakers.
    fn dispatch(&self, key: u64, bits: u32, woken: &mut Vec<Waker>) {
        let mut slab = self.sources.lock();
        let Some(src) = slab.get_mut(key) else {
            // Deregistered between fetch and dispatch (or a recycled slot):
            // the generation tag caught it; drop the event.
            return;
        };
        let fatal = bits & (epoll::ERR | epoll::HUP | epoll::RDHUP) != 0;
        if fatal || bits & epoll::IN != 0 {
            src.read.latch(woken);
        }
        if fatal || bits & epoll::OUT != 0 {
            src.write.latch(woken);
        }
    }

    // ---- the poll itself -------------------------------------------------

    /// One reactor poll by the claimant of the poller slot. Waits up to
    /// `timeout` (zero for a busy poll; otherwise already clamped to
    /// `max_park` and the next deadline by the caller), dispatches I/O
    /// readiness, fires the deadline map, and appends every waker due to
    /// `woken`. Returns whether it latched a region deadline. The caller
    /// wakes the wakers, and broadcasts a latched deadline, after
    /// [`release`](Reactor::release); workers pass a buffer they reuse
    /// from poll to poll, so a poll allocates nothing.
    ///
    /// # Safety
    /// `worker` must be the calling thread's live worker.
    pub(crate) unsafe fn poll(
        &self,
        worker: *mut Worker,
        timeout: Duration,
        woken: &mut Vec<Waker>,
    ) -> bool {
        let mut dispatched = 0usize;
        // SAFETY: `worker` is the calling thread's live worker (caller
        // contract).
        if unsafe { chaos::on_reactor_poll(worker) } {
            // Chaos: the wait is skipped — nothing is dispatched, and only
            // the deadlines below fire.
        } else {
            let mut events = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            match sys::epoll_wait(self.epfd, &mut events, Some(timeout)) {
                EpollWait::Ready(n) => {
                    for ev in &events[..n] {
                        // EpollEvent is packed on x86_64: copy fields out
                        // rather than referencing them in place.
                        let (bits, data) = (ev.events, ev.data);
                        if data == KICK {
                            self.drain_kick();
                        } else {
                            self.dispatch(data, bits, woken);
                            dispatched += 1;
                        }
                    }
                }
                EpollWait::Interrupted => {}
            }
        }
        let (timer_count, latched) = self.deadlines.fire_due(Instant::now(), woken);
        // SAFETY: `worker` is the calling thread's live worker (caller
        // contract), so dereferencing it for stats and trace hooks is sound.
        unsafe {
            stats::bump(worker, Counter::reactor_polls, 0);
            // Zero counts stay out of the trace: an idle serving runtime
            // polls every `max_park` and would flood the ring.
            if timer_count > 0 {
                stats::add(worker, Counter::timer_fires, timer_count as u64);
            }
            if dispatched > 0 {
                stats::add(worker, Counter::reactor_events, dispatched as u64);
            }
        }
        latched
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        sys::close(self.kick_fd);
        sys::close(self.epfd);
    }
}

// SAFETY: every field is either plain-old-data fds, an atomic, a Mutex, or
// the internally synchronised deadline map; all cross-thread access goes
// through those.
unsafe impl Send for Reactor {}
// SAFETY: same argument as `Send` above — shared access synchronises
// through the atomics, the sources Mutex and the deadline map's lock.
unsafe impl Sync for Reactor {}

// ---- public async fd surface --------------------------------------------

/// An fd registered with the runtime's reactor.
///
/// Wraps any [`AsRawFd`] I/O object whose fd is **non-blocking** (the
/// caller sets that up; the reactor only reports readiness). Futures from
/// [`readable`](AsyncFd::readable) / [`writable`](AsyncFd::writable)
/// resolve when the fd became (or may have become) ready since the last
/// future of that direction resolved. Readiness is edge-triggered, so the
/// loop is: run the syscall until it returns `WouldBlock`, and only then
/// await — an edge already consumed is not reported again while the fd
/// stays ready.
///
/// Dropping the `AsyncFd` deregisters the fd and wakes any parked waiters.
pub struct AsyncFd<T: AsRawFd> {
    io: T,
    key: u64,
    shared: Arc<Shared>,
}

impl<T: AsRawFd> AsyncFd<T> {
    /// Registers `io`'s fd with the runtime reactor.
    ///
    /// # Panics
    /// Panics when called outside a runtime worker (the reactor lives on
    /// the runtime).
    pub fn new(io: T) -> io::Result<AsyncFd<T>> {
        let worker = current_worker();
        assert!(
            !worker.is_null(),
            "nowa AsyncFd::new requires a runtime worker (the reactor lives on the runtime)"
        );
        // SAFETY: non-null means the calling thread's live worker.
        let shared = unsafe { (*worker).shared.clone() };
        let key = shared
            .reactor
            .register(io.as_raw_fd())
            .map_err(|e| io::Error::from_raw_os_error(e.0))?;
        Ok(AsyncFd { io, key, shared })
    }

    /// The wrapped I/O object.
    pub fn get_ref(&self) -> &T {
        &self.io
    }

    /// Mutable access to the wrapped I/O object.
    pub fn get_mut(&mut self) -> &mut T {
        &mut self.io
    }

    /// Resolves when the fd is readable (or has hung up / errored — the
    /// caller's next read observes which).
    pub fn readable(&self) -> Readiness<'_, T> {
        Readiness {
            fd: self,
            dir: Dir::Read,
        }
    }

    /// Resolves when the fd is writable (or has hung up / errored).
    pub fn writable(&self) -> Readiness<'_, T> {
        Readiness {
            fd: self,
            dir: Dir::Write,
        }
    }
}

impl<T: AsRawFd> Drop for AsyncFd<T> {
    fn drop(&mut self) {
        self.shared.reactor.deregister(self.key);
    }
}

/// Future of one readiness edge on an [`AsyncFd`] direction.
pub struct Readiness<'a, T: AsRawFd> {
    fd: &'a AsyncFd<T>,
    dir: Dir,
}

impl<T: AsRawFd> Future for Readiness<'_, T> {
    type Output = io::Result<()>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<io::Result<()>> {
        self.fd
            .shared
            .reactor
            .poll_direction(self.fd.key, self.dir, cx)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn slab_keys_are_generation_tagged() {
        let mut slab = SourceSlab::default();
        let k1 = slab.insert(Source {
            fd: 3,
            read: Direction::default(),
            write: Direction::default(),
        });
        assert!(slab.get_mut(k1).is_some());
        assert!(slab.remove(k1).is_some(), "first removal succeeds");
        assert!(slab.get_mut(k1).is_none(), "stale key misses");
        let k2 = slab.insert(Source {
            fd: 4,
            read: Direction::default(),
            write: Direction::default(),
        });
        assert_ne!(k1, k2, "recycled slot carries a new generation");
        assert!(slab.get_mut(k1).is_none(), "old key still misses");
        assert_eq!(slab.get_mut(k2).unwrap().fd, 4);
    }

    #[test]
    fn an_edge_latches_and_hands_over_the_parked_waker_once() {
        let mut dir = Direction::default();
        let mut woken = Vec::new();
        dir.latch(&mut woken);
        assert!(dir.ready && woken.is_empty(), "nobody parked: latch only");
        dir.waker = Some(noop_waker());
        dir.latch(&mut woken);
        assert_eq!(woken.len(), 1, "the parked waker is handed over");
        dir.latch(&mut woken);
        assert_eq!(woken.len(), 1, "and only once");
    }

    /// A poll wakes what it dispatched after releasing the poller slot, so
    /// a strand woken by readiness costs no eventfd kick. One worker
    /// serves 1 000 echo round trips; every request reaches it through the
    /// reactor, so a wake issued while the slot is held would kick once
    /// per request.
    #[test]
    fn the_poller_does_not_kick_itself() {
        use std::io::{ErrorKind, Read, Write};
        use std::os::unix::net::UnixStream;

        const ROUNDS: u64 = 1_000;
        let rt = crate::Runtime::new(crate::Config::with_workers(1)).unwrap();
        let (server, mut client) = UnixStream::pair().unwrap();
        server.set_nonblocking(true).unwrap();
        let client = std::thread::spawn(move || {
            let mut buf = [0u8; 8];
            for i in 0..ROUNDS {
                client.write_all(&i.to_le_bytes()).unwrap();
                client.read_exact(&mut buf).unwrap();
                assert_eq!(u64::from_le_bytes(buf), i, "echo corrupted");
            }
        });
        let before = rt.shared().reactor.kick_writes();
        let served = rt.run(move || {
            crate::block_on(async move {
                let fd = AsyncFd::new(server).unwrap();
                let mut buf = [0u8; 8];
                let mut served = 0;
                while served < ROUNDS {
                    match (&mut fd.get_ref()).read(&mut buf) {
                        Ok(8) => {
                            (&mut fd.get_ref()).write_all(&buf).unwrap();
                            served += 1;
                        }
                        Ok(n) => panic!("short read of {n} bytes"),
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            fd.readable().await.unwrap();
                        }
                        Err(e) => panic!("server read: {e}"),
                    }
                }
                served
            })
        });
        client.join().unwrap();
        assert_eq!(served, ROUNDS);
        let kicks = rt.shared().reactor.kick_writes() - before;
        // The root submission itself may kick a napping poller once.
        assert!(
            kicks <= 2,
            "{kicks} eventfd kicks for {ROUNDS} reactor-woken requests: the \
             poller woke strands while still holding the slot"
        );
    }

    fn noop_waker() -> Waker {
        use core::task::{RawWaker, RawWakerVTable};
        const VTABLE: RawWakerVTable = RawWakerVTable::new(
            |_| RawWaker::new(core::ptr::null(), &VTABLE),
            |_| {},
            |_| {},
            |_| {},
        );
        // SAFETY: every vtable entry is a no-op.
        unsafe { Waker::from_raw(RawWaker::new(core::ptr::null(), &VTABLE)) }
    }
}
