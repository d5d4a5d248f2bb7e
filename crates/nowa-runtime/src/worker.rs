//! Workers, the shared runtime state, and the work-finding loop.
//!
//! A worker is one OS thread (§II: user-space platforms implement workers as
//! kernel-level threads) owning a work-stealing deque and a private stack
//! cache. The work-finding loop implements the scheduling discipline of
//! §III-B: prefer local work (bottom of the own deque), then randomised
//! stealing; every continuation taken is a fork (the `α`/count bookkeeping
//! happens behind [`Protocol`], over which the loop, parking and the wake
//! hook are monomorphised; [`find_work`] is the erased entry).
//!
//! # The `current_stack` invariant
//!
//! At any instant, a worker's `current_stack` field holds the handle of the
//! very stack its control flow is executing on. Every context transfer
//! hands stacks over through a *holder* (`SpawnRecord::stack`, `Frame::
//! suspended_stack`, `AsyncCell::stack`) and `pending_recycle` such that the
//! invariant is restored at the resume site — including when a control flow
//! *returns* from a call on a different OS thread than it entered (which
//! happens whenever a nested sync suspended and was resumed elsewhere).
//! Every transfer — spawn, sync suspension, async park — is built from the
//! same four steps, defined once below: `stage_fresh_stack` before the
//! capture, `park_current_stack` on the far side of it, `resume_captured`
//! to switch back, `finish_resume` on arrival.

use crate::sync::{AtomicBool, AtomicU64, Ordering};
use core::cell::Cell;
use core::ffi::c_void;
use core::task::Waker;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use nowa_context::{capture_and_run_on, resume, RawContext, Stack, StackPool, WorkerStackCache};
use nowa_deque::Steal;

use crate::cancel::{self, CancelCell};
use crate::chaos;
use crate::config::Config;
use crate::flavor::{with_protocol, Protocol, Rec, Seam};
use crate::idle::IdleState;
use crate::injector::{Injector, Outside};
use crate::reactor::Reactor;
use crate::stats::{self, frame_id, Counter, WorkerStats};
use crate::task::{resume_ready, AsyncWaiters};

/// State shared by all workers of one runtime instance.
pub struct Shared {
    /// Per-worker statistics.
    pub stats: Box<[WorkerStats]>,
    /// Work queued from outside the pool: root tasks and claimed async
    /// continuations, one FIFO.
    pub(crate) injector: Injector,
    /// The idle engine: eventcount-style parking and targeted wakes.
    pub idle: IdleState,
    /// Set once at shutdown.
    pub shutdown: AtomicBool,
    /// The runtime-root cancellation scope: parent of every region chain
    /// and the ambient scope of unscoped frames, so the unscoped hot-path
    /// checkpoint is a chain of depth one. [`crate::Runtime::shutdown`]
    /// latches it to cancel all in-flight work cooperatively.
    pub(crate) cancel_root: CancelCell,
    /// Root tasks submitted but not yet completed; `shutdown` drains to
    /// zero (or times out) on this.
    pub active_roots: AtomicU64,
    /// Registry of parked async continuations, notified en masse when a
    /// cancellation source fires (token, deadline, sibling panic,
    /// shutdown) so `block_on` loops re-check their scope chains.
    pub(crate) async_waiters: AsyncWaiters,
    /// The epoll reactor, polled by idle workers.
    pub(crate) reactor: Reactor,
    /// The global stack pool.
    pub pool: Arc<StackPool>,
    /// The configuration the runtime was built with.
    pub config: Config,
    /// Per-worker event rings (with their histograms); `Some` iff the
    /// runtime was configured with `Config::tracing(true)` or a
    /// `Config::trace_ring`.
    pub trace: Option<Box<[nowa_trace::TraceBuffer]>>,
    /// Per-worker fault-injection state; `Some` iff the runtime was
    /// configured with a `Config::chaos` knob.
    pub chaos: Option<Box<[chaos::ChaosWorkerState]>>,
    /// Stall reports emitted by the watchdog since startup.
    pub watchdog_reports: AtomicU64,
}

/// One worker: an OS thread plus its flavor-independent scheduling state —
/// the header of a [`FlavoredWorker`], and all that non-generic code sees.
pub struct Worker {
    /// The tag the erasure seam (`with_protocol!`) recovers this worker's
    /// protocol type from: `shared.config.flavor`, plain or `Chaotic` as
    /// `shared.config.chaos` asks, resolved once so the seam costs one
    /// load.
    pub(crate) seam: Seam,
    /// Index into `FlavoredWorker::stealers` / `Shared::stats`.
    pub index: usize,
    /// Shared runtime state.
    pub shared: Arc<Shared>,
    /// This worker's stat block, `shared.stats[index]`, cached so that a
    /// counter bump is one load instead of a reload of `shared` plus a
    /// bounds check. Points into `shared`, which this worker keeps alive.
    pub(crate) stats: core::ptr::NonNull<WorkerStats>,
    /// This worker's event ring, `shared.trace[index]`, cached the same
    /// way; `None` when the runtime has no rings. Every trace point tests
    /// it before its out-of-line `#[cold]` call into `obs.rs`, so a
    /// runtime without rings pays one load and one untaken branch per
    /// event.
    pub(crate) ring: Option<core::ptr::NonNull<nowa_trace::TraceBuffer>>,
    /// Private stack cache over the global pool.
    pub cache: WorkerStackCache,
    /// Handle of the stack the worker is currently executing on.
    pub current_stack: Option<Stack>,
    /// Staging slot: a freshly acquired stack about to be switched onto.
    pub incoming_stack: Option<Stack>,
    /// Staging slot: an abandoned stack, recycled at the next resume site.
    pub pending_recycle: Option<Stack>,
    /// Continuation of `worker_main` on the OS thread stack (exit path).
    pub exit_ctx: RawContext,
    /// xorshift64* state for victim selection.
    pub rng: u64,
    /// Victim of this worker's most recent successful steal
    /// (`usize::MAX` = none yet); retried first in every sweep.
    pub last_victim: usize,
    /// The ambient cancellation scope: the scope governing whatever code
    /// this worker is currently running. Re-established at every resume
    /// boundary from the resumed frame's recorded scope (and reset to
    /// `Shared::cancel_root` before each root task), so freshly created
    /// frames always inherit the right scope even after migration.
    pub(crate) cancel_scope: *const CancelCell,
    /// The wakers a reactor poll by this worker made due, held until the
    /// poller slot is released. Reused from poll to poll, so serving a
    /// request allocates nothing here.
    pub(crate) woken: Vec<Waker>,
    /// The timestamp source of this worker's trace buffer
    /// (`obs::record`).
    pub(crate) stamp: nowa_trace::Stamp,
}

// SAFETY: a Worker is moved to its OS thread once at startup and from then
// on only accessed by whichever single thread currently executes with it as
// `current_worker` (the raw context/stack fields are what inhibit the auto
// impl).
unsafe impl Send for Worker {}

/// A worker of a runtime running protocol `P`: the [`Worker`] header plus
/// the deque handles whose types depend on `P`. `repr(C)` with `base`
/// first, so a `*mut FlavoredWorker<P>` is also a valid `*mut Worker` —
/// which is what [`current_worker`] and every resume payload carry. The
/// way back is `FlavoredWorker::of`.
#[repr(C)]
pub struct FlavoredWorker<P: Protocol> {
    /// The flavor-independent state. Must stay the first field.
    pub base: Worker,
    /// Owner side of this worker's deque.
    pub deque: P::Owner,
    /// Thief-side handles of the whole runtime, indexed by worker.
    pub stealers: Arc<[P::Stealer]>,
}

impl<P: Protocol> FlavoredWorker<P> {
    /// The flavored worker that `worker` heads. Dereferencing the result is
    /// sound iff `worker` heads a live `FlavoredWorker<P>` of the calling
    /// thread — true of any `current_worker()` inside the protocol-generic
    /// functions: they are entered only from `worker_main::<P>` or through
    /// `with_protocol!` on the worker's own tag, and all workers of a
    /// runtime share one `P`. Project single fields (`&(*p).deque`): a
    /// reference to the whole worker would alias writes to the header.
    #[inline(always)]
    pub(crate) fn of(worker: *mut Worker) -> *const FlavoredWorker<P> {
        worker.cast()
    }
}

impl Worker {
    /// This worker's stat block.
    #[inline]
    pub fn stats(&self) -> &WorkerStats {
        // SAFETY: set at construction to `shared.stats[index]`, which the
        // `shared` Arc held by this worker keeps alive and never moves.
        unsafe { self.stats.as_ref() }
    }

    /// Next pseudo-random number (xorshift64*).
    #[inline]
    pub fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform random index in `0..n` via Lemire's multiply-shift reduction
    /// — unbiased, unlike `next_rand() % n` (a `% n` of a 64-bit value
    /// over-weights the low residues whenever `n` doesn't divide `2^64`).
    #[inline]
    pub fn next_rand_below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (((self.next_rand() as u128) * (n as u128)) >> 64) as usize
    }
}

std::thread_local! {
    static CURRENT_WORKER: Cell<*mut Worker> = const { Cell::new(core::ptr::null_mut()) };
}

/// The worker the calling OS thread belongs to, or null when the thread is
/// not a runtime worker (e.g. user threads calling the API — they fall back
/// to serial execution).
///
/// Deliberately `#[inline(never)]`: a continuation may migrate between OS
/// threads at every capture point, so thread-local addresses must never be
/// cached across one; an uninlinable function re-derives the TLS slot on
/// every call.
#[inline(never)]
pub fn current_worker() -> *mut Worker {
    CURRENT_WORKER.with(|c| c.get())
}

/// Installs the worker for the calling OS thread. `#[inline(never)]` for
/// the same reason as [`current_worker`].
#[inline(never)]
pub fn set_current_worker(worker: *mut Worker) {
    CURRENT_WORKER.with(|c| c.set(worker));
}

/// Aborts the process if dropped by unwinding — runtime-internal code must
/// never unwind through a fiber base frame (undefined behaviour).
pub struct AbortOnUnwind;

impl Drop for AbortOnUnwind {
    fn drop(&mut self) {
        eprintln!("nowa-runtime: internal panic unwound to a fiber base; aborting");
        std::process::abort();
    }
}

/// Writes `stack` into the empty hand-off slot `slot`. Every slot a
/// transfer step writes is empty by the `current_stack` invariant, so the
/// plain assignment's `Option<Stack>` drop would only ever see `None`:
/// the write skips that drop glue, and the invariant is debug-asserted
/// instead. (A full slot in a release build would leak its stack, not
/// free a live one.)
///
/// # Safety
/// `slot` must be valid for reads and writes.
// lint: wait-free
#[inline(always)]
pub(crate) unsafe fn fill_slot(slot: *mut Option<Stack>, stack: Option<Stack>) {
    unsafe {
        debug_assert!((*slot).is_none(), "stack hand-off slot already full");
        slot.write(stack);
    }
}

/// Stages a fresh stack for the control flow about to be switched onto (a
/// child, or the work-finding loop of a suspending strand) and returns its
/// top. The far side of the capture adopts it from `incoming_stack`.
///
/// # Safety
/// `worker` must be the calling thread's live worker.
#[inline(always)]
pub(crate) unsafe fn stage_fresh_stack(worker: *mut Worker) -> *mut c_void {
    unsafe {
        let fresh = (*worker).cache.get();
        let top = fresh.top();
        fill_slot(&mut (*worker).incoming_stack, Some(fresh));
        top
    }
}

/// The far side of a suspending capture: moves the stack the suspended
/// control flow lives on into `holder`, releases the unused space below
/// its captured stack pointer `sp` (the practical cactus-stack solution,
/// §V-B) and adopts the staged stack as `current_stack`.
///
/// # Safety
/// Must run on the stack [`stage_fresh_stack`] staged, right after the
/// capture whose stack pointer is `sp`; `holder` must be the suspension's
/// stack slot, owned by the caller until it publishes the suspension.
#[inline(always)]
pub(crate) unsafe fn park_current_stack(
    worker: *mut Worker,
    sp: *mut c_void,
    holder: *mut Option<Stack>,
) {
    unsafe {
        let blocked = (*worker)
            .current_stack
            .take()
            .expect("suspending control flow runs on a tracked stack");
        debug_assert!(blocked.contains(sp));
        let madvise = {
            let w: &Worker = &*worker;
            w.shared.config.madvise
        };
        blocked.release_below(sp, madvise);
        fill_slot(holder, Some(blocked));
        fill_slot(
            &mut (*worker).current_stack,
            (*worker).incoming_stack.take(),
        );
    }
}

/// Diverges into the captured continuation `ctx`, abandoning the current
/// stack (the resumed side recycles it in [`finish_resume`]). `scope` is
/// the cancellation scope governing the resumed control flow; it becomes
/// this worker's ambient so frames created after the resume inherit it.
///
/// # Safety
/// The caller must own the continuation exclusively, and `scope`'s chain
/// must be live.
#[inline(always)]
pub(crate) unsafe fn resume_captured(
    worker: *mut Worker,
    scope: *const CancelCell,
    ctx: RawContext,
) -> ! {
    unsafe {
        (*worker).cancel_scope = scope;
        fill_slot(
            &mut (*worker).pending_recycle,
            (*worker).current_stack.take(),
        );
        debug_assert!(!ctx.is_null());
        resume(ctx, worker as *mut c_void)
    }
}

/// The arrival side of every resume: `stack` — taken from the holder — is
/// the one the resumed control flow lives on and becomes `current_stack`;
/// the stack the resumer abandoned is recycled.
///
/// # Safety
/// `payload` must be the `*mut Worker` the resumer delivered (every resume
/// site in this runtime passes the resuming worker), valid for the whole
/// call and not aliased by another thread.
#[inline]
pub(crate) unsafe fn finish_resume(payload: *mut c_void, stack: Option<Stack>) {
    let worker = payload as *mut Worker;
    unsafe {
        debug_assert!(stack.is_some());
        fill_slot(&mut (*worker).current_stack, stack);
        if let Some(stack) = (*worker).pending_recycle.take() {
            (*worker).cache.put(stack);
        }
        // Steal-to-first-poll: if this resume consumed a steal, the stolen
        // continuation is now runnable — stop the clock.
        if (*worker).ring.is_some() {
            crate::obs::resume_finished(worker);
        }
    }
}

/// Resumes a taken continuation. Diverges into the resumed control flow.
///
/// # Safety
/// `rec` must be a continuation record exclusively owned by this control
/// flow (freshly popped/stolen), with a captured `ctx`.
///
/// Inlined, like `resume_captured`, so the spawn fast path reaches the
/// resume with no call frame outstanding (see `nowa_context::context`).
#[inline(always)]
pub unsafe fn resume_record(worker: *mut Worker, rec: Rec) -> ! {
    unsafe {
        let rec = rec.as_ptr();
        resume_captured(worker, (*(*rec).frame).scope.get(), (*rec).ctx)
    }
}

/// Resumes the suspended sync continuation of `frame`. Diverges.
///
/// # Safety
/// The caller must have won the sync (its join observed the restored
/// counter hit zero), which makes it the unique owner of the suspension
/// state.
pub unsafe fn resume_sync(worker: *mut Worker, frame: *const crate::record::Frame) -> ! {
    unsafe {
        let scope = (*frame).scope.get();
        // SAFETY: the frame is live (we own its suspension), so its whole
        // scope chain is live.
        if cancel::cancelled_chain(scope).is_some() {
            // Resuming a suspension whose scope is cancelled *is* the
            // abort: the continuation proceeds straight into the sync
            // checkpoint and unwinds. Attribute it as such.
            stats::bump(worker, Counter::aborts, frame_id(frame));
        } else {
            stats::bump(worker, Counter::sync_resumes, frame_id(frame));
        }
        resume_captured(worker, scope, *(*frame).sync_ctx.get())
    }
}

/// The work-finding loop (never returns; diverges into resumed work or the
/// worker's exit continuation).
///
/// Order per iteration: shutdown check → own deque bottom → outside queue →
/// steal sweep (last-victim affinity, then a random walk) → the idle
/// ladder: exponential spin, OS yields (each rung busy-polls the reactor
/// first while an fd is registered), and finally the announce-validate-
/// park descent of [`crate::idle`]. `failed_sweeps` only resets when actual
/// work was found — a perpetually contended victim (`Steal::Retry`) no
/// longer pins every thief at maximum spin.
///
/// # Safety
/// Must run on a worker thread whose `current_stack` invariant holds.
pub unsafe fn find_work() -> ! {
    let worker = current_worker();
    debug_assert!(!worker.is_null());
    // SAFETY: `P` is recovered from the worker's own tag.
    with_protocol!(unsafe { (*worker).seam }, P => unsafe { find_work_in::<P>() })
}

/// [`find_work`], monomorphised over the runtime's protocol.
///
/// # Safety
/// As [`find_work`], on a worker of a runtime running `P`.
pub(crate) unsafe fn find_work_in<P: Protocol>() -> ! {
    let mut failed_sweeps: u32 = 0;
    loop {
        // Re-derive the worker every iteration: running a root task may
        // return on a different OS thread (see module docs).
        let worker = current_worker();
        debug_assert!(!worker.is_null());
        let shared: &Shared = unsafe { &*Arc::as_ptr(&(*worker).shared) };
        let deque = unsafe { &(*FlavoredWorker::<P>::of(worker)).deque };

        if shared.shutdown.load(Ordering::Acquire) {
            unsafe {
                fill_slot(
                    &mut (*worker).pending_recycle,
                    (*worker).current_stack.take(),
                );
                let ctx = (*worker).exit_ctx;
                resume(ctx, worker as *mut c_void)
            }
        }

        // Local work first: the bottom of our own deque holds the deepest
        // ancestor continuation (cheapest to resume, busy-leaves style).
        if let Some(rec) = P::take_own(deque) {
            unsafe {
                stats::bump(worker, Counter::own_takes, frame_id((*rec.as_ptr()).frame));
                if P::last_pop_was_private(deque) {
                    stats::bump(worker, Counter::private_pops, 0);
                }
                resume_record(worker, rec)
            }
        }

        // Work queued from outside the pool, oldest first. An empty poll is
        // one load of the queue's length — no lock.
        match shared.injector.pop() {
            Some(Outside::Ready(cell)) => unsafe {
                // Drop our queue Arc *before* diverging into the resume
                // (nothing after `resume_ready` runs). The parked
                // `block_on` frame holds its own Arc on the suspended
                // stack, which keeps the cell alive across the switch.
                let ptr = Arc::as_ptr(&cell);
                drop(cell);
                resume_ready(worker, ptr)
            },
            Some(Outside::Root(run)) => {
                unsafe {
                    stats::bump(worker, Counter::roots, 0);
                    // A root tree starts unscoped: governed by the runtime
                    // root cell only.
                    (*worker).cancel_scope = &shared.cancel_root;
                }
                // The task's control flow may suspend internally and
                // complete on another worker; everything below re-derives
                // state.
                run();
                failed_sweeps = 0;
                continue;
            }
            None => {}
        }

        // Steal sweep: the last successful victim first (work tends to
        // cluster — the victim that fed us last is the best bet), then a
        // full walk from an unbiased random start.
        let stealers: &[P::Stealer] = unsafe { &(*FlavoredWorker::<P>::of(worker)).stealers };
        let n = stealers.len();
        let me = unsafe { (*worker).index };
        if n > 1 {
            let lv = unsafe { (*worker).last_victim };
            let start = unsafe { (*worker).next_rand_below(n) };
            let retry_budget = shared.config.idle.steal_retries;
            // Candidate 0 is the affinity victim; candidates 1..=n walk the
            // ring (the affinity victim may repeat — one cheap extra probe).
            for i in 0..=n {
                let victim = if i == 0 {
                    if lv < n && lv != me {
                        lv
                    } else {
                        continue;
                    }
                } else {
                    (start + i - 1) % n
                };
                if victim == me {
                    continue;
                }
                // Bounded per-victim retry with exponential backoff: a lost
                // race means the victim *has* work, so it's worth a few
                // increasingly spaced attempts — but never an unbounded
                // livelock against a contended victim.
                let mut attempt: u32 = 0;
                loop {
                    // Chaos: a forced failure stands in for the steal.
                    let forced = if P::CHAOS {
                        unsafe { chaos::on_steal_attempt(worker) }
                    } else {
                        None
                    };
                    let stolen = forced.unwrap_or_else(|| P::steal_from(&stealers[victim]));
                    match stolen {
                        Steal::Success(rec) => unsafe {
                            (*worker).last_victim = victim;
                            stats::bump(worker, Counter::steals, frame_id((*rec.as_ptr()).frame));
                            // Chaos: forced cancellation at the steal
                            // boundary — the stolen continuation resumes
                            // straight into a cancelled checkpoint.
                            if P::CHAOS && chaos::on_force_cancel(worker) {
                                cancel::cancel_enclosing_region(
                                    (*(*rec.as_ptr()).frame).scope.get(),
                                    shared,
                                    cancel::CancelReason::Token,
                                );
                            }
                            resume_record(worker, rec)
                        },
                        Steal::Retry => {
                            unsafe { stats::bump(worker, Counter::steal_retry, victim as u64) };
                            attempt += 1;
                            if attempt > retry_budget {
                                break;
                            }
                            for _ in 0..(1u32 << attempt.min(8)) {
                                core::hint::spin_loop();
                            }
                        }
                        Steal::Empty => {
                            unsafe { stats::bump(worker, Counter::steal_empty, victim as u64) };
                            break;
                        }
                    }
                }
            }
        }

        // Nothing anywhere: descend the idle ladder. `failed_sweeps` resets
        // only on actual work (the resume/continue paths above). The count
        // doubles as the stall watchdog's liveness heartbeat: every way out
        // of an iteration above is itself a progress event, and even a
        // fully idle worker ticks this every backoff period.
        failed_sweeps = failed_sweeps.saturating_add(1);
        unsafe { stats::bump(worker, Counter::idle_sweeps, 0) };
        let idle_cfg = &shared.config.idle;
        if failed_sweeps > idle_cfg.spin_sweeps + idle_cfg.yield_sweeps {
            unsafe { park_worker::<P>(worker, shared, stealers) };
            continue;
        }
        // Busy-poll the reactor on the spin/yield rungs while any fd is
        // registered: readiness that arrives now is served without first
        // waiting out the ladder. The count is an advisory gate — a stale
        // zero only defers the poll to the park rung.
        if shared.reactor.sources() > 0
            && shared.reactor.try_claim(me)
            && unsafe { poll_claimed(worker, shared, Duration::ZERO) }
        {
            failed_sweeps = 0;
            continue;
        }
        if failed_sweeps <= idle_cfg.spin_sweeps {
            // Short exponential spin: cheapest, keeps steal latency minimal
            // while work is likely to reappear immediately.
            for _ in 0..(1u32 << failed_sweeps.min(10)) {
                core::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
    }
}

/// One reactor poll of up to `timeout` by `worker`, which holds the
/// poller slot. Releases the slot and only then wakes what the poll made
/// due (and broadcasts a region deadline it latched): woken with the slot
/// still held, each wake would kick this thread's own eventfd. Returns
/// whether anything was woken.
///
/// # Safety
/// `worker` must be the calling thread's live worker, and it must hold
/// `shared.reactor`'s poller slot.
unsafe fn poll_claimed(worker: *mut Worker, shared: &Shared, timeout: Duration) -> bool {
    // Moved out for the poll so no reference into the worker is live
    // while the poll and the wakes use `worker`.
    let mut woken = core::mem::take(unsafe { &mut (*worker).woken });
    let latched = unsafe { shared.reactor.poll(worker, timeout, &mut woken) };
    shared.reactor.release();
    let any = !woken.is_empty() || latched;
    woken.drain(..).for_each(Waker::wake);
    if latched {
        cancel::broadcast(shared);
    }
    unsafe { (*worker).woken = woken };
    any
}

/// The deep-idle descent: announce intent to sleep, re-validate every work
/// source, then futex-park until a targeted wake, the `max_park` timeout,
/// or a stale epoch. The announce-then-re-scan order is what makes the
/// engine lost-wakeup-free: any producer whose push is ordered after our
/// announce sees our sleeper count (and wakes us); any push ordered before
/// it is seen by the re-scan (and aborts the park).
///
/// # Safety
/// `worker` must be the calling thread's live worker; `shared` its runtime
/// and `stealers` its thief-side handles.
unsafe fn park_worker<P: Protocol>(worker: *mut Worker, shared: &Shared, stealers: &[P::Stealer]) {
    let index = unsafe { (*worker).index };
    // The validation re-scan: anything runnable anywhere? (Our own deque
    // can't have grown — only this worker pushes to it — so scan the
    // others.) Private segments don't show in `stealer_len`; they needn't:
    // a victim whose public deque reads empty here promotes, and so takes
    // the wake path, on its very next push (§6g).
    let runnable = || {
        shared.shutdown.load(Ordering::Acquire)
            || !shared.injector.is_empty()
            || stealers
                .iter()
                .enumerate()
                .any(|(i, s)| i != index && P::stealer_len(s) > 0)
    };

    // Reactor-poller branch: the first idle worker to claim the poller
    // slot sleeps in `epoll_wait` instead of on a futex, so I/O readiness
    // and timers are served by parked capacity — no dedicated reactor
    // thread. The claimant does NOT announce to the idle engine (it is
    // not futex-parked and a targeted wake could not reach it); producers
    // that find no futex sleeper kick the eventfd instead, and the poll
    // timeout is clamped to `max_park` as the store-buffering backstop.
    if shared.reactor.try_claim(index) {
        // Same validation re-scan as the futex path: anything runnable
        // aborts the poll before it blocks.
        if runnable() {
            shared.reactor.release();
        } else {
            // At least a millisecond: a zero `max_park` must not turn
            // the park rung into a busy poll.
            let max = shared.config.idle.max_park.max(Duration::from_millis(1));
            let timeout = shared
                .reactor
                .deadlines
                .timeout(std::time::Instant::now(), max);
            unsafe { poll_claimed(worker, shared, timeout) };
        }
        return;
    }

    let epoch = shared.idle.announce(index);

    if runnable() {
        if shared.idle.cancel(index) {
            // A targeted wake raced onto us while we were cancelling; pass
            // it on so the work that triggered it still gets a thief.
            unsafe { wake_one_from(worker, shared) };
        }
        return;
    }

    let skip_wait = P::CHAOS && unsafe { chaos::on_park_wait(worker) };
    unsafe { stats::bump(worker, Counter::parks, 0) };
    let t0 = std::time::Instant::now();
    let timeout_ns = shared.config.idle.max_park.as_nanos().min(u64::MAX as u128) as u64;
    let woken = shared.idle.park(index, epoch, timeout_ns.max(1), skip_wait);
    unsafe {
        stats::add(worker, Counter::parked_ns, t0.elapsed().as_nanos() as u64);
        if !woken {
            stats::bump(worker, Counter::wakes_spurious, 0);
        }
    }
}

/// The wake rule for work pushed onto the outside queue — a root task, or
/// a claimed async continuation (a `Waker` may fire on any thread): one
/// targeted futex wake if a sleeper exists, otherwise a reactor kick. No
/// spawner on a worker thread will pick this work up, so the wake is
/// unconditional; and the only idle worker may be the claimed poller
/// napping in `epoll_wait`, which the eventcount cannot see, so a wake
/// that found no sleeper kicks it.
pub(crate) fn wake_from_outside(shared: &Shared) {
    if shared.idle.wake_one().is_none() {
        shared.reactor.kick_if_claimed();
    }
}

/// One targeted wake from a worker, with its bookkeeping.
///
/// # Safety
/// `worker` must be the calling thread's live worker; `shared` its runtime.
#[inline]
unsafe fn wake_one_from(worker: *mut Worker, shared: &Shared) {
    if let Some(target) = shared.idle.wake_one() {
        unsafe { stats::bump(worker, Counter::wakes_issued, target as u64) };
    }
}

/// Promotion bookkeeping: one batch, `moved` items. No-op when `moved`
/// is 0 so callers can pass a promotion result unconditionally.
///
/// # Safety
/// `worker` must be the calling thread's live worker.
#[inline]
pub(crate) unsafe fn note_promotion(worker: *mut Worker, moved: u32) {
    if moved > 0 {
        unsafe {
            stats::bump(worker, Counter::promotions, 0);
            stats::add(worker, Counter::promoted_items, u64::from(moved));
        }
    }
}

/// The spawn-path wake hook, called when a spawn made work thief-visible
/// (an unsplit push, or a split push that promoted). One relaxed load of
/// the sleeper count on the common path; when sleepers exist, issue one
/// targeted wake. The caller just pushed onto the public deque, so the
/// woken thief has work to see unless an (awake) thief already took it.
///
/// # Safety
/// `worker` must be the calling thread's live worker.
#[inline]
pub(crate) unsafe fn wake_after_spawn(worker: *mut Worker) {
    let shared: &Shared = unsafe { &*Arc::as_ptr(&(*worker).shared) };
    if shared.idle.sleepers() == 0 {
        // No futex sleeper — but the claimed reactor poller (invisible to
        // the idle engine) may be napping. Kicks are eventfd-coalesced, so
        // a spawn storm pays at most one write per poll cycle.
        shared.reactor.kick_if_claimed();
        return;
    }
    unsafe { wake_one_from(worker, shared) };
}

// SAFETY: callers: invoked only via `capture_and_run_on` from
// `worker_main::<P>` with `arg` pointing at this thread's boxed, pinned
// `FlavoredWorker<P>` (equivalently: at its `Worker` header).
unsafe extern "C" fn worker_body<P: Protocol>(arg: *mut c_void) -> ! {
    // Armed for the whole body: an unwinding panic would otherwise reach
    // the fiber base frame (undefined behaviour).
    let _guard = AbortOnUnwind;
    unsafe {
        let worker = arg as *mut Worker;
        fill_slot(
            &mut (*worker).current_stack,
            (*worker).incoming_stack.take(),
        );
        find_work_in::<P>()
    }
}

/// OS-thread entry of a worker. Checks in at `started` once the thread has
/// made its first allocation (see `Runtime::new`); returns when the
/// runtime shuts down.
#[allow(clippy::boxed_local)] // the Box pins the Worker's address for TLS/raw pointers
pub fn worker_main<P: Protocol>(mut flavored: Box<FlavoredWorker<P>>, started: &Barrier) {
    let worker = &flavored.base;
    // Label the thread for guard-page fault reports, and give the SIGSEGV
    // handler an alternate stack to run on: at the moment of a fiber stack
    // overflow this thread's sp points into the guard page, so the handler
    // cannot run on the faulting stack. Held for the thread's lifetime.
    nowa_context::signal::set_thread_label(worker.index);
    let _alt = nowa_context::signal::AltStack::install().ok();
    flavored.base.woken.reserve(crate::reactor::MAX_EVENTS);
    started.wait();
    // Derived from the whole flavored worker, so the header pointer may be
    // cast back by `FlavoredWorker::of`.
    let wptr = (&mut *flavored as *mut FlavoredWorker<P>).cast::<Worker>();
    set_current_worker(wptr);
    // SAFETY: `wptr` points at the boxed worker pinned for this whole
    // function; `worker_body` diverges into the scheduler and resumes
    // `exit_ctx` exactly once, at shutdown.
    unsafe {
        let first = (*wptr).cache.get();
        let top = first.top();
        fill_slot(&mut (*wptr).incoming_stack, Some(first));
        let payload = capture_and_run_on(
            &mut (*wptr).exit_ctx,
            top,
            worker_body::<P>,
            wptr as *mut c_void,
        );
        // ---- shutdown: back on the OS thread stack ----
        let worker_now = payload as *mut Worker;
        debug_assert_eq!(worker_now, wptr, "exit context resumed by its owner");
        if let Some(stack) = (*worker_now).pending_recycle.take() {
            (*worker_now).cache.put(stack);
        }
    }
    set_current_worker(core::ptr::null_mut());
    // `flavored` drops here; its cache drains into the shared pool.
}
