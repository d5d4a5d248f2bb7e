//! The safe fork/join surface.
//!
//! Continuation stealing means the code *after* a spawn may execute on a
//! different OS thread than the code before it. Rust's type system cannot
//! see the locals of an arbitrary spawning function, so the safe API is
//! built from combinators whose continuations are entirely made of
//! checkable closures:
//!
//! * [`join2`]/[`join3`]/[`join4`] — heterogeneous fork/join; the
//!   continuation after each spawned child is the next closure plus the
//!   join epilogue, all bounded `Send`.
//! * [`par_for`], [`map_reduce`], [`par_map`] — divide-and-conquer loops
//!   (the moral equivalent of `cilk_for`).
//!
//! Every combinator degrades to serial execution when called outside a
//! runtime worker — the *serial elision* of §V, for free.
//!
//! The linear loop-of-spawns shape of the paper's `foo()` (Fig. 4) and of
//! benchmarks like `nqueens` is available through the `unsafe`
//! [`Region`] API, which exposes the raw spawn/sync pair under a documented
//! contract.

use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cancel::{self, CancelCell, CancelReason, CancelToken, ScopeHandle};
use crate::foreign::{foreign_executor, foreign_join2};
use crate::record::Frame;
use crate::scheduler::{spawn_execute, spawn_on, sync_execute};
use crate::stats::{self, Counter};
use crate::worker::{current_worker, Worker};

/// True when the calling thread is a runtime worker executing a task.
pub fn in_task() -> bool {
    !current_worker().is_null()
}

/// The index of the worker executing the calling task, or `None` when the
/// calling thread is not a runtime worker.
///
/// The value identifies the worker of the *current* strand segment only:
/// code between a spawn and its sync may migrate between workers, so the
/// index may differ across those boundaries (re-query, never cache across
/// a join). Matches the `tid` tracks of the Chrome trace export.
pub fn worker_index() -> Option<usize> {
    let worker = current_worker();
    if worker.is_null() {
        None
    } else {
        // SAFETY: non-null means the pointer is the calling thread's live
        // worker; `index` is immutable after construction.
        Some(unsafe { (*worker).index })
    }
}

/// A raw pointer wrapper that asserts cross-thread transferability of the
/// pointee access it stands for.
struct SendPtr<T>(*mut T);
// SAFETY: the wrapper itself carries no aliasing claims — each construction
// site asserts (and documents) that the pointee access it stands for is
// externally synchronised by the join protocol.
unsafe impl<T> Send for SendPtr<T> {}
impl<T> Copy for SendPtr<T> {}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}

/// Syncs the frame when dropped — both on the normal path and when the
/// continuation unwinds, so no child strand can outlive the region's
/// borrows (fully-strict even under panics).
struct SyncOnDrop<'f> {
    frame: &'f Frame,
}

impl Drop for SyncOnDrop<'_> {
    fn drop(&mut self) {
        // SAFETY: we are the main-path control flow of this frame's region,
        // on a worker thread (the guard is only armed on the worker path).
        unsafe { sync_execute(self.frame) };
    }
}

/// Re-throws a panic captured from a child strand.
fn propagate(frame: &Frame) {
    if let Some(payload) = frame.core.take_panic() {
        resume_unwind(payload);
    }
}

/// Attributes and raises a cancellation unwind: one `cancels` event — a
/// watchdog progress row (cooperative unwinding is forward progress, not a
/// stall) that also emits the `Cancel` trace event.
#[cold]
#[inline(never)]
pub(crate) fn raise_cancelled(frame: *const Frame, reason: CancelReason) -> ! {
    let worker = current_worker();
    if !worker.is_null() {
        // SAFETY: non-null means the calling thread's live worker.
        unsafe {
            stats::bump(worker, Counter::cancels, stats::frame_id(frame));
        }
    }
    cancel::raise(reason)
}

/// Stamps `frame` with the worker's ambient cancellation scope and unwinds
/// with [`crate::Cancelled`] if that scope's chain is already cancelled —
/// the entry checkpoint of every safe combinator, placed *before* the sync
/// guard is armed so a cancelled entry unwinds with no children to wait
/// for. One relaxed load on the never-cancelled unscoped path.
///
/// # Safety
/// `worker` must be the calling thread's live worker, with no capture
/// point between its derivation and this call.
// lint: hot-path
#[inline]
unsafe fn adopt_scope_and_check(worker: *mut Worker, frame: &Frame) {
    // SAFETY: live worker per the function contract.
    let scope = unsafe { (*worker).cancel_scope };
    frame.core.scope.set(scope);
    // SAFETY: the ambient chain is live while this strand runs.
    if let Some(reason) = unsafe { cancel::cancelled_chain(scope) } {
        raise_cancelled(frame, reason);
    }
}

/// Cooperative checkpoint against the worker's ambient scope (no frame
/// involved); a no-op outside a runtime.
fn checkpoint_ambient() {
    let worker = current_worker();
    if worker.is_null() {
        return;
    }
    // SAFETY: non-null means the calling thread's live worker, and its
    // ambient chain is live while this strand runs.
    unsafe {
        let scope = (*worker).cancel_scope;
        if let Some(reason) = cancel::cancelled_chain(scope) {
            raise_cancelled(core::ptr::null(), reason);
        }
    }
}

/// Forks `a` and runs `b`; returns both results once both finished.
///
/// `a` is spawned (it runs immediately on this worker; the *continuation* —
/// running `b` and joining — is what thieves may steal, §II-B), then `b`
/// runs, then the region syncs. Panics from either closure propagate.
///
/// Outside a runtime this degenerates to `(a(), b())` — the serial elision.
///
/// ```
/// # let rt = nowa_runtime::Runtime::with_workers(2).unwrap();
/// # rt.run(|| {
/// fn fib(n: u64) -> u64 {
///     if n < 2 {
///         return n;
///     }
///     let (a, b) = nowa_runtime::api::join2(|| fib(n - 1), || fib(n - 2));
///     a + b
/// }
/// assert_eq!(fib(20), 6765);
/// # });
/// ```
pub fn join2<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let worker = current_worker();
    if worker.is_null() {
        if let Some(fx) = foreign_executor() {
            return foreign_join2(fx, a, b);
        }
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    let frame = Frame::new();
    // SAFETY: `worker` is the calling thread's live worker (non-null
    // above); no capture point lies between its derivation and here.
    unsafe { adopt_scope_and_check(worker, &frame) };
    let mut slot_a: Option<RA> = None;
    let ptr_a = SendPtr(&mut slot_a as *mut Option<RA>);
    let rb;
    {
        let guard = SyncOnDrop { frame: &frame };
        // SAFETY: the guard guarantees a completed sync before `frame`,
        // `slot_a` or anything borrowed by `a`/`b` dies, even when `b`
        // unwinds. Everything live across the spawn is `Send`-bounded by
        // this function's signature. `worker` was read above with no
        // capture point since.
        unsafe {
            spawn_on(worker, &frame, move || {
                let ptr_a = ptr_a; // capture the Send wrapper, not its field
                let result = a();
                *ptr_a.0 = Some(result);
            });
        }
        rb = b();
        drop(guard); // the explicit sync point
    }
    propagate(&frame);
    let ra = slot_a.take().expect("child strand completed before sync");
    (ra, rb)
}

/// Forks `a` and `b`, runs `c`; returns all three results.
pub fn join3<A, B, C, RA, RB, RC>(a: A, b: B, c: C) -> (RA, RB, RC)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    C: FnOnce() -> RC + Send,
    RA: Send,
    RB: Send,
    RC: Send,
{
    let worker = current_worker();
    if worker.is_null() {
        if foreign_executor().is_some() {
            let (ra, (rb, rc)) = join2(a, move || join2(b, c));
            return (ra, rb, rc);
        }
        let ra = a();
        let rb = b();
        let rc = c();
        return (ra, rb, rc);
    }
    let frame = Frame::new();
    // SAFETY: as in `join2`.
    unsafe { adopt_scope_and_check(worker, &frame) };
    let mut slot_a: Option<RA> = None;
    let mut slot_b: Option<RB> = None;
    let ptr_a = SendPtr(&mut slot_a as *mut Option<RA>);
    let ptr_b = SendPtr(&mut slot_b as *mut Option<RB>);
    let rc;
    {
        let guard = SyncOnDrop { frame: &frame };
        // SAFETY: as in `join2`. Only the first spawn may use the entry
        // `worker`: the next ones follow a capture and re-read it.
        unsafe {
            spawn_on(worker, &frame, move || {
                let ptr_a = ptr_a; // capture the Send wrapper, not its field
                let result = a();
                *ptr_a.0 = Some(result);
            });
            spawn_execute(&frame, move || {
                let ptr_b = ptr_b; // capture the Send wrapper, not its field
                let result = b();
                *ptr_b.0 = Some(result);
            });
        }
        rc = c();
        drop(guard);
    }
    propagate(&frame);
    (
        slot_a.take().expect("child a completed"),
        slot_b.take().expect("child b completed"),
        rc,
    )
}

/// Forks `a`, `b` and `c`, runs `d`; returns all four results.
pub fn join4<A, B, C, D, RA, RB, RC, RD>(a: A, b: B, c: C, d: D) -> (RA, RB, RC, RD)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    C: FnOnce() -> RC + Send,
    D: FnOnce() -> RD + Send,
    RA: Send,
    RB: Send,
    RC: Send,
    RD: Send,
{
    let worker = current_worker();
    if worker.is_null() {
        if foreign_executor().is_some() {
            let ((ra, rb), (rc, rd)) = join2(move || join2(a, b), move || join2(c, d));
            return (ra, rb, rc, rd);
        }
        let ra = a();
        let rb = b();
        let rc = c();
        let rd = d();
        return (ra, rb, rc, rd);
    }
    let frame = Frame::new();
    // SAFETY: as in `join2`.
    unsafe { adopt_scope_and_check(worker, &frame) };
    let mut slot_a: Option<RA> = None;
    let mut slot_b: Option<RB> = None;
    let mut slot_c: Option<RC> = None;
    let ptr_a = SendPtr(&mut slot_a as *mut Option<RA>);
    let ptr_b = SendPtr(&mut slot_b as *mut Option<RB>);
    let ptr_c = SendPtr(&mut slot_c as *mut Option<RC>);
    let rd;
    {
        let guard = SyncOnDrop { frame: &frame };
        // SAFETY: as in `join2`. Only the first spawn may use the entry
        // `worker`: the next ones follow a capture and re-read it.
        unsafe {
            spawn_on(worker, &frame, move || {
                let ptr_a = ptr_a; // capture the Send wrapper, not its field
                let result = a();
                *ptr_a.0 = Some(result);
            });
            spawn_execute(&frame, move || {
                let ptr_b = ptr_b; // capture the Send wrapper, not its field
                let result = b();
                *ptr_b.0 = Some(result);
            });
            spawn_execute(&frame, move || {
                let ptr_c = ptr_c; // capture the Send wrapper, not its field
                let result = c();
                *ptr_c.0 = Some(result);
            });
        }
        rd = d();
        drop(guard);
    }
    propagate(&frame);
    (
        slot_a.take().expect("child a completed"),
        slot_b.take().expect("child b completed"),
        slot_c.take().expect("child c completed"),
        rd,
    )
}

/// Runs `body(i)` for every `i` in `range` with divide-and-conquer
/// parallelism; ranges of at most `grain` indices run serially.
pub fn par_for<F>(range: Range<usize>, grain: usize, body: &F)
where
    F: Fn(usize) + Sync,
{
    // Every recursion level re-enters here, so this one checkpoint covers
    // interior splits and serial leaves alike.
    checkpoint_ambient();
    let grain = grain.max(1);
    let len = range.end.saturating_sub(range.start);
    if len <= grain {
        for i in range {
            body(i);
        }
        return;
    }
    let mid = range.start + len / 2;
    join2(
        || par_for(range.start..mid, grain, body),
        || par_for(mid..range.end, grain, body),
    );
}

/// Maps `map(i)` over `range` and folds the results with `reduce`, in
/// divide-and-conquer fashion. Returns `None` for an empty range.
///
/// `reduce` must be associative for the result to be deterministic; the
/// fold order is a balanced binary tree over the index space.
pub fn map_reduce<T, M, R>(range: Range<usize>, grain: usize, map: &M, reduce: &R) -> Option<T>
where
    T: Send,
    M: Fn(usize) -> T + Sync,
    R: Fn(T, T) -> T + Sync,
{
    let grain = grain.max(1);
    let len = range.end.saturating_sub(range.start);
    if len == 0 {
        return None;
    }
    if len <= grain {
        let mut acc = map(range.start);
        for i in range.start + 1..range.end {
            acc = reduce(acc, map(i));
        }
        return Some(acc);
    }
    let mid = range.start + len / 2;
    let (left, right) = join2(
        || map_reduce(range.start..mid, grain, map, reduce),
        || map_reduce(mid..range.end, grain, map, reduce),
    );
    match (left, right) {
        (Some(l), Some(r)) => Some(reduce(l, r)),
        (l, r) => l.or(r),
    }
}

/// Writes `f(&input[i])` into `output[i]` for all `i`, in parallel.
///
/// Panics if the slices have different lengths.
pub fn par_map<T, U, F>(input: &[T], output: &mut [U], grain: usize, f: &F)
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    assert_eq!(input.len(), output.len(), "par_map slice length mismatch");
    let grain = grain.max(1);
    if input.len() <= grain {
        for (o, i) in output.iter_mut().zip(input) {
            *o = f(i);
        }
        return;
    }
    let mid = input.len() / 2;
    let (in_lo, in_hi) = input.split_at(mid);
    let (out_lo, out_hi) = output.split_at_mut(mid);
    join2(
        || par_map(in_lo, out_lo, grain, f),
        || par_map(in_hi, out_hi, grain, f),
    );
}

/// Spawns `f(item)` for every item of `iter` on one frame (the linear
/// loop-of-spawns anatomy of the paper's `foo()`, Fig. 4), syncing once at
/// the end.
///
/// Unlike [`Region::spawn`] this is *safe*: the continuation between the
/// spawns is this function's own loop, and everything live across the
/// spawn points is bounded by the signature — the iterator (`I: Send`, it
/// migrates with the continuation), the body (`&F` with `F: Sync`) and the
/// items (`T: Send`).
///
/// ```
/// # let rt = nowa_runtime::Runtime::with_workers(2).unwrap();
/// # rt.run(|| {
/// use std::sync::atomic::{AtomicU64, Ordering};
/// let sum = AtomicU64::new(0);
/// nowa_runtime::api::for_each(0..100u64, &|i| {
///     sum.fetch_add(i, Ordering::Relaxed);
/// });
/// assert_eq!(sum.into_inner(), 4950);
/// # });
/// ```
pub fn for_each<I, T, F>(iter: I, f: &F)
where
    I: Iterator<Item = T> + Send,
    T: Send,
    F: Fn(T) + Sync,
{
    let mut worker = current_worker();
    if worker.is_null() {
        for item in iter {
            f(item);
        }
        return;
    }
    let frame = Frame::new();
    // SAFETY: as in `join2`.
    unsafe { adopt_scope_and_check(worker, &frame) };
    let scope = frame.core.scope.get();
    {
        let guard = SyncOnDrop { frame: &frame };
        for item in iter {
            // Skip not-yet-started children once a sibling panicked or
            // the governing scope was cancelled; the guard still syncs
            // the already-running ones and `propagate` rethrows.
            // SAFETY: the frame's scope chain is live while we run.
            if frame.core.is_flagged() || unsafe { cancel::cancelled_chain(scope) }.is_some() {
                break;
            }
            // SAFETY: values live across the spawn are `iter` (Send),
            // `f` (&F, F: Sync ⇒ &F: Send), `frame`/`guard` (runtime
            // state); the guard syncs before any of them dies, even when
            // unwinding. `worker` is re-read after every spawn.
            unsafe {
                spawn_on(worker, &frame, move || f(item));
            }
            // The continuation may have resumed on another worker.
            worker = current_worker();
        }
        drop(guard);
    }
    propagate(&frame);
    // Cancellation must surface even when every started child completed
    // cleanly (e.g. the loop broke before any child saw the flag).
    // SAFETY: as above.
    if let Some(reason) = unsafe { cancel::cancelled_chain(scope) } {
        raise_cancelled(&frame, reason);
    }
}

/// A raw spawn region: the linear loop-of-spawns shape of the paper's
/// `foo()` (Fig. 4) and of benchmarks like `nqueens`, where one frame hosts
/// many spawns joined by a single sync.
///
/// The region syncs on drop, so child strands never outlive it, but the
/// *spawn* operation itself is `unsafe` — see [`Region::spawn`].
pub struct Region {
    frame: Frame,
    /// The region's own cancellation scope; `Some` iff built with
    /// [`Region::cancellable`] / [`Region::with_deadline`]. The `Arc`
    /// keeps the cell alive for outstanding [`CancelToken`]s and the
    /// deadline queue after the region itself is gone.
    scope: Option<Arc<ScopeHandle>>,
    /// Children deferred under a foreign (child-stealing) executor; run as
    /// a balanced join tree at the sync. Deferral *is* child-stealing
    /// semantics — the continuation proceeds, children run later.
    deferred: core::cell::RefCell<Vec<Box<dyn FnOnce() + Send + 'static>>>,
    // Spawning from several threads would violate the protocol's
    // Invariant II (single main path); keep the type !Sync and !Send.
    _not_sync: core::marker::PhantomData<*mut ()>,
    // `!Unpin`, so `Pin<&Region>` is a real address-stability witness:
    // [`Region::spawn_async`] is the *safe* spawn, and its soundness
    // leans on the pinned region (whose Drop syncs) outliving every
    // child frame pointer.
    _pin: core::marker::PhantomPinned,
}

/// Runs a slice of deferred children as a balanced parallel join tree.
fn run_deferred(tasks: &mut [Option<Box<dyn FnOnce() + Send + 'static>>]) {
    match tasks.len() {
        0 => {}
        1 => (tasks[0].take().expect("deferred child present"))(),
        n => {
            let (lo, hi) = tasks.split_at_mut(n / 2);
            join2(move || run_deferred(lo), move || run_deferred(hi));
        }
    }
}

impl Region {
    /// A fresh region, governed by the enclosing scope (no scope of its
    /// own — it cannot be cancelled individually, costs no allocation).
    #[allow(clippy::new_without_default)]
    pub fn new() -> Region {
        Region::build(None)
    }

    /// A region with its own cancellation scope, chained under the
    /// enclosing one: cancelling the enclosing scope (or shutting the
    /// runtime down) still cancels this region, and
    /// [`cancel_token`](Region::cancel_token) cancels it individually.
    pub fn cancellable() -> Region {
        Region::build(Some(Region::new_scope()))
    }

    /// A cancellable region whose scope is cancelled automatically
    /// ([`CancelReason::Deadline`]) once
    /// `timeout` elapses, driven by the runtime's watchdog thread.
    /// Outside a runtime the deadline is inert (serial elision runs to
    /// completion); the token still works.
    ///
    /// ```
    /// use std::time::Duration;
    /// use nowa_runtime::{CancelReason, Cancelled, Config, Region, Runtime};
    ///
    /// let rt = Runtime::new(Config::with_workers(2)).unwrap();
    /// let out = rt.run(|| {
    ///     std::panic::catch_unwind(|| {
    ///         let region = Region::with_deadline(Duration::from_millis(30));
    ///         loop {
    ///             // A long cooperative computation: each checkpoint
    ///             // raises `Cancelled` once the deadline fires.
    ///             region.checkpoint();
    ///             std::hint::spin_loop();
    ///         }
    ///     })
    /// });
    /// let payload = out.unwrap_err();
    /// let cancelled = payload.downcast_ref::<Cancelled>().unwrap();
    /// assert_eq!(cancelled.reason, CancelReason::Deadline);
    /// ```
    pub fn with_deadline(timeout: Duration) -> Region {
        let region = Region::cancellable();
        if let Some(scope) = &region.scope {
            let worker = current_worker();
            if !worker.is_null() {
                // SAFETY: non-null means the calling thread's live worker.
                unsafe {
                    let shared = &(*worker).shared;
                    shared.deadlines.arm(scope, Instant::now() + timeout);
                }
            }
        }
        region
    }

    /// A clonable, sendable token that cancels this region, or `None` for
    /// a plain [`Region::new`] region (no scope of its own).
    pub fn cancel_token(&self) -> Option<CancelToken> {
        self.scope.as_ref().map(|s| {
            let worker = current_worker();
            let shared = if worker.is_null() {
                std::sync::Weak::new()
            } else {
                // SAFETY: non-null means the calling thread's live worker.
                // The token keeps only a Weak: it must not prolong the
                // runtime's shared state.
                unsafe { Arc::downgrade(&(*worker).shared) }
            };
            CancelToken {
                scope: s.clone(),
                shared,
            }
        })
    }

    /// Explicit cooperative checkpoint: unwinds with
    /// [`Cancelled`](crate::Cancelled) if this region's scope chain has
    /// been cancelled. Intended for long serial stretches between spawns
    /// (the combinators checkpoint on their own).
    pub fn checkpoint(&self) {
        let scope = self.frame.core.scope.get();
        if scope.is_null() {
            return;
        }
        // SAFETY: the chain head is either our own live `ScopeHandle` or
        // the ambient scope adopted at build time, whose chain outlives
        // this region structurally.
        if let Some(reason) = unsafe { cancel::cancelled_chain(scope) } {
            raise_cancelled(&self.frame, reason);
        }
    }

    /// A scope cell chained under the calling strand's ambient scope (or
    /// standalone outside a runtime).
    fn new_scope() -> Arc<ScopeHandle> {
        let worker = current_worker();
        let parent: *const CancelCell = if worker.is_null() {
            core::ptr::null()
        } else {
            // SAFETY: non-null means the calling thread's live worker.
            unsafe { (*worker).cancel_scope }
        };
        Arc::new(ScopeHandle {
            cell: CancelCell::new(parent),
        })
    }

    fn build(scope: Option<Arc<ScopeHandle>>) -> Region {
        let region = Region {
            frame: Frame::new(),
            scope,
            deferred: core::cell::RefCell::new(Vec::new()),
            _not_sync: core::marker::PhantomData,
            _pin: core::marker::PhantomPinned,
        };
        let worker = current_worker();
        match &region.scope {
            Some(s) => {
                // The Arc pins the cell's address, so the frame pointer
                // stays valid across moves of the Region itself.
                region.frame.core.scope.set(&s.cell);
                if !worker.is_null() {
                    // SAFETY: the calling thread's live worker. Children
                    // spawned here must inherit the region scope.
                    unsafe { (*worker).cancel_scope = &s.cell };
                }
            }
            None if !worker.is_null() => {
                // SAFETY: as above.
                let ambient = unsafe { (*worker).cancel_scope };
                region.frame.core.scope.set(ambient);
            }
            None => {}
        }
        region
    }

    /// Resets the worker's ambient scope to this region's parent after the
    /// sync — the main path has left the region's dynamic extent. The
    /// worker is re-derived: the sync may have migrated us.
    fn restore_ambient(&self) {
        if let Some(scope) = &self.scope {
            let worker = current_worker();
            if !worker.is_null() {
                // SAFETY: the calling thread's live worker.
                unsafe { (*worker).cancel_scope = scope.cell.parent() };
            }
        }
    }

    /// Spawns `f` as a child strand of this region: `f` runs now; the
    /// continuation (the caller's code after this call, up to
    /// [`sync`](Region::sync)) is offered to thieves and may therefore
    /// resume on a different OS thread.
    ///
    /// Outside a runtime worker, runs `f` inline.
    ///
    /// # Safety
    ///
    /// Between the first `spawn` and the completion of the matching
    /// [`sync`](Region::sync) (or the region's drop):
    ///
    /// * the region must not be moved;
    /// * every value the caller keeps live across this call must be `Send`
    ///   (it may be touched from another OS thread after a steal) — this is
    ///   the obligation the compiler cannot check for you;
    /// * thread-identity-dependent state (thread-locals, lock guards held
    ///   across the call) must not be relied upon afterwards;
    /// * `f` must capture by value (`move`) anything the continuation
    ///   mutates. The classic footgun is a spawn loop whose closure borrows
    ///   the loop variable: once the continuation is stolen, the thief
    ///   advances the loop *concurrently with the still-running child*, and
    ///   a by-reference capture reads whatever value the variable holds by
    ///   the time the child gets there — a data race on the loop frame.
    ///
    /// # Example
    ///
    /// A loop of spawns joined by one sync — the paper's Fig. 4 shape.
    /// Children write through a shared atomic, and each closure `move`s
    /// its loop variable:
    ///
    /// ```
    /// use std::sync::atomic::{AtomicU64, Ordering};
    /// use nowa_runtime::{Config, Region, Runtime};
    ///
    /// let rt = Runtime::new(Config::with_workers(2)).unwrap();
    /// let total = rt.run(|| {
    ///     let sum = AtomicU64::new(0);
    ///     let region = Region::new();
    ///     for i in 1..=4u64 {
    ///         let sum = &sum;
    ///         // SAFETY: the region is not moved; `sum` is a Send
    ///         // reference outliving the sync; `i` is moved, not
    ///         // borrowed from the loop frame.
    ///         unsafe {
    ///             region.spawn(move || {
    ///                 sum.fetch_add(i * i, Ordering::Relaxed);
    ///             });
    ///         }
    ///     }
    ///     region.sync();
    ///     sum.load(Ordering::Relaxed)
    /// });
    /// assert_eq!(total, 1 + 4 + 9 + 16);
    /// ```
    pub unsafe fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send,
    {
        // Cooperative cancellation: a flagged frame means a child already
        // recorded a panic/cancel — skip not-yet-started siblings (the
        // sync surfaces the payload). A cancelled scope chain unwinds us
        // here, before the child ever starts.
        if self.frame.core.is_flagged() {
            return;
        }
        self.checkpoint();
        let worker = current_worker();
        if !worker.is_null() {
            // Re-establish this region as the ambient scope: an inner
            // region's sync (or a steal/migration) may have repointed the
            // worker's ambient since our build.
            // SAFETY: non-null means the calling thread's live worker, read
            // with no capture point since; the caller upholds the rest of
            // `spawn_on`'s contract (this function's own).
            unsafe {
                (*worker).cancel_scope = self.frame.core.scope.get();
                spawn_on(worker, &self.frame, f);
            }
            return;
        }
        if foreign_executor().is_some() {
            // Child-stealing semantics: defer the child, continue the
            // caller; the deferred batch runs at the sync.
            let boxed: Box<dyn FnOnce() + Send + '_> = Box::new(f);
            // SAFETY: lifetime erasure; the Region contract requires the
            // sync (or drop) to complete before anything `f` borrows dies.
            let boxed: Box<dyn FnOnce() + Send + 'static> = unsafe { core::mem::transmute(boxed) };
            self.deferred.borrow_mut().push(boxed);
            return;
        }
        f();
    }

    /// The explicit sync point: returns once every spawned strand joined.
    /// Propagates the first child panic. May return on a different OS
    /// thread than it was called on.
    pub fn sync(&self) {
        if in_task() {
            // SAFETY: we are the region's main path on a worker thread.
            unsafe { sync_execute(&self.frame) };
        } else {
            let mut deferred: Vec<_> = self.deferred.borrow_mut().drain(..).map(Some).collect();
            run_deferred(&mut deferred);
        }
        self.restore_ambient();
        propagate(&self.frame);
        // A cancelled region whose children all finished cleanly still
        // unwinds: cancellation must surface even with no recorded payload.
        self.checkpoint();
    }

    /// Drives `fut` to completion on this region's main path, under the
    /// region's cancellation scope.
    ///
    /// The strand parks whenever `fut` is pending (the worker keeps
    /// scheduling other work) and is resumed by the future's waker; the
    /// park re-checks the region's scope chain, so cancelling the region
    /// — token, deadline, or runtime shutdown — unwinds a parked await
    /// with [`Cancelled`](crate::Cancelled).
    ///
    /// ```
    /// use nowa_runtime::{Config, Region, Runtime};
    ///
    /// let rt = Runtime::new(Config::with_workers(2)).unwrap();
    /// let out = rt.run(|| {
    ///     let region = Region::cancellable();
    ///     region.block_on(async { 6 * 7 })
    /// });
    /// assert_eq!(out, 42);
    /// ```
    pub fn block_on<F>(&self, fut: F) -> F::Output
    where
        F: core::future::Future + Send,
        F::Output: Send,
    {
        let worker = current_worker();
        if !worker.is_null() {
            // Re-establish this region as the ambient scope (an inner
            // region's sync or a migration may have repointed it), so the
            // parked cell checkpoints against the right chain.
            // SAFETY: non-null means the calling thread's live worker.
            unsafe { (*worker).cancel_scope = self.frame.core.scope.get() };
        }
        crate::task::block_on(fut)
    }

    /// Spawns `fut` as a child strand of this region and returns a
    /// [`JoinHandle`](crate::task::JoinHandle) resolving to its output.
    /// This is the *safe* spawn: `Pin` witnesses that the region's address
    /// is stable until its destructor runs, and the destructor syncs — so
    /// the child's frame pointer into the region cannot dangle, which is
    /// exactly the obligation [`Region::spawn`] leaves to the caller.
    ///
    /// The child runs `fut` under the region's cancellation scope on the
    /// continuation substrate ([`crate::task::block_on`] inside a spawned
    /// strand); the region's [`sync`](Region::sync)/drop still joins it
    /// like any other child, whether or not the handle is awaited.
    ///
    /// A child that panics is surfaced by [`sync`](Region::sync), not by
    /// the handle; await handles before the sync only in cancellable
    /// regions (a sibling panic cancels the region scope, which wakes and
    /// unwinds parked awaits — an unscoped region would leave them parked
    /// until the sync).
    ///
    /// ```
    /// use std::pin::pin;
    /// use nowa_runtime::{Config, Region, Runtime};
    ///
    /// let rt = Runtime::new(Config::with_workers(2)).unwrap();
    /// let total = rt.run(|| {
    ///     let region = pin!(Region::cancellable());
    ///     let region = region.as_ref();
    ///     let a = region.spawn_async(async { 40 });
    ///     let b = region.spawn_async(async { 2 });
    ///     let sum = region.block_on(async { a.await + b.await });
    ///     region.sync();
    ///     sum
    /// });
    /// assert_eq!(total, 42);
    /// ```
    pub fn spawn_async<F>(self: core::pin::Pin<&Self>, fut: F) -> crate::task::JoinHandle<F::Output>
    where
        F: core::future::Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let this = core::pin::Pin::get_ref(self);
        let (inner, handle) = crate::task::join_pair();
        // SAFETY: the Pin contract guarantees the Region's address stays
        // stable until Drop, and Drop syncs — the region (and its frame)
        // outlives the child strand. The closure captures only `'static`
        // Send values (the future and the Arc'd completion slot), so no
        // borrow outlives the sync either.
        unsafe {
            this.spawn(move || {
                let out = crate::task::block_on(fut);
                crate::task::complete_join(&inner, out);
            });
        }
        handle
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        if in_task() {
            // SAFETY: main path; ensures full strictness even on unwind.
            unsafe { sync_execute(&self.frame) };
        } else if !self.deferred.borrow().is_empty() {
            // Deferred children hold erased borrows; they must run before
            // the region (and those borrows) die.
            let mut deferred: Vec<_> = self.deferred.borrow_mut().drain(..).map(Some).collect();
            run_deferred(&mut deferred);
        }
        self.restore_ambient();
        // Panics captured from children are intentionally dropped here if
        // the region is dropped during an unwind; `sync()` on the normal
        // path propagates them.
    }
}
