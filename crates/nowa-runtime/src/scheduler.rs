//! The spawn/sync machinery — Fig. 5 of the paper, realised on fibers.
//!
//! # Spawn (`spawn_on`, `spawn_execute`)
//!
//! ```text
//! cont = contAfterSpawn();      // capture_and_run_on fills record.ctx
//! pushBottom(cont);             // inside spawn_body, on the child stack
//! func();                       // the child, called directly
//! if (!popBottom()) tryResume() // pop_or_join → Continue/ResumeSync/OutOfWork
//! ```
//!
//! One deviation from Fibril, forced by Rust codegen (see DESIGN.md): the
//! child runs on a *fresh pooled stack* instead of the parent's stack.
//! Fibril may run the child in place because its thief resumes the stolen
//! continuation with a new `rsp` while addressing the parent frame through
//! `rbp` — a frame-pointer discipline rustc/LLVM does not guarantee. Running
//! the child on its own stack makes the stolen continuation's stack region
//! exclusively owned, with identical scheduling semantics; the fast path
//! still allocates nothing (stacks come from the per-worker cache) and
//! performs no steal-side synchronisation.
//!
//! # Sync (`sync_execute`)
//!
//! The fast path is one relaxed load + one acquire load (`sync_precheck`),
//! one counter bump and the re-arm, inlined into every combinator along
//! with the erasure seam's flavor match: an un-stolen `join2` makes no
//! call for its sync beyond the TLS read of the worker. Suspension is the
//! out-of-line, `#[cold]` `sync_suspend`: it captures the sync
//! continuation into the frame, moves the (now blocked) stack into the
//! frame, applies the madvise policy below the suspended stack pointer
//! (§V-B), restores the counter (Eq. 5) and dives into the work-finding
//! loop on a fresh stack.
//!
//! # Flavors
//!
//! `spawn_execute` and `sync_execute` are the erased entries the API calls:
//! each recovers the runtime's [`Protocol`] from the worker's tag once
//! (`with_protocol!`, the erasure seam — see [`crate::flavor`]) and runs
//! a body monomorphised over it; nothing past the entry sees the flavor.

use core::ffi::c_void;
use core::mem::ManuallyDrop;
use std::panic::{catch_unwind, AssertUnwindSafe};

use nowa_context::capture_and_run_on;
use nowa_context::context::Body;

use crate::cancel::{self, Cancelled};
use crate::chaos;
use crate::flavor::{with_protocol, Protocol};
use crate::record::{Frame, SpawnRecord};
use crate::stats::{self, frame_id, Counter};
use crate::worker::{
    current_worker, fill_slot, find_work_in, finish_resume, park_current_stack, resume_record,
    resume_sync, stage_fresh_stack, AbortOnUnwind, FlavoredWorker, Worker,
};

/// Arguments shipped from `spawn_execute` to `spawn_body` (read and moved
/// out *before* the continuation is published). `spawn_body` moves the
/// closure out exactly once, so it is held without a drop flag.
struct SpawnArgs<F> {
    worker: *mut Worker,
    record: *mut SpawnRecord,
    closure: ManuallyDrop<F>,
}

/// Spawns `f` as a child strand of `frame`: the child runs now, on this
/// worker; the *continuation* of the caller is offered to thieves and this
/// call returns when the continuation is resumed — on the fast path by this
/// same worker right after the child finishes, otherwise by a thief (so the
/// code after this call may execute on a different OS thread).
///
/// Child panics are captured into the frame and re-thrown by
/// [`sync_execute`]'s caller.
///
/// # Safety
///
/// * Must be called on a worker thread ([`current_worker`] non-null).
/// * `frame` must outlive the region: the caller must guarantee a matching
///   [`sync_execute`] completes before `frame` (or anything `f` borrows)
///   is dropped or moved — including when unwinding.
/// * All values live across this call may be touched by another OS thread
///   after a steal; the safe wrappers restrict them to `Send` data.
pub unsafe fn spawn_execute<F>(frame: &Frame, f: F)
where
    F: FnOnce() + Send,
{
    // SAFETY: the caller's contract is `spawn_on`'s, with the worker read
    // right here.
    unsafe { spawn_on(current_worker(), frame, f) }
}

/// [`spawn_execute`] on a worker the caller already holds, so a combinator
/// that read [`current_worker`] at its entry does not read it again.
///
/// # Safety
///
/// As [`spawn_execute`], and `worker` must be the calling thread's live
/// worker, read with no capture point since (a capture may migrate the
/// strand to another OS thread).
#[inline]
pub(crate) unsafe fn spawn_on<F>(worker: *mut Worker, frame: &Frame, f: F)
where
    F: FnOnce() + Send,
{
    debug_assert!(!worker.is_null(), "spawn_on requires a worker thread");
    debug_assert_eq!(worker, current_worker(), "spawn_on given a stale worker");
    unsafe {
        // The erasure seam: everything protocol-dependent about a spawn
        // happens on the child stack, so the seam just picks the body
        // monomorphised for this worker's own tag.
        let body: Body = with_protocol!((*worker).seam, P => spawn_body::<P, F>);

        // Stage the child stack before capturing.
        let child_top = stage_fresh_stack(worker);

        let mut record = SpawnRecord::new(frame);
        // The parent's stack travels with the continuation.
        fill_slot(&mut record.stack, (*worker).current_stack.take());
        let mut args = SpawnArgs {
            worker,
            record: &mut record,
            closure: ManuallyDrop::new(f),
        };

        let payload = capture_and_run_on(
            &mut record.ctx,
            child_top,
            body,
            &mut args as *mut SpawnArgs<F> as *mut c_void,
        );

        // ---- the continuation: resumed by this worker (fast path), a
        // thief, or a work-finding self-pop; possibly on another thread.
        finish_resume(payload, record.stack.take());
    }
}

// SAFETY: callers: invoked only via `capture_and_run_on` with `arg` pointing
// at the `SpawnArgs<F>` staged in `spawn_execute`'s frame, which stays alive
// until the closure has been moved out and the continuation published; the
// worker in it belongs to a runtime running `P`.
unsafe extern "C" fn spawn_body<P: Protocol, F: FnOnce() + Send>(arg: *mut c_void) -> ! {
    // Armed for the whole body: runtime-internal panics must abort rather
    // than unwind into the fiber base frame (never dropped on the normal
    // path — the body diverges).
    let _guard = AbortOnUnwind;
    unsafe {
        let args = &mut *(arg as *mut SpawnArgs<F>);
        let worker = args.worker;
        let record = args.record;
        let frame: *const Frame = (*record).frame;
        // Move the closure out of the parent frame *before* publishing the
        // continuation — afterwards the parent frame may be running again.
        // The only take: `spawn_on` never drops `args.closure`.
        let f = ManuallyDrop::take(&mut args.closure);
        fill_slot(
            &mut (*worker).current_stack,
            (*worker).incoming_stack.take(),
        );
        let deque = &(*FlavoredWorker::<P>::of(worker)).deque;

        // Chaos: maybe arm a stack-map failure for the next cache miss;
        // maybe yield right before the push, widening the window in which
        // thieves observe the pre-push deque state; maybe force an
        // out-of-band promotion batch (or fail the next promotion).
        if P::CHAOS {
            chaos::on_stack_get(worker);
            chaos::on_spawn_push(worker);
            if let Some(leg) = chaos::on_force_promote(worker) {
                crate::worker::note_promotion(worker, P::force_promote(deque, leg));
            }
        }
        let pushed = P::push(deque, nowa_deque::Ptr::from_ref(&*record));
        let offered = pushed.is_some();
        if let Some(promoted) = pushed {
            stats::bump_spawn(worker, frame, || P::occupancy(deque) as u64);
            crate::worker::note_promotion(worker, promoted);
            // Idle engine: wake a thief only for work it can see. A push
            // into a private segment that promoted nothing is invisible to
            // thieves, so there wakes ride promotions; a thief parks only
            // after reading this public deque empty, and the first push
            // onto an empty public deque always promotes. A deque without
            // a private segment publishes every push.
            if promoted > 0 || !P::has_private_segment(deque) {
                crate::worker::wake_after_spawn(worker);
            }
        } else {
            stats::bump(worker, Counter::unoffered, 0);
        }

        // The child, called directly (no further runtime involvement). An
        // injected chaos panic fires inside the capture scope, so it takes
        // exactly the propagation path a user panic would.
        match catch_unwind(AssertUnwindSafe(|| {
            if P::CHAOS {
                chaos::on_child_start(worker);
            }
            f()
        })) {
            Ok(()) => {}
            Err(payload) => {
                let organic = payload.downcast_ref::<Cancelled>().is_none();
                (*frame).set_panic(payload);
                if organic {
                    // Panic→cancel-siblings: a real fault cancels the
                    // governing region (never the runtime root) so the
                    // rest of its tree unwinds at the next checkpoints
                    // instead of computing work the fault already doomed.
                    let shared = &(*worker).shared;
                    cancel::cancel_enclosing_region(
                        (*frame).scope.get(),
                        shared,
                        cancel::CancelReason::SiblingPanic,
                    );
                }
            }
        }

        // The child may have migrated OS threads internally (nested sync
        // suspended, resumed elsewhere): re-derive the worker.
        let worker = current_worker();
        let deque = &(*FlavoredWorker::<P>::of(worker)).deque;

        if !offered {
            // The continuation was never stealable; we still own it.
            resume_record(worker, nowa_deque::Ptr::from_ref(&*record))
        }

        match P::pop_or_join(deque, &*frame) {
            crate::record::AfterChild::Continue => {
                stats::bump(worker, Counter::fast_pops, frame_id(frame));
                if P::last_pop_was_private(deque) {
                    stats::bump(worker, Counter::private_pops, 0);
                }
                resume_record(worker, nowa_deque::Ptr::from_ref(&*record))
            }
            crate::record::AfterChild::ResumeSync => {
                stats::bump(worker, Counter::joins, frame_id(frame));
                resume_sync(worker, frame)
            }
            crate::record::AfterChild::OutOfWork => {
                stats::bump(worker, Counter::joins, frame_id(frame));
                find_work_in::<P>()
            }
        }
    }
}

/// Arguments shipped from `sync_execute` to `sync_body`.
struct SyncArgs {
    worker: *mut Worker,
    frame: *const Frame,
}

/// The explicit sync point: returns once every strand spawned on `frame`
/// in the current region has joined, then re-arms the frame for the next
/// region. Possibly returns on a different OS thread.
///
/// Captured child panics are *not* re-thrown here (the caller owns that,
/// so results/slots can be dropped in a defined order); use
/// [`Frame::take_panic`] afterwards.
///
/// Inlined into every combinator: the fast path is the protocol's
/// precheck, one counter bump and the re-arm, and the suspension is the
/// out-of-line, `#[cold]` `sync_suspend`.
///
/// # Safety
/// Must be called on a worker thread, by the main-path control flow of
/// `frame`'s current spawn region.
#[inline(always)]
pub unsafe fn sync_execute(frame: &Frame) {
    let worker = current_worker();
    debug_assert!(!worker.is_null(), "sync_execute requires a worker thread");
    // SAFETY: `P` is recovered from the worker's own tag.
    with_protocol!(unsafe { (*worker).seam }, P => unsafe {
        if P::CHAOS {
            sync_chaotic::<P>(worker, frame)
        } else {
            sync_in::<P>(worker, frame)
        }
    })
}

/// [`sync_in`] for the `Chaotic` instances, out of line: inlined, their
/// three copies of the chaos sync would double every combinator that
/// inlines [`sync_execute`], which the plain instances pay for in size
/// and alignment.
///
/// # Safety
/// As [`sync_in`].
#[inline(never)]
unsafe fn sync_chaotic<P: Protocol>(worker: *mut Worker, frame: &Frame) {
    unsafe { sync_in::<P>(worker, frame) }
}

/// [`sync_execute`], monomorphised over the runtime's protocol.
///
/// # Safety
/// As [`sync_execute`]; `worker` must be the calling thread's live worker,
/// of a runtime running `P`.
#[inline(always)]
unsafe fn sync_in<P: Protocol>(worker: *mut Worker, frame: &Frame) {
    unsafe {
        // Chaos: a forced cancellation at the sync boundary latches the
        // enclosing region (if any) right where suspension decisions race
        // with joins.
        if P::CHAOS && chaos::on_force_cancel(worker) {
            let shared = &(*worker).shared;
            cancel::cancel_enclosing_region(frame.scope.get(), shared, cancel::CancelReason::Token);
        }
        // Chaos: a forced suspension vetoes the fast path, driving the
        // capture/restore machinery even when all children already joined.
        let forced_suspend = P::CHAOS && chaos::on_sync(worker);
        if !forced_suspend && P::sync_precheck(frame) {
            // All children joined: proceed without suspending (Invariant
            // III makes α stable here, so the check is exact).
            stats::bump(worker, Counter::syncs_inline, frame_id(frame));
            P::rearm(frame);
            return;
        }
        sync_suspend::<P>(worker, frame)
    }
}

/// The suspension tail of [`sync_in`]: captures the sync continuation,
/// runs [`sync_body`] on a fresh stack, and returns once the sync
/// condition holds — possibly on another OS thread. Out of line and cold,
/// so the inline sync fast path carries none of it.
///
/// # Safety
/// As [`sync_in`].
#[cold]
#[inline(never)]
unsafe fn sync_suspend<P: Protocol>(worker: *mut Worker, frame: &Frame) {
    unsafe {
        // Chaos: maybe arm a stack-map failure for the next cache miss.
        if P::CHAOS {
            chaos::on_stack_get(worker);
        }
        // Stage a fresh stack for the work-finding loop.
        let fresh_top = stage_fresh_stack(worker);
        let mut args = SyncArgs { worker, frame };

        let payload = capture_and_run_on(
            frame.sync_ctx.get(),
            fresh_top,
            sync_body::<P>,
            &mut args as *mut SyncArgs as *mut c_void,
        );

        // ---- resumed: the sync condition holds.
        finish_resume(payload, (*frame.suspended_stack.get()).take());
        P::rearm(frame);
    }
}

// SAFETY: callers: invoked only via `capture_and_run_on` with `arg` pointing
// at the `SyncArgs` staged in the suspending frame, which remains alive until
// the last child resumes the sync continuation; the worker in it belongs to
// a runtime running `P`.
unsafe extern "C" fn sync_body<P: Protocol>(arg: *mut c_void) -> ! {
    let _guard = AbortOnUnwind;
    unsafe {
        let args = &mut *(arg as *mut SyncArgs);
        let worker = args.worker;
        let frame = args.frame;
        stats::bump(worker, Counter::suspensions, frame_id(frame));
        // Chaos: a forced cancellation at the suspend boundary drives the
        // cancel-during-suspended-sync path (children unwind, the last
        // joiner retires the suspension, the resume becomes an abort).
        if P::CHAOS && chaos::on_force_cancel(worker) {
            let shared = &(*worker).shared;
            cancel::cancel_enclosing_region(
                (*frame).scope.get(),
                shared,
                cancel::CancelReason::Token,
            );
        }

        // The frame's stack is now blocked by the suspended frame: it moves
        // into the frame.
        park_current_stack(
            worker,
            (*(*frame).sync_ctx.get()).0,
            (*frame).suspended_stack.get().cast(),
        );

        // Restore N_r (Eq. 5). If every child joined in the meantime, the
        // sync condition holds right away and we resume ourselves.
        if P::sync_restore(&*frame) {
            resume_sync(worker, frame)
        }
        find_work_in::<P>()
    }
}
