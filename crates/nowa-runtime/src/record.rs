//! The per-frame state and the spawn records — the objects that flow
//! through the deques.
//!
//! Every *spawning function* instance owns one [`Frame`], the paper's
//! per-frame "stack object" (§IV-B). It carries Nowa's wait-free counter
//! pair, the panic/cancel latch, the governing cancellation scope, the
//! captured *sync continuation* resumed by the last joining child, and the
//! stack the suspended frame lives on (the cactus-stack node, cf. Listing
//! 2's `f->stack = victim->stack`). Its one mutex is Listing 2's frame
//! lock for the Fibril-style baseline and the panic slot of every flavor.

use core::cell::{Cell, UnsafeCell};
use core::mem::ManuallyDrop;
use std::any::Any;

use nowa_context::{RawContext, Stack};
// The frame lock stays `parking_lot` even under loom: the Fibril-style
// baseline is not a verification target, and the panic slot behind it is
// reached only once `flagged` (a shim atomic) is set.
use parking_lot::Mutex;

use crate::cancel::{CancelCell, Cancelled};
use crate::sync::{AtomicI64, AtomicU32, Ordering};

/// Panic payload captured from a child strand.
pub type PanicPayload = Box<dyn Any + Send + 'static>;

/// The arbitrarily large initial value of the sync-condition counter
/// (the paper's `I_max`, §IV-B). Phase 1 keeps the counter at
/// `N_r' = I_max − ω`; the explicit sync restores `N_r = N_r' − (I_max − α)`.
pub const I_MAX: i64 = i64::MAX;

/// [`Frame::susp`]: no suspension is parked at the explicit sync.
pub const SUSP_IDLE: u32 = 0;
/// [`Frame::susp`]: the main path has suspended at the explicit sync
/// and exactly one party (last joiner or the restoring sync itself) may
/// claim the resume by swapping the state back to [`SUSP_IDLE`].
pub const SUSP_SUSPENDED: u32 = 1;

/// The per-spawning-function frame: join state, latch and suspension state.
///
/// Created by the spawning function (e.g. inside [`join2`](crate::api::join2))
/// in its own stack frame and **never moved** while spawns of the region are
/// outstanding — records hold raw pointers to it.
///
/// # Two protocols, one set of fields
///
/// Nowa uses `counter`, `alpha` and `susp` as §IV-B describes. The
/// Fibril-style baseline (Listing 2) keeps its strand count in `alpha`
/// and its `suspended` flag in `susp`, and touches both only while it
/// holds [`lock`](Self::lock) — Listing 2's frame lock. So every flavor
/// shares one layout, and frames, records and the public API stay
/// non-generic; only the scheduler bodies are monomorphised.
///
/// # Synchronization
///
/// The `UnsafeCell` fields are written by the main-path control flow while
/// no joiner can observe the sync condition (phase 1 of the protocol, or
/// under the frame lock in the locked protocol) and read by the single
/// control flow that wins the sync — ordering is established by the join
/// counter's `AcqRel` RMWs (or the frame lock).
///
/// # Layout
///
/// Packed, in declaration order (DESIGN.md §6g): the words an un-stolen
/// `join2` touches (`counter`, `alpha`, `susp`, `flagged`, `scope`) fill
/// the first 32 bytes, the suspension state and the lock follow, with no
/// padding but the four bytes after `flagged`. Every `join2` builds a
/// frame on its stack, so each cache line the frame spans is a line the
/// spawn fast path writes. Asserted below and in `layout.rs`. Under loom
/// `repr(C)` drops away: loom's atomics have model-sized layouts.
///
/// # Drop
///
/// Every `join2` also drops a frame, so the drop is one inline load of
/// `flagged` (see the `Drop` impl). The two fields that own resources are
/// `ManuallyDrop` for that reason: a frame is dropped only after its
/// last sync resumed, which emptied `suspended_stack`, and `lock` guards
/// a payload only once `flagged` is set.
#[cfg_attr(not(loom), repr(C))]
pub struct Frame {
    /// Nowa's sync-condition counter. `N_r'` in phase 1; `N_r` after the
    /// restore at the explicit sync point.
    pub counter: AtomicI64,
    /// Nowa's forked-task count `α`. Only the main-path control flow
    /// increments it (Invariant II), so `Relaxed` suffices; atomicity is
    /// only needed because the main path migrates between OS threads.
    /// Fibril's strand count (`N_r = α − ω`), under [`lock`](Self::lock).
    pub alpha: AtomicU32,
    /// Explicit suspension state machine ([`SUSP_IDLE`] /
    /// [`SUSP_SUSPENDED`]), making the counter algebra's implicit
    /// "exactly one party resumes a suspension" guarantee assertable —
    /// the abortable-suspension protocol's "retired exactly once"
    /// invariant (DESIGN.md §6f) is precisely "the `swap(SUSP_IDLE)`
    /// returns [`SUSP_SUSPENDED`] exactly once per suspension".
    ///
    /// The suspending sync stores [`SUSP_SUSPENDED`] *before* its
    /// counter restore; the zero-crossing winner (last joiner, or the
    /// restore itself) swaps it back. Visibility rides the counter's
    /// AcqRel chain: the store is sequenced before the restoring
    /// `fetch_sub`, and a joiner only consults `susp` after its own
    /// `fetch_sub` observed the restored count. Fibril's `suspended`
    /// flag, under [`lock`](Self::lock).
    pub susp: AtomicU32,
    /// Set (relaxed) when any child strand of this frame records a panic;
    /// per-spawn checkpoints read it to skip not-yet-started siblings even
    /// when no cancellable region governs the frame.
    pub flagged: AtomicU32,
    /// The innermost cancellation scope governing this frame. Written once
    /// by the spawning strand before the frame is published to any child
    /// (so reads never race a write); read at checkpoints and at resume
    /// boundaries to re-establish the worker's ambient scope.
    pub(crate) scope: Cell<*const CancelCell>,
    /// Continuation saved at a suspending explicit sync.
    pub sync_ctx: UnsafeCell<RawContext>,
    /// The stack holding the suspended frame; the resuming control flow
    /// takes it over as its current stack.
    pub suspended_stack: UnsafeCell<ManuallyDrop<Option<Stack>>>,
    /// The frame lock: Listing 2's per-frame lock for the Fibril baseline,
    /// and for every flavor the slot of the first panic observed in a
    /// child strand (children may panic concurrently). The two uses never
    /// nest: [`set_panic`](Self::set_panic) runs before the child's
    /// `pop_or_join` and [`take_panic`](Self::take_panic) after the sync,
    /// and neither takes a deque lock. The panic slot is touched only once
    /// `flagged` is set (`set_panic` stores the flag first; `take_panic`
    /// and the drop skip an unflagged frame).
    pub lock: ManuallyDrop<Mutex<Option<PanicPayload>>>,
}

#[cfg(not(loom))]
const _: () = {
    use core::mem::{align_of, offset_of, size_of};
    // The words an un-stolen `join2` touches lead, in the first 32 bytes.
    assert!(offset_of!(Frame, counter) == 0);
    assert!(offset_of!(Frame, alpha) == 8);
    assert!(offset_of!(Frame, susp) == 12);
    assert!(offset_of!(Frame, flagged) == 16);
    assert!(offset_of!(Frame, scope) == 24);
    assert!(size_of::<Frame>() <= 80);
    assert!(align_of::<Frame>() <= 8);
};

impl Frame {
    /// A fresh frame, ready for its first spawn region: counter armed at
    /// `I_max`, nothing forked, nothing suspended, no panic recorded.
    #[inline]
    pub fn new() -> Frame {
        Frame {
            counter: AtomicI64::new(I_MAX),
            alpha: AtomicU32::new(0),
            susp: AtomicU32::new(SUSP_IDLE),
            flagged: AtomicU32::new(0),
            scope: Cell::new(core::ptr::null()),
            sync_ctx: UnsafeCell::new(RawContext::null()),
            suspended_stack: UnsafeCell::new(ManuallyDrop::new(None)),
            lock: ManuallyDrop::new(Mutex::new(None)),
        }
    }

    /// Records a child panic. First one wins, with one exception: a *real*
    /// fault replaces a stored [`Cancelled`] payload, so when cancellation
    /// races an organic panic the genuine fault is the one that surfaces
    /// (the unwind cancellation triggered must not mask what it found).
    pub fn set_panic(&self, payload: PanicPayload) {
        // Relaxed latch: readers only use it to skip future spawns; the
        // payload itself is published by the lock below.
        self.flagged.store(1, Ordering::Relaxed);
        let mut slot = self.lock.lock();
        let displaceable = match &*slot {
            None => true,
            Some(stored) => {
                stored.downcast_ref::<Cancelled>().is_some()
                    && payload.downcast_ref::<Cancelled>().is_none()
            }
        };
        if displaceable {
            *slot = Some(payload);
        }
    }

    /// Whether any child strand of this frame has recorded a panic.
    // lint: wait-free
    #[inline(always)]
    pub fn is_flagged(&self) -> bool {
        self.flagged.load(Ordering::Relaxed) != 0
    }

    /// Takes a recorded panic, if any. Called by the main-path control flow
    /// after a completed sync.
    ///
    /// An unflagged frame answers `None` without touching the lock. The
    /// gate load is Relaxed and still exact: a child's `flagged` store is
    /// sequenced before its join, and that join — an AcqRel counter RMW,
    /// the frame lock, or the same thread — happens-before the completed
    /// sync, so coherence forbids reading the flag's old value here.
    #[inline]
    pub fn take_panic(&self) -> Option<PanicPayload> {
        if !self.is_flagged() {
            return None;
        }
        self.take_flagged_panic()
    }

    /// The locked tail of [`take_panic`](Self::take_panic), for a flagged
    /// frame.
    #[cold]
    #[inline(never)]
    fn take_flagged_panic(&self) -> Option<PanicPayload> {
        self.lock.lock().take()
    }

    /// The tail of the drop, for a flagged frame: drops the panic slot
    /// with any payload nobody took.
    #[cold]
    #[inline(never)]
    fn drop_flagged(&mut self) {
        // SAFETY: called once, from `drop`; nothing reads `lock` after.
        unsafe { ManuallyDrop::drop(&mut self.lock) }
    }
}

impl Drop for Frame {
    /// One relaxed load for an unflagged frame: its stack slot is empty
    /// and its panic slot was never filled, so there is nothing to free.
    #[inline]
    fn drop(&mut self) {
        debug_assert!(
            self.suspended_stack.get_mut().is_none(),
            "frame dropped with a suspended stack"
        );
        if self.is_flagged() {
            self.drop_flagged();
        }
    }
}

impl Default for Frame {
    fn default() -> Self {
        Frame::new()
    }
}

// SAFETY: the frame is shared between workers by design. The atomics
// and the lock (whose payload is `Send`) are thread-safe on their own;
// `scope` is written only before the frame is published to any child;
// each `UnsafeCell` is written only by the party the join protocol
// designates, ordered by the counter's AcqRel RMWs or the frame lock
// (see "Synchronization" above).
unsafe impl Send for Frame {}
// SAFETY: as for `Send`.
unsafe impl Sync for Frame {}

/// A continuation offered to thieves (the item type of all deques).
///
/// Lives in the spawn wrapper's stack frame on the *parent's* stack; the
/// record is owned by exactly one party at a time:
///
/// 1. the spawning control flow, from construction until `push`;
/// 2. the deque, until `pop` (fast path) or a successful `steal`;
/// 3. the consumer, which resumes `ctx` and thereby hands the record back
///    to the spawn wrapper's post-capture code.
///
/// Unpadded: the deques move only its address, and while a thief may take
/// it the parent control flow is parked in the capture, so the parent's
/// stack around it is quiet. An aligned slot would add a line to every
/// spawn's writes.
#[repr(C)]
pub struct SpawnRecord {
    /// The captured parent continuation (filled by `capture_and_run_on`).
    pub ctx: RawContext,
    /// The frame whose spawn produced this continuation.
    pub frame: *const Frame,
    /// The stack the parent frame lives on. Travels with the continuation:
    /// whoever resumes `ctx` executes on this stack (cf. Listing 2's
    /// `f->stack = victim->stack`).
    pub stack: Option<Stack>,
}

impl SpawnRecord {
    /// A record for `frame`, not yet captured.
    pub fn new(frame: *const Frame) -> SpawnRecord {
        SpawnRecord {
            ctx: RawContext::null(),
            frame,
            stack: None,
        }
    }
}

/// Outcome of the post-child `pop_or_join` step (Fig. 5 lines 4–5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AfterChild {
    /// `popBottom()` returned our continuation: proceed (fast path).
    Continue,
    /// Continuation stolen; we joined as the **last** child of a frame
    /// suspended at its explicit sync: resume the sync continuation.
    ResumeSync,
    /// Continuation stolen; siblings outstanding: the worker is out of work.
    OutOfWork,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelReason;

    #[test]
    fn fresh_frame_is_armed_and_empty() {
        let frame = Frame::new();
        assert_eq!(frame.counter.load(Ordering::Relaxed), I_MAX);
        assert_eq!(frame.alpha.load(Ordering::Relaxed), 0);
        assert_eq!(frame.susp.load(Ordering::Relaxed), SUSP_IDLE);
        assert!(!frame.is_flagged());
        assert!(frame.lock.lock().is_none());
        // SAFETY: `frame` is unshared here, so reading its cells races
        // with nothing.
        assert!(unsafe { &*frame.sync_ctx.get() }.is_null());
        // SAFETY: as above.
        assert!(unsafe { &*frame.suspended_stack.get() }.is_none());
    }

    #[test]
    fn record_starts_uncaptured() {
        let frame = Frame::new();
        let rec = SpawnRecord::new(&frame);
        assert!(rec.ctx.is_null());
        assert!(rec.stack.is_none());
        assert_eq!(rec.frame, &frame as *const Frame);
    }

    #[test]
    fn panic_slot_first_wins() {
        let frame = Frame::new();
        frame.set_panic(Box::new("first"));
        frame.set_panic(Box::new("second"));
        let payload = frame.take_panic().unwrap();
        assert_eq!(*payload.downcast::<&str>().unwrap(), "first");
        assert!(frame.take_panic().is_none());
    }

    #[test]
    fn real_fault_displaces_cancelled_payload() {
        let frame = Frame::new();
        frame.set_panic(Box::new(Cancelled {
            reason: CancelReason::Token,
        }));
        assert!(frame.is_flagged());
        frame.set_panic(Box::new("real fault"));
        let payload = frame.take_panic().unwrap();
        assert_eq!(*payload.downcast::<&str>().unwrap(), "real fault");

        // But cancellation never displaces a real fault…
        frame.set_panic(Box::new("first fault"));
        frame.set_panic(Box::new(Cancelled {
            reason: CancelReason::Token,
        }));
        let payload = frame.take_panic().unwrap();
        assert_eq!(*payload.downcast::<&str>().unwrap(), "first fault");

        // …and a second Cancelled never displaces the first.
        frame.set_panic(Box::new(Cancelled {
            reason: CancelReason::Deadline,
        }));
        frame.set_panic(Box::new(Cancelled {
            reason: CancelReason::Token,
        }));
        let payload = frame.take_panic().unwrap();
        let c = payload.downcast::<Cancelled>().unwrap();
        assert_eq!(c.reason, CancelReason::Deadline);
    }

    /// The unflagged path must not wait for the frame lock: with the lock
    /// held elsewhere (as a Fibril thief holds it), `take_panic` still
    /// answers at once.
    #[test]
    #[cfg_attr(miri, ignore = "real threads and a 1 s timeout")]
    fn unflagged_take_panic_takes_no_lock() {
        use std::sync::mpsc;
        use std::time::Duration;

        let frame = std::sync::Arc::new(Frame::new());
        let guard = frame.lock.lock();
        let (tx, rx) = mpsc::channel();
        let taker = {
            let frame = frame.clone();
            std::thread::spawn(move || tx.send(frame.take_panic().is_none()).unwrap())
        };
        let answered = rx.recv_timeout(Duration::from_secs(1));
        drop(guard);
        taker.join().unwrap();
        assert_eq!(
            answered,
            Ok(true),
            "unflagged take_panic waited for the lock"
        );
    }

    /// A payload nobody took is dropped with the frame, exactly once.
    #[test]
    fn dropped_frame_drops_an_untaken_payload_once() {
        use crate::sync::AtomicUsize;
        use std::sync::Arc;

        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }

        let drops = Arc::new(AtomicUsize::new(0));
        let frame = Frame::new();
        frame.set_panic(Box::new(Counted(drops.clone())));
        assert_eq!(drops.load(Ordering::Relaxed), 0);
        drop(frame);
        assert_eq!(drops.load(Ordering::Relaxed), 1);
    }

    /// Dropping an unflagged frame must not wait for the frame lock: with
    /// the lock left held, the drop on another thread still finishes.
    #[test]
    #[cfg_attr(miri, ignore = "real threads and a 1 s timeout")]
    fn unflagged_frame_drop_takes_no_lock() {
        use std::sync::mpsc;
        use std::time::Duration;

        let frame = Frame::new();
        // Leave the lock held with no guard to release it.
        core::mem::forget(frame.lock.lock());
        let (tx, rx) = mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(frame);
            tx.send(()).unwrap();
        });
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(1)),
            Ok(()),
            "unflagged frame drop waited for the lock"
        );
        dropper.join().unwrap();
    }
}
