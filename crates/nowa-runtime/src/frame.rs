//! Spawning-frame state: the paper's per-frame "stack object" (§IV-B).
//!
//! Every *spawning function* instance owns one [`Frame`](crate::record::Frame). It carries the
//! protocol-specific join state (`P::JoinState` — the wait-free counter pair
//! for Nowa, a mutex-guarded count for the Fibril-style baseline) plus the
//! protocol-independent suspension state shared by all flavors:
//!
//! * the captured *sync continuation*, resumed by the last joining child,
//! * the handle of the stack the suspended frame lives on (the cactus-stack
//!   node, cf. Listing 2's `f->stack = victim->stack`),
//! * a slot for a panic payload propagated out of a child strand.

use core::cell::{Cell, UnsafeCell};
use core::mem::ManuallyDrop;
use std::any::Any;

use nowa_context::{RawContext, Stack};
use parking_lot::Mutex;

use crate::cancel::{CancelCell, Cancelled};
use crate::sync::{AtomicU32, Ordering};

/// Panic payload captured from a child strand.
pub type PanicPayload = Box<dyn Any + Send + 'static>;

/// Protocol-independent frame state.
///
/// # Synchronization
///
/// The `UnsafeCell` fields are written by the main-path control flow while
/// no joiner can observe the sync condition (phase 1 of the protocol, or
/// under the frame lock in the locked protocol) and read by the single
/// control flow that wins the sync — ordering is established by the join
/// counter's `AcqRel` RMWs (or the frame mutex).
///
/// # Layout
///
/// Packed, in declaration order (DESIGN.md §6g): the fields every spawn
/// checkpoint reads (`flagged`, `scope`) come first, the suspension and
/// panic state after them, with no padding between. Every `join2` builds
/// a frame on its stack, so each cache line the frame spans is a line the
/// spawn fast path writes. Asserted below and in `layout.rs`.
///
/// # Drop
///
/// Every `join2` also drops a frame, so the drop is one inline load of
/// `flagged` (see the `Drop` impl). The two fields that own resources are
/// `ManuallyDrop` for that reason: a frame is dropped only after its
/// last sync resumed, which emptied `suspended_stack`, and `panic` holds
/// a payload only once `flagged` is set.
#[cfg_attr(not(loom), repr(C))]
pub struct FrameCore {
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
    /// First panic observed in any child strand of this frame. Multiple
    /// children may panic concurrently, hence the mutex (cold path). The
    /// mutex is locked only once `flagged` is set (`set_panic` stores the
    /// flag first; `take_panic` and the drop skip an unflagged frame).
    pub panic: ManuallyDrop<Mutex<Option<PanicPayload>>>,
}

#[cfg(not(loom))]
const _: () = {
    // Checkpoint-polled fields first, suspension state right behind them.
    assert!(core::mem::offset_of!(FrameCore, flagged) == 0);
    assert!(core::mem::offset_of!(FrameCore, scope) == 8);
    assert!(core::mem::offset_of!(FrameCore, sync_ctx) == 16);
};

impl FrameCore {
    /// A fresh, non-suspended frame core.
    pub fn new() -> FrameCore {
        FrameCore {
            flagged: AtomicU32::new(0),
            scope: Cell::new(core::ptr::null()),
            sync_ctx: UnsafeCell::new(RawContext::null()),
            suspended_stack: UnsafeCell::new(ManuallyDrop::new(None)),
            panic: ManuallyDrop::new(Mutex::new(None)),
        }
    }

    /// Records a child panic. First one wins, with one exception: a *real*
    /// fault replaces a stored [`Cancelled`] payload, so when cancellation
    /// races an organic panic the genuine fault is the one that surfaces
    /// (the unwind cancellation triggered must not mask what it found).
    pub fn set_panic(&self, payload: PanicPayload) {
        // Relaxed latch: readers only use it to skip future spawns; the
        // payload itself is published by the mutex below.
        self.flagged.store(1, Ordering::Relaxed);
        let mut slot = self.panic.lock();
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
        self.panic.lock().take()
    }

    /// The tail of the drop, for a flagged frame: drops the panic slot
    /// with any payload nobody took.
    #[cold]
    #[inline(never)]
    fn drop_flagged(&mut self) {
        // SAFETY: called once, from `drop`; nothing reads `panic` after.
        unsafe { ManuallyDrop::drop(&mut self.panic) }
    }
}

impl Drop for FrameCore {
    /// One relaxed load for an unflagged frame: its stack slot is empty
    /// and its panic mutex was never locked, so there is nothing to free.
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

impl Default for FrameCore {
    fn default() -> Self {
        FrameCore::new()
    }
}

// SAFETY: the frame is shared between workers by design; the runtime
// upholds the access discipline documented above (each `UnsafeCell` is
// written only by the party the join protocol designates).
unsafe impl Send for FrameCore {}
// SAFETY: as for `Send`.
unsafe impl Sync for FrameCore {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_slot_first_wins() {
        let core = FrameCore::new();
        core.set_panic(Box::new("first"));
        core.set_panic(Box::new("second"));
        let payload = core.take_panic().unwrap();
        assert_eq!(*payload.downcast::<&str>().unwrap(), "first");
        assert!(core.take_panic().is_none());
    }

    #[test]
    fn real_fault_displaces_cancelled_payload() {
        use crate::cancel::{CancelReason, Cancelled};
        let core = FrameCore::new();
        core.set_panic(Box::new(Cancelled {
            reason: CancelReason::Token,
        }));
        assert!(core.is_flagged());
        core.set_panic(Box::new("real fault"));
        let payload = core.take_panic().unwrap();
        assert_eq!(*payload.downcast::<&str>().unwrap(), "real fault");

        // But cancellation never displaces a real fault…
        core.set_panic(Box::new("first fault"));
        core.set_panic(Box::new(Cancelled {
            reason: CancelReason::Token,
        }));
        let payload = core.take_panic().unwrap();
        assert_eq!(*payload.downcast::<&str>().unwrap(), "first fault");

        // …and a second Cancelled never displaces the first.
        core.set_panic(Box::new(Cancelled {
            reason: CancelReason::Deadline,
        }));
        core.set_panic(Box::new(Cancelled {
            reason: CancelReason::Token,
        }));
        let payload = core.take_panic().unwrap();
        let c = payload.downcast::<Cancelled>().unwrap();
        assert_eq!(c.reason, CancelReason::Deadline);
    }

    /// The unflagged path must not wait for the panic mutex: with the lock
    /// held elsewhere, `take_panic` still answers at once.
    #[test]
    fn unflagged_take_panic_takes_no_lock() {
        use std::sync::mpsc;
        use std::time::Duration;

        let core = std::sync::Arc::new(FrameCore::new());
        let guard = core.panic.lock();
        let (tx, rx) = mpsc::channel();
        let taker = {
            let core = core.clone();
            std::thread::spawn(move || tx.send(core.take_panic().is_none()).unwrap())
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
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }

        let drops = Arc::new(AtomicUsize::new(0));
        let frame = crate::record::Frame::new();
        frame.core.set_panic(Box::new(Counted(drops.clone())));
        assert_eq!(drops.load(Ordering::Relaxed), 0);
        drop(frame);
        assert_eq!(drops.load(Ordering::Relaxed), 1);
    }

    /// Dropping an unflagged frame must not wait for the panic mutex: with
    /// the lock left held, the drop on another thread still finishes.
    #[test]
    fn unflagged_frame_drop_takes_no_lock() {
        use std::sync::mpsc;
        use std::time::Duration;

        let frame = crate::record::Frame::new();
        // Leave the mutex locked with no guard to release it.
        core::mem::forget(frame.core.panic.lock());
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

    #[test]
    fn fresh_core_is_empty() {
        let core = FrameCore::new();
        // SAFETY: `core` is unshared here, so reading its cells races with
        // nothing.
        assert!(unsafe { &*core.sync_ctx.get() }.is_null());
        // SAFETY: as above.
        assert!(unsafe { &*core.suspended_stack.get() }.is_none());
    }
}
