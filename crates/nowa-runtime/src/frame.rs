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
    pub suspended_stack: UnsafeCell<Option<Stack>>,
    /// First panic observed in any child strand of this frame. Multiple
    /// children may panic concurrently, hence the mutex (cold path).
    pub panic: Mutex<Option<PanicPayload>>,
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
            suspended_stack: UnsafeCell::new(None),
            panic: Mutex::new(None),
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
        self.panic.lock().take()
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
