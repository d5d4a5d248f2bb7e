//! Structured cancellation: scopes, tokens, reasons, and deadlines.
//!
//! A cancellation *scope* is one atomic flag (`CancelCell`) plus a link
//! to the enclosing scope. Every frame records the innermost scope
//! governing it (`Frame::scope`), so a cooperative checkpoint is one
//! relaxed load of the innermost flag on the hot path; the parent chain is
//! only walked while that flag still reads live, and a hit on an ancestor
//! is *path-shortened* into the innermost cell so every later checkpoint
//! in the subtree hits on the first load.
//!
//! The flag is a monotonic latch and deliberately carries no ordering
//! obligations: no data is published *through* it. Cancellation's effects
//! (child unwinds, join-counter retirement, panic payloads) all
//! synchronize through the wait-free sync counter's AcqRel algebra and the
//! frame lock's panic slot, exactly as ordinary completion does. DESIGN.md §6f
//! spells the argument out; §7b carries the audit rows.
//!
//! Cancellation is *cooperative*: a checkpoint that observes a cancelled
//! scope unwinds its strand with the typed [`Cancelled`] payload, which
//! the ordinary panic-propagation machinery carries to the region root.
//! Nothing is ever torn down preemptively — a suspended continuation
//! parked at `sync` is resumed ("aborted") by its last joining child's
//! counter zero-crossing, never unwound in place (its children hold
//! pointers into its stack).

use crate::sync::{AtomicU32, Ordering};
use crate::time::Key;
use std::fmt;
use std::sync::{Arc, Weak};

/// Why a scope was cancelled. The first cause wins and sticks; later
/// cancellations of the same scope are idempotent no-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called on the region's token.
    Token = 1,
    /// The region's [`Region::with_deadline`](crate::api::Region::with_deadline)
    /// deadline expired.
    Deadline = 2,
    /// A sibling strand in the region panicked; the region cancels the
    /// rest of its tree so the panic surfaces promptly.
    SiblingPanic = 3,
    /// The runtime is shutting down
    /// ([`Runtime::shutdown`](crate::Runtime::shutdown)).
    Shutdown = 4,
}

/// Flag value meaning "live, not cancelled".
pub(crate) const SCOPE_LIVE: u32 = 0;

impl CancelReason {
    /// Reason from its flag encoding.
    pub(crate) fn from_flag(v: u32) -> Option<CancelReason> {
        match v {
            1 => Some(CancelReason::Token),
            2 => Some(CancelReason::Deadline),
            3 => Some(CancelReason::SiblingPanic),
            4 => Some(CancelReason::Shutdown),
            _ => None,
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            CancelReason::Token => "token",
            CancelReason::Deadline => "deadline",
            CancelReason::SiblingPanic => "sibling-panic",
            CancelReason::Shutdown => "shutdown",
        }
    }
}

impl fmt::Display for CancelReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Typed panic payload a cancelled strand unwinds with.
///
/// Checkpoints raise it via `panic_any`; the runtime's ordinary
/// panic-propagation machinery carries it to the cancelled region's root,
/// where [`Region::sync`](crate::api::Region::sync) / `join*` rethrow it.
/// Catch it with `downcast_ref::<Cancelled>()` to distinguish cooperative
/// cancellation from a real fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled {
    /// The first cause recorded on the governing scope.
    pub reason: CancelReason,
}

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cancelled ({})", self.reason)
    }
}

/// One cancellation flag plus the link to the enclosing scope.
///
/// `parent` is fixed at creation and never mutated; only `flag` is shared
/// state. The runtime root cell (owned by `Shared`) has a null parent and
/// terminates every chain, so unscoped frames see a chain of depth one.
pub(crate) struct CancelCell {
    flag: AtomicU32,
    parent: *const CancelCell,
}

// SAFETY: `flag` is an atomic and `parent` is immutable after
// construction. The raw parent pointer is only dereferenced by
// `cancelled_chain`, whose safety contract requires the whole chain to be
// alive — guaranteed structurally because checkpoints only run inside the
// dynamic extent of every enclosing region (see the type-level docs).
unsafe impl Send for CancelCell {}
// SAFETY: as for `Send`.
unsafe impl Sync for CancelCell {}

impl CancelCell {
    /// A live cell chained under `parent` (null for the runtime root).
    pub(crate) fn new(parent: *const CancelCell) -> CancelCell {
        CancelCell {
            flag: AtomicU32::new(SCOPE_LIVE),
            parent,
        }
    }

    /// Latches `reason` onto the cell. First cause wins; a second call is
    /// an idempotent no-op. Returns whether this call did the latching.
    pub(crate) fn cancel(&self, reason: CancelReason) -> bool {
        // Relaxed: the flag is a monotonic latch publishing nothing but
        // itself; cancellation's effects synchronize through the join
        // counter and the frame lock (module docs).
        self.flag
            .compare_exchange(
                SCOPE_LIVE,
                reason as u32,
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// This cell's own state: one relaxed load, no chain walk.
    // lint: wait-free
    #[inline(always)]
    pub(crate) fn local(&self) -> Option<CancelReason> {
        CancelReason::from_flag(self.flag.load(Ordering::Relaxed))
    }

    /// The enclosing cell this one is chained under (null for the root or
    /// a standalone scope created outside a runtime).
    pub(crate) fn parent(&self) -> *const CancelCell {
        self.parent
    }
}

/// Walks the scope chain from `cell` to the root, returning the innermost
/// recorded reason. A hit on an ancestor is path-shortened into `cell` so
/// the next checkpoint in this subtree hits on its first load.
///
/// Inline for the common case — `cell`'s own flag reads live and `cell`
/// has no parent (an unscoped frame, governed by the runtime root alone),
/// or the flag reads cancelled — and the walk over the ancestors is the
/// out-of-line [`cancelled_ancestor`].
///
/// # Safety
///
/// Every cell on the chain must be alive. This holds whenever `cell` is a
/// frame's governing scope and the caller is executing inside that frame:
/// each ancestor cell is owned by an enclosing region (or by the runtime's
/// `Shared`) whose dynamic extent contains the caller.
// lint: wait-free
#[inline]
pub(crate) unsafe fn cancelled_chain(cell: *const CancelCell) -> Option<CancelReason> {
    if cell.is_null() {
        return None;
    }
    // SAFETY: alive per the function contract.
    let c = unsafe { &*cell };
    if let Some(reason) = c.local() {
        return Some(reason);
    }
    if c.parent.is_null() {
        return None;
    }
    // SAFETY: forwarded; `cell` heads the same live chain.
    unsafe { cancelled_ancestor(cell) }
}

/// The chain walk of [`cancelled_chain`] past a live `cell`: the first
/// cancelled ancestor's reason, path-shortened into `cell`.
///
/// # Safety
///
/// As [`cancelled_chain`], with `cell` non-null.
// lint: wait-free
#[cold]
#[inline(never)]
unsafe fn cancelled_ancestor(cell: *const CancelCell) -> Option<CancelReason> {
    // SAFETY: alive and non-null per the function contract.
    let mut cur = unsafe { &*cell }.parent;
    // lint: bounded(chain depth — one step per enclosing region scope; the
    // `parent` links are fixed at creation, so no thread can lengthen or
    // cycle the chain while it is walked)
    while !cur.is_null() {
        // SAFETY: alive per the function contract.
        let c = unsafe { &*cur };
        if let Some(reason) = c.local() {
            // SAFETY: `cell` is the head of the same live chain.
            unsafe { &*cell }.cancel(reason);
            return Some(reason);
        }
        cur = c.parent;
    }
    None
}

/// Cancels the innermost *region* scope governing a frame: a no-op when
/// `scope` is null or the runtime root itself (unscoped code must not
/// cancel the whole runtime). Used by panic→cancel-siblings and the
/// chaos force-cancel sites.
///
/// # Safety
///
/// As for [`cancelled_chain`]: `scope` must be a live frame's governing
/// scope (or null).
pub(crate) unsafe fn cancel_enclosing_region(
    scope: *const CancelCell,
    shared: &crate::worker::Shared,
    reason: CancelReason,
) {
    let root: *const CancelCell = &shared.cancel_root;
    if scope.is_null() || core::ptr::eq(scope, root) {
        return;
    }
    // SAFETY: live per the function contract.
    if unsafe { (*scope).cancel(reason) } {
        broadcast(shared);
    }
}

/// After a scope latched: strands parked in `block_on` have no checkpoint
/// to trip, so wake them all to re-check their scope chains. (Cells of
/// unrelated scopes wake spuriously, re-poll, and re-park.)
pub(crate) fn broadcast(shared: &crate::worker::Shared) {
    shared.async_waiters.wake_all();
    shared.reactor.kick_if_claimed();
}

/// Raises the typed [`Cancelled`] unwind. Out of line: checkpoints stay
/// one load + one predictable branch on the never-cancelled path.
#[cold]
#[inline(never)]
pub(crate) fn raise(reason: CancelReason) -> ! {
    std::panic::panic_any(Cancelled { reason })
}

/// The Arc'd owner of a cancellable region's cell. Regions hold the Arc;
/// tokens clone it; the deadline map holds a Weak.
pub(crate) struct ScopeHandle {
    pub(crate) cell: CancelCell,
    /// The region's entry in the deadline map, if it has a deadline; the
    /// region removes it when it completes.
    pub(crate) deadline: Option<Key>,
}

/// A clonable, sendable handle that cancels one region.
///
/// Obtained from [`Region::cancel_token`](crate::api::Region::cancel_token).
/// Cancelling is idempotent and purely cooperative: running strands unwind
/// at their next checkpoint with a [`Cancelled`] payload, not-yet-started
/// children are skipped, and a continuation suspended at `sync` is aborted
/// by its last joining child without blocking any worker.
#[derive(Clone)]
pub struct CancelToken {
    pub(crate) scope: Arc<ScopeHandle>,
    /// The owning runtime, used to broadcast to parked async strands on
    /// latch. Weak: a token must not keep a dropped runtime's shared
    /// state alive, and cancelling after shutdown degrades to the plain
    /// flag store.
    pub(crate) shared: Weak<crate::worker::Shared>,
}

impl CancelToken {
    /// Cancels the region ([`CancelReason::Token`]). Returns `true` if
    /// this call latched the cancellation, `false` if the region was
    /// already cancelled (double-cancel is an idempotent no-op).
    pub fn cancel(&self) -> bool {
        let latched = self.scope.cell.cancel(CancelReason::Token);
        if latched {
            if let Some(shared) = self.shared.upgrade() {
                broadcast(&shared);
            }
        }
        latched
    }

    /// Whether the region's own scope has been cancelled (any cause).
    pub fn is_cancelled(&self) -> bool {
        self.scope.cell.local().is_some()
    }
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_reason_wins_and_sticks() {
        let cell = CancelCell::new(std::ptr::null());
        assert_eq!(cell.local(), None);
        assert!(cell.cancel(CancelReason::Deadline));
        assert!(
            !cell.cancel(CancelReason::Token),
            "double-cancel is a no-op"
        );
        assert_eq!(cell.local(), Some(CancelReason::Deadline));
    }

    #[test]
    fn chain_walk_path_shortens() {
        let root = CancelCell::new(std::ptr::null());
        let mid = CancelCell::new(&root);
        let leaf = CancelCell::new(&mid);
        // SAFETY: all three cells are alive on this stack frame.
        assert_eq!(unsafe { cancelled_chain(&leaf) }, None);
        root.cancel(CancelReason::Shutdown);
        // SAFETY: as above.
        let hit = unsafe { cancelled_chain(&leaf) };
        assert_eq!(hit, Some(CancelReason::Shutdown));
        // The hit was copied into the leaf: one load now suffices.
        assert_eq!(leaf.local(), Some(CancelReason::Shutdown));
    }

    #[test]
    fn reason_flag_roundtrip() {
        for r in [
            CancelReason::Token,
            CancelReason::Deadline,
            CancelReason::SiblingPanic,
            CancelReason::Shutdown,
        ] {
            assert_eq!(CancelReason::from_flag(r as u32), Some(r));
            assert!(!r.name().is_empty());
        }
        assert_eq!(CancelReason::from_flag(SCOPE_LIVE), None);
        assert_eq!(CancelReason::from_flag(99), None);
    }
}
