//! Spawn records and join state — the objects that flow through the deques.

use crate::sync::{AtomicI64, AtomicU32};
use nowa_context::{RawContext, Stack};
// The Fibril-style locked protocol is a baseline, not a verification
// target: its mutex stays `parking_lot` even under loom (the loom models
// only exercise the wait-free protocol's atomics).
use parking_lot::Mutex;

use crate::frame::FrameCore;

/// The arbitrarily large initial value of the sync-condition counter
/// (the paper's `I_max`, §IV-B). Phase 1 keeps the counter at
/// `N_r' = I_max − ω`; the explicit sync restores `N_r = N_r' − (I_max − α)`.
pub const I_MAX: i64 = i64::MAX;

/// [`JoinState::susp`]: no suspension is parked at the explicit sync.
pub const SUSP_IDLE: u32 = 0;
/// [`JoinState::susp`]: the main path has suspended at the explicit sync
/// and exactly one party (last joiner or the restoring sync itself) may
/// claim the resume by swapping the state back to [`SUSP_IDLE`].
pub const SUSP_SUSPENDED: u32 = 1;

/// Join state for the Fibril-style lock-based protocol (Listing 2).
#[derive(Debug, Default)]
pub struct LockedJoin {
    /// Number of active parallel strands (`N_r = α − ω`).
    pub count: i64,
    /// True once the main path suspended at the explicit sync point.
    pub suspended: bool,
}

/// Per-frame join state, holding the fields for both protocols.
///
/// A frame lives for the duration of one spawning-function instance; keeping
/// both protocols' fields (24 bytes of atomics + a word-sized mutex) costs
/// nothing measurable and lets every runtime flavor share one frame layout,
/// so frames, records and the public API stay non-generic — only the
/// scheduler bodies are monomorphised over the protocol.
///
/// # Layout
///
/// Packed, in declaration order (DESIGN.md §6g): the wait-free protocol's
/// atomics (`counter`, `alpha`, `susp`) first, the lock-based baseline's
/// mutex right behind them. A frame is built on the stack of every
/// `join2`, so padding here would be lines the spawn fast path writes for
/// nothing (asserted below and in `layout.rs`). Under loom `repr(C)`
/// drops away: loom's atomics have model-sized layouts.
#[cfg_attr(not(loom), repr(C))]
pub struct JoinState {
    /// Nowa's sync-condition counter. `N_r'` in phase 1; `N_r` after the
    /// restore at the explicit sync point.
    pub counter: AtomicI64,
    /// Nowa's forked-task count `α`. Only the main-path control flow
    /// increments it (Invariant II), so `Relaxed` suffices; atomicity is
    /// only needed because the main path migrates between OS threads.
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
    /// `fetch_sub` observed the restored count.
    pub susp: AtomicU32,
    /// The lock-based protocol's guarded count.
    pub locked: Mutex<LockedJoin>,
}

#[cfg(not(loom))]
const _: () = {
    // The wait-free atomics lead, the baseline's mutex follows with no
    // gap. A field that grows the state breaks these asserts, not the
    // benchmark numbers.
    assert!(core::mem::offset_of!(JoinState, counter) == 0);
    assert!(core::mem::offset_of!(JoinState, alpha) == 8);
    assert!(core::mem::offset_of!(JoinState, susp) == 12);
    assert!(core::mem::offset_of!(JoinState, locked) == 16);
    assert!(core::mem::size_of::<JoinState>() <= 64);
};

impl JoinState {
    /// Fresh join state: counter armed at `I_max`, nothing forked.
    pub fn new() -> JoinState {
        JoinState {
            counter: AtomicI64::new(I_MAX),
            alpha: AtomicU32::new(0),
            susp: AtomicU32::new(SUSP_IDLE),
            locked: Mutex::new(LockedJoin::default()),
        }
    }
}

impl Default for JoinState {
    fn default() -> Self {
        JoinState::new()
    }
}

/// The per-spawning-function frame: protocol state + suspension state.
///
/// Created by the spawning function (e.g. inside [`join2`](crate::api::join2))
/// in its own stack frame and **never moved** while spawns of the region are
/// outstanding — records hold raw pointers to it.
///
/// `repr(C)` keeps the two groups in declaration order: core, then join
/// state, together no larger than two 64-byte lines (asserted in
/// `layout.rs`).
#[cfg_attr(not(loom), repr(C))]
pub struct Frame {
    /// Protocol-independent suspension/panic state.
    pub core: FrameCore,
    /// Join-counter state.
    pub join: JoinState,
}

impl Frame {
    /// A fresh frame, ready for its first spawn region.
    pub fn new() -> Frame {
        Frame {
            core: FrameCore::new(),
            join: JoinState::new(),
        }
    }
}

impl Default for Frame {
    fn default() -> Self {
        Frame::new()
    }
}

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
    use crate::sync::Ordering;

    #[test]
    fn join_state_starts_at_imax() {
        let j = JoinState::new();
        assert_eq!(j.counter.load(Ordering::Relaxed), I_MAX);
        assert_eq!(j.alpha.load(Ordering::Relaxed), 0);
        assert_eq!(j.susp.load(Ordering::Relaxed), SUSP_IDLE);
        assert_eq!(j.locked.lock().count, 0);
        assert!(!j.locked.lock().suspended);
    }

    #[test]
    fn record_starts_uncaptured() {
        let frame = Frame::new();
        let rec = SpawnRecord::new(&frame);
        assert!(rec.ctx.is_null());
        assert!(rec.stack.is_none());
        assert_eq!(rec.frame, &frame as *const Frame);
    }
}
