//! The Fibril-style lock-based protocol (Listing 2, Fig. 6) — the baseline
//! the paper compares the wait-free protocol against.
//!
//! Listing 2's per-frame lock is [`Frame::lock`], and the strand count and
//! `suspended` flag it guards live in the frame's `alpha` and `susp`
//! words (the fields Nowa uses for its fork count and suspension state).
//! Those two words are read and written only while the frame lock is
//! held, so their `Relaxed` accesses are ordered by the lock; they are
//! atomics only because the frame layout is shared with Nowa. The
//! protocol briefly holds the deque lock *together with* the frame lock
//! (Listing 2 line 10) to fuse each pop/steal with its count update —
//! which is why it owns its deque instead of running over a
//! [`nowa_deque::DequeAlgo`]. The locks are the baseline's point: nothing
//! here claims wait-freedom, and the fused deque stays unsplit — it keeps
//! [`Protocol`]'s no-private-segment defaults (the baseline is measured,
//! not optimised).

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

use nowa_deque::{SplitConfig, Steal};

use crate::flavor::{Protocol, Rec};
use crate::record::{AfterChild, Frame, SUSP_IDLE, SUSP_SUSPENDED};
use crate::sync::Ordering;

/// The lock-based protocol; see the module docs.
pub struct Fibril;

/// Listing 2's `f->count++` for a continuation just taken (stolen, or
/// taken back by its owner). The caller holds the frame lock.
#[inline]
fn count_fork(frame: &Frame) {
    let count = frame.alpha.load(Ordering::Relaxed);
    frame.alpha.store(count + 1, Ordering::Relaxed);
}

/// The deque used by [`Fibril`]: a single mutex protects the queue; owner
/// and thieves share one handle type.
pub type FusedDeque = Arc<Mutex<VecDeque<Rec>>>;

impl Protocol for Fibril {
    type Owner = FusedDeque;
    type Stealer = FusedDeque;

    fn new_deque(capacity: usize, _split: SplitConfig) -> (Self::Owner, Self::Stealer) {
        let fused = Arc::new(Mutex::new(VecDeque::with_capacity(capacity)));
        (fused.clone(), fused)
    }

    #[inline]
    fn push(dq: &Self::Owner, rec: Rec) -> Option<u32> {
        dq.lock().push_back(rec);
        Some(0)
    }

    /// The deque lock is held until the frame lock is acquired, exactly as
    /// in Listing 2.
    #[inline]
    fn pop_or_join(dq: &Self::Owner, frame: &Frame) -> AfterChild {
        let mut q = dq.lock();
        if let Some(rec) = q.pop_back() {
            // SAFETY: popping under the deque lock grants exclusive
            // ownership of the record.
            debug_assert_eq!(unsafe { (*rec.as_ptr()).frame }, frame as *const Frame);
            return AfterChild::Continue;
        }
        // Listing 2 discipline: acquire the frame lock before releasing
        // the deque lock, fusing pop-failure and count update.
        let _frame_lock = frame.lock.lock();
        drop(q);
        let count = frame.alpha.load(Ordering::Relaxed);
        debug_assert!(count > 0, "locked join count underflow");
        frame.alpha.store(count - 1, Ordering::Relaxed);
        if count == 1 && frame.susp.load(Ordering::Relaxed) == SUSP_SUSPENDED {
            frame.susp.store(SUSP_IDLE, Ordering::Relaxed);
            AfterChild::ResumeSync
        } else {
            AfterChild::OutOfWork
        }
    }

    #[inline]
    fn take_own(dq: &Self::Owner) -> Option<Rec> {
        let mut q = dq.lock();
        let rec = q.pop_back()?;
        // SAFETY: popped under the deque lock — the record is ours, and
        // its frame outlives it.
        let frame = unsafe { &*(*rec.as_ptr()).frame };
        let _frame_lock = frame.lock.lock();
        drop(q);
        count_fork(frame);
        Some(rec)
    }

    #[inline]
    fn steal_from(st: &Self::Stealer) -> Steal<Rec> {
        let mut q = st.lock();
        let Some(rec) = q.pop_front() else {
            return Steal::Empty;
        };
        // SAFETY: stolen under the victim's deque lock — the record is
        // ours, and its frame outlives it.
        let frame = unsafe { &*(*rec.as_ptr()).frame };
        // Listing 2 lines 10–15: frame lock acquired while still holding
        // the victim's deque lock.
        let _frame_lock = frame.lock.lock();
        drop(q);
        count_fork(frame);
        Steal::Success(rec)
    }

    #[inline]
    fn sync_precheck(frame: &Frame) -> bool {
        let _frame_lock = frame.lock.lock();
        frame.alpha.load(Ordering::Relaxed) == 0
    }

    #[inline]
    fn sync_restore(frame: &Frame) -> bool {
        let _frame_lock = frame.lock.lock();
        if frame.alpha.load(Ordering::Relaxed) == 0 {
            true
        } else {
            frame.susp.store(SUSP_SUSPENDED, Ordering::Relaxed);
            false
        }
    }

    #[inline]
    fn rearm(frame: &Frame) {
        let _frame_lock = frame.lock.lock();
        debug_assert_eq!(frame.alpha.load(Ordering::Relaxed), 0);
        frame.susp.store(SUSP_IDLE, Ordering::Relaxed);
    }

    fn occupancy(dq: &Self::Owner) -> usize {
        dq.lock().len()
    }

    fn stealer_len(st: &Self::Stealer) -> usize {
        st.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flavor::ForcedPromotion;
    use crate::record::SpawnRecord;
    use nowa_deque::Ptr;

    /// Under the *enabled* split config: the fused deque ignores the layer.
    #[test]
    fn fibril_locked_walkthrough() {
        let frame = Frame::new();
        let (dq, st) = Fibril::new_deque(8, SplitConfig::default());
        let rec = SpawnRecord::new(&frame);

        assert_eq!(Fibril::push(&dq, Ptr::from_ref(&rec)), Some(0));
        assert_eq!(Fibril::stealer_len(&st), 1, "public at once");
        assert_eq!(Fibril::force_promote(&dq, ForcedPromotion::Batch), 0);
        let _stolen = Fibril::steal_from(&st).success().unwrap();
        assert_eq!(frame.alpha.load(Ordering::Relaxed), 1);

        assert!(!Fibril::sync_precheck(&frame));
        assert!(!Fibril::sync_restore(&frame));
        assert_eq!(frame.susp.load(Ordering::Relaxed), SUSP_SUSPENDED);

        assert_eq!(Fibril::pop_or_join(&dq, &frame), AfterChild::ResumeSync);
        assert!(!Fibril::last_pop_was_private(&dq));
        assert_eq!(frame.susp.load(Ordering::Relaxed), SUSP_IDLE);
        assert_eq!(frame.alpha.load(Ordering::Relaxed), 0);
        Fibril::rearm(&frame);
    }

    #[test]
    fn fibril_take_own_counts() {
        let frame = Frame::new();
        let (dq, _st) = Fibril::new_deque(8, SplitConfig::disabled());
        let rec = SpawnRecord::new(&frame);
        assert!(Fibril::push(&dq, Ptr::from_ref(&rec)).is_some());
        let _ = Fibril::take_own(&dq).unwrap();
        assert_eq!(frame.alpha.load(Ordering::Relaxed), 1);
    }
}
