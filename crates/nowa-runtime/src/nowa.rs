//! The wait-free Nowa protocol (§IV-B), written once over any deque.
//!
//! The counter is armed at `I_max`, joiners `fetch_sub(1)`, forks bump the
//! main-flow-private `α`, and the explicit sync restores
//! `N_r = N_r' − (I_max − α)` with one `fetch_sub` (Eq. 5). Every function
//! here is a bounded number of atomic operations on the frame plus one
//! deque call, so the synchronisation cost *per spawn* (cf. Rito & Paulino)
//! is readable off these bodies, and `nowa-lint` checks their
//! `// lint: wait-free` claims with no allowlist entry for this file (what
//! locking THE does by design is audited at the deque, not here).

use core::marker::PhantomData;

use nowa_deque::{
    DequeAlgo, SplitConfig, SplitDeque, SplitStealer, SplitWorker, Steal, StealerOps, WorkerOps,
};

use crate::flavor::{ForcedPromotion, Protocol, Rec};
use crate::record::{AfterChild, Frame, I_MAX, SUSP_IDLE, SUSP_SUSPENDED};
use crate::sync::Ordering;

/// The wait-free protocol over deque algorithm `D`. Every deque is wrapped
/// in the split private/public layer (DESIGN.md §6g) — with the split
/// disabled in [`SplitConfig`] the wrapper is a pass-through.
pub struct Nowa<D: DequeAlgo>(PhantomData<D>);

/// The `α` increment `run()` performs before calling `resume()` (§III-B);
/// it needs no synchronisation because the taker *becomes* the main path
/// (Invariant II).
// lint: wait-free
#[inline]
fn fork_bookkeeping(rec: Rec) {
    // SAFETY: the caller owns `rec` (a successful steal or pop), and the
    // frame outlives every record pointing at it.
    let frame = unsafe { &*(*rec.as_ptr()).frame };
    frame.alpha.fetch_add(1, Ordering::Relaxed);
}

/// Claims a parked suspension at a counter zero-crossing: swaps the
/// suspension state machine back to [`SUSP_IDLE`] and reports whether this
/// call retired it. The zero crossing is a unique event in the counter's
/// modification order, so exactly one party retires each suspension — the
/// "retired exactly once" half of the abortable-suspension protocol
/// (DESIGN.md §6f); the loom cancel model asserts it.
// lint: wait-free
#[inline]
pub fn retire_suspension(frame: &Frame) -> bool {
    // AcqRel: acquire the suspender's pre-suspension writes (sync_ctx,
    // suspended_stack) before resuming them; release our own join so the
    // resumed continuation sees it.
    frame.susp.swap(SUSP_IDLE, Ordering::AcqRel) == SUSP_SUSPENDED
}

impl<D: DequeAlgo> Protocol for Nowa<D> {
    type Owner = SplitWorker<D::Worker<Rec>, Rec>;
    type Stealer = SplitStealer<D::Stealer<Rec>>;

    // lint: wait-free
    fn new_deque(capacity: usize, split: SplitConfig) -> (Self::Owner, Self::Stealer) {
        let (w, s) = D::create(capacity);
        SplitDeque::wrap(w, s, split, capacity)
    }

    /// With the split layer enabled the common case is a private,
    /// synchronization-free ring write; a push that finds the public deque
    /// empty publishes (`Some(n > 0)`).
    // lint: wait-free
    #[inline(always)]
    fn push(dq: &Self::Owner, rec: Rec) -> Option<u32> {
        dq.push_spawn(rec).ok().map(|pushed| pushed.promoted)
    }

    /// This is where the benign race lives: the pop and the counter
    /// decrement are *not* atomic together, which is safe because the
    /// counter still holds `N_r' = I_max − ω` until the explicit sync
    /// restores it (§IV-B).
    // lint: wait-free
    #[inline(always)]
    fn pop_or_join(dq: &Self::Owner, frame: &Frame) -> AfterChild {
        match dq.pop() {
            Some(rec) => {
                debug_assert_eq!(
                    // SAFETY: a popped record is exclusively ours; it
                    // lives in the spawn wrapper's frame until resumed.
                    unsafe { (*rec.as_ptr()).frame },
                    frame as *const Frame,
                    "LIFO invariant: popped record belongs to our frame"
                );
                AfterChild::Continue
            }
            None => {
                // Wait-free child join: one atomic RMW, no lock.
                let post = frame.counter.fetch_sub(1, Ordering::AcqRel) - 1;
                if post == 0 {
                    // We crossed zero, so the main path already restored
                    // the counter — and published its suspension before
                    // that restore. Claim it.
                    let retired = retire_suspension(frame);
                    debug_assert!(retired, "zero-crossing without a parked suspension");
                    AfterChild::ResumeSync
                } else {
                    AfterChild::OutOfWork
                }
            }
        }
    }

    // lint: wait-free
    #[inline]
    fn take_own(dq: &Self::Owner) -> Option<Rec> {
        let rec = dq.pop()?;
        fork_bookkeeping(rec);
        Some(rec)
    }

    // lint: wait-free
    #[inline]
    fn steal_from(st: &Self::Stealer) -> Steal<Rec> {
        let outcome = st.steal();
        if let Steal::Success(rec) = outcome {
            fork_bookkeeping(rec);
        }
        outcome
    }

    // lint: wait-free
    #[inline]
    fn sync_precheck(frame: &Frame) -> bool {
        let alpha = frame.alpha.load(Ordering::Relaxed) as i64;
        // All α forked strands joined ⇔ counter == I_max − α. The Acquire
        // pairs with the joiners' AcqRel decrements so child results are
        // visible.
        frame.counter.load(Ordering::Acquire) == I_MAX - alpha
    }

    /// Eq. 5: `N_r = N_r' − (I_max − α)`, one `fetch_sub`.
    // lint: wait-free
    #[inline]
    fn sync_restore(frame: &Frame) -> bool {
        // Publish the suspension *before* restoring the counter: the
        // joiner whose decrement crosses zero must observe it (its AcqRel
        // RMW on the counter synchronizes with ours below, so this Release
        // store happens-before its `retire_suspension`).
        frame.susp.store(SUSP_SUSPENDED, Ordering::Release);
        let alpha = frame.alpha.load(Ordering::Relaxed) as i64;
        let delta = I_MAX - alpha;
        let post = frame.counter.fetch_sub(delta, Ordering::AcqRel) - delta;
        debug_assert!(post >= 0, "sync counter restored below zero");
        if post == 0 {
            // The restore itself crossed zero: no joiner will, so we
            // retire our own suspension and resume immediately.
            let retired = retire_suspension(frame);
            debug_assert!(retired, "restore zero-crossing lost its own suspension");
        }
        post == 0
    }

    // lint: wait-free
    #[inline]
    fn rearm(frame: &Frame) {
        debug_assert_eq!(
            frame.susp.load(Ordering::Relaxed),
            SUSP_IDLE,
            "rearm with a suspension still parked"
        );
        frame.counter.store(I_MAX, Ordering::Relaxed);
        frame.alpha.store(0, Ordering::Relaxed);
    }

    // lint: wait-free
    fn occupancy(dq: &Self::Owner) -> usize {
        dq.len()
    }

    // lint: wait-free
    #[inline]
    fn has_private_segment(dq: &Self::Owner) -> bool {
        dq.is_split()
    }

    // lint: wait-free
    fn stealer_len(st: &Self::Stealer) -> usize {
        st.len()
    }

    // lint: wait-free
    #[inline(always)]
    fn last_pop_was_private(dq: &Self::Owner) -> bool {
        dq.last_pop_was_private()
    }

    // lint: wait-free
    fn force_promote(dq: &Self::Owner, leg: ForcedPromotion) -> u32 {
        match leg {
            ForcedPromotion::Batch => dq.force_promote() as u32,
            ForcedPromotion::Failure => {
                dq.fail_next_promotion();
                0
            }
        }
    }
}

/// Single-threaded protocol walk-throughs against the trait API,
/// instantiated over every evaluated deque algorithm.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SpawnRecord;
    use nowa_deque::Ptr;

    /// Spawn twice, steal one, join it, sync. Exercises the counter
    /// algebra of §IV-B.
    fn nowa_counter_algebra<P: Protocol>() {
        let frame = Frame::new();
        let (dq, st) = P::new_deque(8, SplitConfig::disabled());
        let rec1 = SpawnRecord::new(&frame);
        let rec2 = SpawnRecord::new(&frame);

        // spawn #1: push, child runs, not stolen: pop succeeds.
        assert!(P::push(&dq, Ptr::from_ref(&rec1)).is_some());
        assert_eq!(P::pop_or_join(&dq, &frame), AfterChild::Continue);

        // spawn #2: push, continuation stolen while child runs.
        assert!(P::push(&dq, Ptr::from_ref(&rec2)).is_some());
        let stolen = P::steal_from(&st).success().unwrap();
        assert_eq!(
            stolen.as_ptr() as *const SpawnRecord,
            &rec2 as *const SpawnRecord
        );
        assert_eq!(frame.alpha.load(Ordering::Relaxed), 1);

        // child of spawn #2 returns, finds the deque empty, joins; the
        // parent has not reached the sync, so the counter stays huge and
        // the child is simply out of work (benign race!).
        assert_eq!(P::pop_or_join(&dq, &frame), AfterChild::OutOfWork);
        assert_eq!(frame.counter.load(Ordering::Relaxed), I_MAX - 1);

        // main path reaches the explicit sync: everything already joined.
        assert!(P::sync_precheck(&frame));
        P::rearm(&frame);
        assert_eq!(frame.counter.load(Ordering::Relaxed), I_MAX);
        assert_eq!(frame.alpha.load(Ordering::Relaxed), 0);
    }

    /// The suspension ordering: sync before the join → restore leaves the
    /// counter positive; the late joiner then reports `ResumeSync`.
    fn nowa_late_joiner_resumes<P: Protocol>() {
        let frame = Frame::new();
        let (dq, st) = P::new_deque(8, SplitConfig::disabled());
        let rec = SpawnRecord::new(&frame);

        assert!(P::push(&dq, Ptr::from_ref(&rec)).is_some());
        let _stolen = P::steal_from(&st).success().unwrap();

        // Main path reaches sync while the child still runs.
        assert!(!P::sync_precheck(&frame));
        assert!(!P::sync_restore(&frame), "one child outstanding");
        assert_eq!(frame.counter.load(Ordering::Relaxed), 1);
        assert_eq!(
            frame.susp.load(Ordering::Relaxed),
            SUSP_SUSPENDED,
            "restore published the parked suspension"
        );

        // Child joins: it is the last one and must resume the sync ctx,
        // retiring the suspension exactly once on the way.
        assert_eq!(P::pop_or_join(&dq, &frame), AfterChild::ResumeSync);
        assert_eq!(frame.susp.load(Ordering::Relaxed), SUSP_IDLE);
        assert!(
            !retire_suspension(&frame),
            "a second retire of the same suspension must fail"
        );
    }

    /// A restore that itself crosses zero retires its own suspension.
    fn nowa_restore_self_resume_retires_suspension<P: Protocol>() {
        let frame = Frame::new();
        let (dq, st) = P::new_deque(8, SplitConfig::disabled());
        let rec = SpawnRecord::new(&frame);

        assert!(P::push(&dq, Ptr::from_ref(&rec)).is_some());
        let _stolen = P::steal_from(&st).success().unwrap();
        // Child joins *before* the main path syncs.
        assert_eq!(P::pop_or_join(&dq, &frame), AfterChild::OutOfWork);
        // Restore crosses zero itself: immediate resume, suspension retired.
        assert!(P::sync_restore(&frame));
        assert_eq!(frame.susp.load(Ordering::Relaxed), SUSP_IDLE);
    }

    fn take_own_does_fork_bookkeeping<P: Protocol>() {
        let frame = Frame::new();
        let (dq, _st) = P::new_deque(8, SplitConfig::disabled());
        let rec = SpawnRecord::new(&frame);
        assert!(P::push(&dq, Ptr::from_ref(&rec)).is_some());
        let taken = P::take_own(&dq).unwrap();
        assert_eq!(
            taken.as_ptr() as *const SpawnRecord,
            &rec as *const SpawnRecord
        );
        assert_eq!(frame.alpha.load(Ordering::Relaxed), 1);
        assert!(P::take_own(&dq).is_none());
    }

    /// With the split enabled, one push onto an empty deque is stealable
    /// at once — no failed sweep has to ask for it — and the thief gets it
    /// with fork bookkeeping done.
    fn split_first_push_is_stealable_at_once<P: Protocol>() {
        let frame = Frame::new();
        let (dq, st) = P::new_deque(8, SplitConfig::default());
        let rec = SpawnRecord::new(&frame);

        assert_eq!(P::push(&dq, Ptr::from_ref(&rec)), Some(1));
        assert_eq!(P::stealer_len(&st), 1, "what park validation reads");

        let stolen = P::steal_from(&st).success().unwrap();
        assert_eq!(
            stolen.as_ptr() as *const SpawnRecord,
            &rec as *const SpawnRecord
        );
        assert_eq!(frame.alpha.load(Ordering::Relaxed), 1);
        assert_eq!(P::pop_or_join(&dq, &frame), AfterChild::OutOfWork);
    }

    /// A push onto a non-empty public deque stays private and is popped
    /// back privately; once the public record is stolen, the very next
    /// push republishes the oldest private record.
    fn split_republishes_after_public_steal<P: Protocol>() {
        let frame = Frame::new();
        let (dq, st) = P::new_deque(8, SplitConfig::default());
        let recs: [SpawnRecord; 3] = core::array::from_fn(|_| SpawnRecord::new(&frame));
        let addr = |r: Rec| r.as_ptr() as *const SpawnRecord;

        assert_eq!(P::push(&dq, Ptr::from_ref(&recs[0])), Some(1));
        assert_eq!(P::push(&dq, Ptr::from_ref(&recs[1])), Some(0));
        assert_eq!(P::occupancy(&dq), 2, "private item counts in occupancy");
        assert_eq!(P::stealer_len(&st), 1, "…but thieves cannot see it");
        assert_eq!(P::pop_or_join(&dq, &frame), AfterChild::Continue);
        assert!(P::last_pop_was_private(&dq));

        assert_eq!(P::push(&dq, Ptr::from_ref(&recs[1])), Some(0));
        assert_eq!(
            addr(P::steal_from(&st).success().unwrap()),
            &recs[0] as *const _
        );
        assert!(P::steal_from(&st).is_empty(), "rec 1 is private");
        // Public deque empty again: this push publishes all but itself.
        assert_eq!(P::push(&dq, Ptr::from_ref(&recs[2])), Some(1));
        assert_eq!(P::stealer_len(&st), 1);
        assert_eq!(
            addr(P::steal_from(&st).success().unwrap()),
            &recs[1] as *const _,
            "thief receives the globally oldest spawn"
        );
        assert_eq!(frame.alpha.load(Ordering::Relaxed), 2);
    }

    /// Both legs of a forced promotion: a failure keeps the next
    /// promotion's item private until a later push publishes it, and a
    /// batch publishes private work without a push, so the owner's pop
    /// then comes from the public deque.
    fn split_force_promote_publishes_private_work<P: Protocol>() {
        let frame = Frame::new();
        let (dq, st) = P::new_deque(8, SplitConfig::default());
        let rec1 = SpawnRecord::new(&frame);
        let rec2 = SpawnRecord::new(&frame);

        assert_eq!(P::force_promote(&dq, ForcedPromotion::Failure), 0);
        assert_eq!(P::push(&dq, Ptr::from_ref(&rec1)), Some(0));
        assert_eq!(P::stealer_len(&st), 0, "the refused promotion kept rec 1");
        assert_eq!(P::push(&dq, Ptr::from_ref(&rec2)), Some(1));
        assert_eq!(P::force_promote(&dq, ForcedPromotion::Batch), 1);
        assert_eq!(P::stealer_len(&st), 2);
        assert_eq!(P::pop_or_join(&dq, &frame), AfterChild::Continue);
        assert!(!P::last_pop_was_private(&dq), "rec 2 had gone public");
        let _stolen = P::steal_from(&st).success().unwrap();
        assert_eq!(P::pop_or_join(&dq, &frame), AfterChild::OutOfWork);
    }

    /// Two spawn…sync regions on one frame after `rearm`.
    fn frame_reuse_across_regions<P: Protocol>() {
        let frame = Frame::new();
        let (dq, st) = P::new_deque(8, SplitConfig::disabled());

        for _region in 0..3 {
            let rec = SpawnRecord::new(&frame);
            assert!(P::push(&dq, Ptr::from_ref(&rec)).is_some());
            let _ = P::steal_from(&st).success().unwrap();
            assert_eq!(P::pop_or_join(&dq, &frame), AfterChild::OutOfWork);
            assert!(P::sync_precheck(&frame));
            P::rearm(&frame);
        }
    }

    macro_rules! for_each_deque {
        ($($name:ident),* $(,)?) => {
            mod cl {
                $(#[test] fn $name() { super::$name::<super::Nowa<nowa_deque::Cl>>(); })*
            }
            mod the {
                $(#[test] fn $name() { super::$name::<super::Nowa<nowa_deque::The>>(); })*
            }
        };
    }
    for_each_deque!(
        nowa_counter_algebra,
        nowa_late_joiner_resumes,
        nowa_restore_self_resume_retires_suspension,
        take_own_does_fork_bookkeeping,
        split_first_push_is_stealable_at_once,
        split_republishes_after_public_steal,
        split_force_promote_publishes_private_work,
        frame_reuse_across_regions,
    );
}
