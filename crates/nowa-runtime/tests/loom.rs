//! Loom models for the runtime's lock-free protocols.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p nowa-runtime --test loom --release
//! ```
//!
//! Five protocols are modeled, each against the *real* implementation (the
//! `crate::sync` shim swaps `core::sync::atomic` for loom's atomics under
//! `--cfg loom`, so the code under test is byte-for-byte the shipping
//! protocol logic):
//!
//! 1. the wait-free `I_max` sync counter (Fig. 6's hazardous race, §IV-B),
//!    driven through `Nowa<Cl>`'s `pop_or_join` / `sync_restore` (the
//!    `Protocol` trait API the scheduler uses) over a real Chase–Lev deque,
//!    including the child panic it publishes to the sync's gated
//!    `take_panic`;
//! 2. the eventcount idle engine (`IdleState`) — the announce/validate/park
//!    vs. publish/wake handshake whose failure mode is a lost wakeup (the
//!    models' `work` flag stands for any validated source, including the
//!    outside-work queue's length word);
//! 3. the abortable-suspension handoff of the cancellation layer — a
//!    suspended sync raced by its last joiner and a canceller latching
//!    the region's (all-Relaxed) cancel flag; the suspension must be
//!    retired exactly once and never resumed with torn context;
//! 4. the async wake-state handoff (§6h) — a parking `block_on` strand
//!    raced by concurrent wakers; the continuation must be resumed
//!    exactly once, a wake arriving before the park must not be lost,
//!    and whoever resumes must see the parker's staged context;
//! 5. the reactor poller claim (§6h) — at most one worker may sit in
//!    `epoll_wait`, and a release must publish the outgoing poller's
//!    duty-state writes to the next claimant.
//!
//! Each passing model is paired with a `*_canary` that re-implements the
//! protocol core with one ordering deliberately weakened and asserts (via
//! `#[should_panic]`) that the checker catches the resulting bug — proof
//! the models explore the interleavings they claim to.

#![cfg(loom)]

use loom::sync::Arc;
use nowa_runtime::flavor::{Protocol, Rec};
use nowa_runtime::idle::IdleState;
use nowa_runtime::nowa::{retire_suspension, Nowa};
use nowa_runtime::reactor::PollerSlot;
use nowa_runtime::record::{AfterChild, Frame, SpawnRecord, I_MAX, SUSP_IDLE};
use nowa_runtime::task::{WakeClaim, WakeState};
use nowa_runtime::SplitConfig;

/// The protocol under test: the wait-free arm over the default deque.
type P = Nowa<nowa_deque::Cl>;

// ---------------------------------------------------------------------------
// 1. The wait-free sync counter (Fig. 6 / §IV-B)
// ---------------------------------------------------------------------------

/// The paper's hazardous race (Fig. 6), end to end on the real protocol
/// functions over a real Chase–Lev deque. The owner spawns (push), runs
/// the child inline, then `pop_or_join`s; a thief races the steal. On a
/// successful steal the thief *becomes* the main flow and runs the
/// explicit sync (precheck, then restore `N_r = N_r' − (I_max − α)`),
/// while the owner's pop-miss path performs the wait-free child join
/// (`fetch_sub(1)`). The pop and the decrement are not atomic together —
/// the race the `I_max` arming turns benign — and exactly one side must
/// conclude "sync condition holds" and resume the continuation.
#[test]
fn sync_counter_exactly_one_resumes() {
    exactly_one_resumes(SplitConfig::disabled());
}

/// The same hazardous race with the split layer *enabled* (§6g): the push
/// finds the public deque empty, so the record crosses the private ring
/// and is promoted before the thief can see it. The `I_max` arming must
/// not care which path made the record public.
#[test]
fn sync_counter_exactly_one_resumes_with_promotion() {
    exactly_one_resumes(SplitConfig::default());
}

fn exactly_one_resumes(split: SplitConfig) {
    loom::model(move || {
        let frame = Arc::new(Frame::new());
        let (dq, st) = P::new_deque(4, split);
        // The record outlives both threads' use: the thief is joined
        // before it drops.
        let rec = SpawnRecord::new(&*frame);
        let promoted = P::push(&dq, Rec::from_ref(&rec)).expect("offered");
        assert_eq!(promoted, u32::from(split.enabled), "public either way");

        // Thief: on a successful steal (which does the α fork
        // bookkeeping), run the stolen continuation to the explicit sync.
        let thief = {
            let frame = frame.clone();
            loom::thread::spawn(move || {
                P::steal_from(&st)
                    .success()
                    .map(|_| P::sync_precheck(&frame) || P::sync_restore(&frame))
            })
        };

        // Owner: the child returned; reclaim the continuation or join.
        let after = P::pop_or_join(&dq, &frame);
        let thief_resumed = thief.join().unwrap();

        match (after, thief_resumed) {
            // Fast path: pop won (or the thief's CAS lost → Retry); the
            // owner continues, nobody touched the counter.
            (AfterChild::Continue, None) => {}
            // Stolen. The owner joined; either its decrement found the
            // restored counter at zero (owner resumes the suspended sync)
            // or the thief's precheck/restore found all children joined
            // (thief proceeds past the sync) — never both, never neither.
            (AfterChild::OutOfWork, Some(true)) => {}
            (AfterChild::ResumeSync, Some(false)) => {}
            other => panic!(
                "sync condition must be claimed exactly once, got \
                 (owner, thief) = {other:?}"
            ),
        }
    });
}

/// The suspension handoff (Eq. 5): continuation stolen, the main flow
/// reaches the sync and restores `N_r = N_r' − (I_max − α)` concurrently
/// with the child's join decrement. Exactly one of {restore, join} must
/// observe zero and resume the suspended sync continuation.
#[test]
fn sync_counter_suspension_handoff() {
    loom::model(|| {
        let frame = Arc::new(Frame::new());
        // Steal already happened: α = 1, one child outstanding.
        frame
            .join
            .alpha
            .store(1, loom::sync::atomic::Ordering::Relaxed);

        let joiner = {
            let frame = frame.clone();
            loom::thread::spawn(move || {
                // Child join: one wait-free RMW (nowa.rs pop-miss path).
                let post = frame
                    .join
                    .counter
                    .fetch_sub(1, loom::sync::atomic::Ordering::AcqRel)
                    - 1;
                post == 0 // ResumeSync
            })
        };

        // Main flow at the explicit sync.
        let main_resumes = if P::sync_precheck(&frame) {
            true // no suspension needed
        } else {
            P::sync_restore(&frame)
        };
        let child_resumes = joiner.join().unwrap();

        assert!(
            usize::from(main_resumes) + usize::from(child_resumes) == 1,
            "exactly one side must resume the sync continuation \
             (main={main_resumes}, child={child_resumes})"
        );
    });
}

/// Payload visibility through the join: the child's result store (Relaxed)
/// must be visible to whoever resumes the sync, via the AcqRel decrement /
/// Acquire precheck pairing. This is the reason those orderings exist.
#[test]
fn sync_counter_join_publishes_child_result() {
    loom::model(|| {
        let frame = Arc::new(Frame::new());
        let result = Arc::new(loom::sync::atomic::AtomicU64::new(0));
        frame
            .join
            .alpha
            .store(1, loom::sync::atomic::Ordering::Relaxed);

        let joiner = {
            let frame = frame.clone();
            let result = result.clone();
            loom::thread::spawn(move || {
                // The child writes its result, then joins.
                result.store(42, loom::sync::atomic::Ordering::Relaxed);
                let post = frame
                    .join
                    .counter
                    .fetch_sub(1, loom::sync::atomic::Ordering::AcqRel)
                    - 1;
                post == 0
            })
        };

        let main_resumes = P::sync_precheck(&frame) || P::sync_restore(&frame);
        let child_resumes = joiner.join().unwrap();
        if main_resumes {
            assert!(!child_resumes);
            assert_eq!(
                result.load(loom::sync::atomic::Ordering::Relaxed),
                42,
                "sync resumption must see the joined child's result"
            );
        }
    });
}

/// CANARY: the same handoff with the joiner's decrement weakened to
/// Relaxed. The result store can then still be in flight when the main
/// flow's precheck observes the counter — the resumed sync reads a stale
/// result. The checker must catch this.
#[test]
#[should_panic(expected = "stale child result")]
fn sync_counter_relaxed_join_canary_fails() {
    loom::model(|| {
        use loom::sync::atomic::{AtomicI64, AtomicU64, Ordering};
        let counter = Arc::new(AtomicI64::new(I_MAX));
        let result = Arc::new(AtomicU64::new(0));
        let alpha = 1i64;

        let joiner = {
            let counter = counter.clone();
            let result = result.clone();
            loom::thread::spawn(move || {
                result.store(42, Ordering::Relaxed);
                // BUG: Relaxed instead of AcqRel.
                counter.fetch_sub(1, Ordering::Relaxed);
            })
        };

        // sync_precheck with the real Acquire load.
        if counter.load(Ordering::Acquire) == I_MAX - alpha {
            assert_eq!(result.load(Ordering::Relaxed), 42, "stale child result");
        }
        joiner.join().unwrap();
    });
}

/// Panic visibility through the join: the stolen child records a panic
/// (the Relaxed `flagged` latch, then the payload under the frame's panic
/// mutex) and joins. Whoever resumes the sync must get the payload from
/// `take_panic`, whose gate is a Relaxed load of that latch — exact only
/// because the join's AcqRel decrement / the precheck's Acquire load order
/// the latch before the completed sync. The main flow reads before the
/// joiner thread is joined, so no extra edge helps it.
#[test]
fn sync_counter_join_publishes_child_panic() {
    loom::model(|| {
        let frame = Arc::new(Frame::new());
        frame
            .join
            .alpha
            .store(1, loom::sync::atomic::Ordering::Relaxed);

        let joiner = {
            let frame = frame.clone();
            loom::thread::spawn(move || {
                frame.core.set_panic(Box::new("child fault"));
                let post = frame
                    .join
                    .counter
                    .fetch_sub(1, loom::sync::atomic::Ordering::AcqRel)
                    - 1;
                post == 0
            })
        };

        let main_resumes = P::sync_precheck(&frame) || P::sync_restore(&frame);
        if main_resumes {
            let payload = frame
                .core
                .take_panic()
                .expect("the gated take_panic must see the joined child's panic");
            assert_eq!(*payload.downcast::<&str>().unwrap(), "child fault");
        }
        let child_resumes = joiner.join().unwrap();
        assert!(main_resumes != child_resumes);
        if child_resumes {
            assert!(
                frame.core.take_panic().is_some(),
                "resumed sync lost the panic"
            );
        }
    });
}

/// CANARY: the panic handoff with the joiner's decrement weakened to
/// Relaxed. The precheck can then observe the join while the `flagged`
/// store is still invisible, and the gated `take_panic` answers `None` —
/// the child's panic is silently dropped. The checker must catch this.
#[test]
#[should_panic(expected = "missed child panic")]
fn sync_counter_relaxed_join_panic_canary_fails() {
    loom::model(|| {
        let frame = Arc::new(Frame::new());
        frame
            .join
            .alpha
            .store(1, loom::sync::atomic::Ordering::Relaxed);

        let joiner = {
            let frame = frame.clone();
            loom::thread::spawn(move || {
                frame.core.set_panic(Box::new("child fault"));
                // BUG: Relaxed instead of AcqRel.
                frame
                    .join
                    .counter
                    .fetch_sub(1, loom::sync::atomic::Ordering::Relaxed);
            })
        };

        // The real precheck (Acquire) and the real gated take_panic.
        if P::sync_precheck(&frame) {
            assert!(frame.core.take_panic().is_some(), "missed child panic");
        }
        joiner.join().unwrap();
    });
}

// ---------------------------------------------------------------------------
// 2. The eventcount idle engine
// ---------------------------------------------------------------------------

/// The lost-wakeup window: a consumer announces, re-scans its work source,
/// and parks *untimed*; a producer publishes work and calls `wake_one`.
/// Whatever the interleaving, the consumer must either see the flag in its
/// re-scan or be woken out of the park — an unwoken untimed sleeper is
/// reported by the model as a deadlock, so mere termination of this model
/// proves the protocol closes the window.
#[test]
fn idle_no_lost_wakeup() {
    loom::model(|| {
        use loom::sync::atomic::{AtomicU32, Ordering};
        let idle = Arc::new(IdleState::new(2));
        let work = Arc::new(AtomicU32::new(0));

        let producer = {
            let idle = idle.clone();
            let work = work.clone();
            loom::thread::spawn(move || {
                work.store(1, Ordering::Release);
                // Producer-side discipline: wake whenever a sleeper may
                // exist. (The real spawn path gates on `sleepers() != 0`,
                // a Relaxed load whose one residual miss window is closed
                // by the bounded park timeout — modeled separately below.)
                idle.wake_one();
            })
        };

        // Consumer: announce → validate (re-scan) → park or cancel.
        let epoch = idle.announce(0);
        if work.load(Ordering::Acquire) != 0 {
            if idle.cancel(0) {
                // A wake already claimed us; pass it on (protocol contract).
                idle.wake_one();
            }
        } else {
            // u64::MAX = untimed park: if the producer's wake can be lost,
            // this blocks forever and the model reports a deadlock.
            let _ = idle.park(0, epoch, u64::MAX, false);
        }
        producer.join().unwrap();

        assert_eq!(
            work.load(Ordering::Acquire),
            1,
            "a departed consumer always sees the published work"
        );
        assert_eq!(idle.sleepers(), 0, "every announce departed exactly once");
    });
}

/// The residual hole of the Relaxed producer-side `sleepers()` gate, made
/// benign by the bounded park timeout: with a *timed* park the model may
/// let the consumer sleep through a missed wake, but it must then depart
/// via the timeout (at quiescence) and re-scan — no deadlock, no missed
/// work. This is the belt-and-braces path the `IdleConfig::max_park`
/// bound exists for.
#[test]
fn idle_timed_park_bounds_the_relaxed_gate_hole() {
    loom::model(|| {
        use loom::sync::atomic::{AtomicU32, Ordering};
        let idle = Arc::new(IdleState::new(2));
        let work = Arc::new(AtomicU32::new(0));

        let producer = {
            let idle = idle.clone();
            let work = work.clone();
            loom::thread::spawn(move || {
                work.store(1, Ordering::Release);
                // The real hot path: only wake when the Relaxed load sees
                // a sleeper. This CAN miss a concurrent announce.
                if idle.sleepers() != 0 {
                    idle.wake_one();
                }
            })
        };

        let epoch = idle.announce(0);
        if work.load(Ordering::Acquire) != 0 {
            if idle.cancel(0) {
                idle.wake_one();
            }
        } else {
            // Finite timeout: the model lets this time out at quiescence.
            let _ = idle.park(0, epoch, 1_000_000, false);
        }
        producer.join().unwrap();

        // After departing (woken, epoch-aborted, or timed out) the re-scan
        // sees the work.
        assert_eq!(work.load(Ordering::Acquire), 1);
        assert_eq!(idle.sleepers(), 0);
    });
}

/// Targeted-wake exclusivity: two untimed sleepers, a waker hammering
/// `wake_one`. Each claim pairs with exactly one announce (a double-claim
/// is impossible — the slot CAS `WAITING → NOTIFIED` consumes the claim),
/// every parked sleeper is eventually woken (deadlock-freedom is the
/// checked property: an unwoken untimed sleeper would be reported), and
/// the sleeper accounting returns to zero.
#[test]
fn idle_wake_one_claims_exactly_one() {
    loom::model(|| {
        use loom::sync::atomic::{AtomicU32, Ordering};
        let idle = Arc::new(IdleState::new(2));
        let departed: Arc<[AtomicU32; 2]> = Arc::new([AtomicU32::new(0), AtomicU32::new(0)]);

        let sleepers: Vec<_> = (0..2)
            .map(|i| {
                let idle = idle.clone();
                let departed = departed.clone();
                loom::thread::spawn(move || {
                    let epoch = idle.announce(i);
                    // A sleeper whose epoch validation fails (the waker's
                    // bump raced ahead) departs on its own; one parked in
                    // the futex must be claimed and woken.
                    let woken = idle.park(i, epoch, u64::MAX, false);
                    departed[i].store(1, Ordering::Release);
                    woken
                })
            })
            .collect();

        // Keep waking until both sleepers have genuinely departed. The
        // flags only ever go 0 → 1, so a stale read just loops once more.
        let mut claims = 0;
        loop {
            if idle.wake_one().is_some() {
                claims += 1;
            }
            if departed[0].load(Ordering::Acquire) == 1 && departed[1].load(Ordering::Acquire) == 1
            {
                break;
            }
            loom::thread::yield_now();
        }
        for s in sleepers {
            let _ = s.join().unwrap();
        }
        assert!(claims <= 2, "a wake claim pairs with exactly one announce");
        assert_eq!(idle.sleepers(), 0, "every announce departed exactly once");
    });
}

/// CANARY: the eventcount with the consumer's validation re-scan removed —
/// announce then park blindly. The producer's flag store + conditional
/// wake can then both miss (store ordered after the consumer's last look,
/// Relaxed sleeper gate reads 0), leaving the consumer asleep forever:
/// the model must report the deadlock.
#[test]
#[should_panic(expected = "deadlock")]
fn idle_no_validation_canary_deadlocks() {
    loom::model(|| {
        use loom::sync::atomic::{AtomicU32, Ordering};
        let idle = Arc::new(IdleState::new(2));
        let work = Arc::new(AtomicU32::new(0));

        let producer = {
            let idle = idle.clone();
            let work = work.clone();
            loom::thread::spawn(move || {
                work.store(1, Ordering::Release);
                if idle.sleepers() != 0 {
                    idle.wake_one();
                }
            })
        };

        // BUG: no re-scan between announce and park.
        let epoch = idle.announce(0);
        let _ = idle.park(0, epoch, u64::MAX, false);
        producer.join().unwrap();
    });
}

// ---------------------------------------------------------------------------
// 3. The abortable-suspension handoff (cancellation layer)
// ---------------------------------------------------------------------------

/// A suspended sync raced by its last joiner and a canceller. The main
/// flow publishes its pre-suspension context, then suspends via the real
/// `sync_restore`; the last child's wait-free decrement races it; a third
/// thread latches the region's cancel flag exactly as `CancelCell` does
/// (an all-Relaxed monotonic latch — the flag publishes nothing but
/// itself; effects ride the join counter's AcqRel chain). Checked:
///
/// * the suspension is retired **exactly once** — either by the restore's
///   own zero-crossing or by the joiner's (`retire_suspension`'s AcqRel
///   swap makes the claim exclusive), never both, never neither;
/// * whichever side resumes sees the suspender's context writes — an
///   abort wakes the continuation to *unwind*, which still walks frames
///   the pre-suspension writes describe, so torn context is unsafe even
///   on the cancellation path;
/// * no party ever blocks: cancellation never adds a wait to the
///   wait-free join (the canceller returns immediately, the joiner's
///   classification is one Relaxed load).
#[test]
fn cancel_abort_retires_suspension_exactly_once() {
    loom::model(|| {
        use loom::sync::atomic::{AtomicU32, AtomicU64, Ordering};
        let frame = Arc::new(Frame::new());
        // Continuation already stolen: α = 1, one child outstanding.
        frame.join.alpha.store(1, Ordering::Relaxed);
        // The suspender's pre-suspension writes (sync_ctx / stack analog).
        let ctx = Arc::new(AtomicU64::new(0));
        // The region's cancel flag, latched as `CancelCell::cancel` does.
        let cancel = Arc::new(AtomicU32::new(0));

        let canceller = {
            let cancel = cancel.clone();
            loom::thread::spawn(move || {
                let _ = cancel.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed);
            })
        };
        let joiner = {
            let frame = frame.clone();
            let ctx = ctx.clone();
            let cancel = cancel.clone();
            loom::thread::spawn(move || {
                // Last child join: the wait-free decrement (nowa.rs
                // pop-miss path), then the abort classification the
                // scheduler's `resume_sync` performs.
                let post = frame.join.counter.fetch_sub(1, Ordering::AcqRel) - 1;
                if post == 0 {
                    assert!(
                        retire_suspension(&frame),
                        "zero-crossing found no parked suspension"
                    );
                    assert_eq!(
                        ctx.load(Ordering::Relaxed),
                        42,
                        "resumed a suspension with torn context"
                    );
                    // Abort vs. normal resume: a classification only —
                    // both paths resume the continuation; neither blocks.
                    Some(cancel.load(Ordering::Relaxed) != 0)
                } else {
                    None
                }
            })
        };

        // Main flow: context writes, then the sync (precheck or suspend).
        ctx.store(42, Ordering::Relaxed);
        let main_resumes = P::sync_precheck(&frame) || P::sync_restore(&frame);
        let joiner_resumed = joiner.join().unwrap();
        canceller.join().unwrap();

        assert_eq!(
            usize::from(main_resumes) + usize::from(joiner_resumed.is_some()),
            1,
            "the suspension must be claimed exactly once \
             (main={main_resumes}, joiner={joiner_resumed:?})"
        );
        assert_eq!(
            frame.join.susp.load(Ordering::Relaxed),
            SUSP_IDLE,
            "every claim must return the suspension machine to idle"
        );
    });
}

/// CANARY: the handoff reduced to its essential publication chain, with
/// that chain weakened. The shipping code is belt-and-braces — the
/// suspender's context is released both by `sync_restore`'s Release store
/// of the suspension flag *and* by the counter's AcqRel traffic — so this
/// model strips the counter down to a pure Relaxed count (no release) and
/// weakens the suspension publication to Relaxed: the retirer's AcqRel
/// swap then orders nothing, and the model finds an interleaving where a
/// cancelled suspension is woken to unwind over torn context.
#[test]
#[should_panic(expected = "torn context")]
fn cancel_abort_relaxed_publish_canary_fails() {
    loom::model(|| {
        use loom::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, Ordering};
        let counter = Arc::new(AtomicI64::new(I_MAX));
        let susp = Arc::new(AtomicU32::new(0));
        let ctx = Arc::new(AtomicU64::new(0));
        let alpha = 1i64;

        let suspender = {
            let counter = counter.clone();
            let susp = susp.clone();
            let ctx = ctx.clone();
            loom::thread::spawn(move || {
                ctx.store(42, Ordering::Relaxed);
                // BUG: Relaxed instead of Release — the context writes are
                // not ordered before the suspension becomes claimable.
                susp.store(1, Ordering::Relaxed);
                // Reduced model: the restore is a bare count (the real
                // one's AcqRel is the redundancy being stripped).
                counter.fetch_sub(I_MAX - alpha, Ordering::Relaxed);
            })
        };

        // Joiner: decrement, retire on the zero-crossing, resume.
        let post = counter.fetch_sub(1, Ordering::Relaxed) - 1;
        if post == 0 && susp.swap(0, Ordering::AcqRel) == 1 {
            assert_eq!(ctx.load(Ordering::Relaxed), 42, "torn context");
        }
        suspender.join().unwrap();
    });
}

// ---------------------------------------------------------------------------
// 4. The async wake-state handoff (§6h)
// ---------------------------------------------------------------------------

/// Exactly-once resume under waker races: one parking strand, two
/// concurrent wakers (an I/O dispatch and a timer fire, say). Whatever
/// the interleaving, the continuation is resumed exactly once — either a
/// waker `Claimed` the parked cell (and the worker popping the ready
/// queue performs `resume_begin`), or the wake landed first as a flag and
/// the parker's failed `park_publish` self-resumes. Never both, never
/// neither, and the resumer always sees the parker's staged context
/// (the `ctx`/`stack` analog) through the publish/claim pairing.
#[test]
fn wake_state_exactly_once_resume() {
    loom::model(|| {
        use loom::sync::atomic::{AtomicU32, AtomicU64, Ordering};
        let ws = Arc::new(WakeState::new());
        // The parker's pre-park writes (the captured continuation).
        let ctx = Arc::new(AtomicU64::new(0));
        // Each waker publishes a readiness event before its wake — the
        // thing a self-resuming parker's re-poll must observe.
        let ready_events = Arc::new(AtomicU32::new(0));

        let wakers: Vec<_> = (0..2)
            .map(|_| {
                let ws = ws.clone();
                let ctx = ctx.clone();
                let ready_events = ready_events.clone();
                loom::thread::spawn(move || {
                    ready_events.fetch_add(1, Ordering::Relaxed);
                    match ws.wake_claim() {
                        WakeClaim::Claimed => {
                            // This thread now owns the continuation: the
                            // real waker queues the cell; the popping
                            // worker runs `resume_begin` and walks the
                            // published context. Model both steps here.
                            assert_eq!(
                                ctx.load(Ordering::Relaxed),
                                42,
                                "claimed a continuation with torn context"
                            );
                            ws.resume_begin();
                            true
                        }
                        WakeClaim::Flagged | WakeClaim::Stale => false,
                    }
                })
            })
            .collect();

        // Parker: stage the continuation, then publish.
        ctx.store(42, Ordering::Relaxed);
        let self_resumed = if ws.park_publish() {
            false // parked; ownership is with the next claimer
        } else {
            // A wake raced in first: the failed CAS's Acquire edge must
            // order the flagging waker's readiness event before our
            // re-poll.
            assert!(
                ready_events.load(Ordering::Relaxed) >= 1,
                "self-resume re-poll missed the waker's readiness"
            );
            ws.resume_begin();
            true
        };

        let claims = wakers
            .into_iter()
            .map(|w| w.join().unwrap())
            .filter(|&claimed| claimed)
            .count();
        assert_eq!(
            usize::from(self_resumed) + claims,
            1,
            "the continuation must be resumed exactly once \
             (self={self_resumed}, claims={claims})"
        );
    });
}

/// The lost-wake window on the park edge: a single waker firing entirely
/// before, entirely after, or interleaved with the park. The wake must
/// never vanish — exactly one of {the parker's `park_publish` fails (it
/// keeps ownership and self-resumes), the waker `Claimed` the parked
/// cell} holds, and a `Claimed` waker sees the staged context.
#[test]
fn wake_state_wake_before_park_not_lost() {
    loom::model(|| {
        use loom::sync::atomic::{AtomicU32, AtomicU64, Ordering};
        let ws = Arc::new(WakeState::new());
        let ctx = Arc::new(AtomicU64::new(0));
        let ready = Arc::new(AtomicU32::new(0));

        let waker = {
            let ws = ws.clone();
            let ctx = ctx.clone();
            let ready = ready.clone();
            loom::thread::spawn(move || {
                ready.store(1, Ordering::Relaxed);
                let claim = ws.wake_claim();
                if claim == WakeClaim::Claimed {
                    assert_eq!(
                        ctx.load(Ordering::Relaxed),
                        42,
                        "claimed a continuation with torn context"
                    );
                    ws.resume_begin();
                }
                claim
            })
        };

        ctx.store(42, Ordering::Relaxed);
        let parked = ws.park_publish();
        if !parked {
            assert_eq!(
                ready.load(Ordering::Relaxed),
                1,
                "self-resume re-poll missed the waker's readiness"
            );
            ws.resume_begin();
        }
        let claim = waker.join().unwrap();

        // One wake, one park attempt: a `Stale` outcome is impossible and
        // the wake is consumed by exactly one side.
        assert_ne!(claim, WakeClaim::Stale, "the only wake turned stale");
        assert_eq!(
            usize::from(!parked) + usize::from(claim == WakeClaim::Claimed),
            1,
            "the wake must be consumed exactly once \
             (parked={parked}, claim={claim:?})"
        );
    });
}

/// CANARY: the handoff with the parker's publish CAS weakened to Relaxed.
/// The staged context is then unordered against the state transition, and
/// a claiming waker can resume a continuation whose `ctx`/`stack` writes
/// are still in flight. The checker must find that interleaving.
#[test]
#[should_panic(expected = "torn continuation")]
fn wake_state_relaxed_publish_canary_fails() {
    loom::model(|| {
        use loom::sync::atomic::{AtomicU32, AtomicU64, Ordering};
        const RUNNING: u32 = 0;
        const PARKED: u32 = 1;
        const NOTIFIED: u32 = 2;
        let state = Arc::new(AtomicU32::new(RUNNING));
        let ctx = Arc::new(AtomicU64::new(0));

        let parker = {
            let state = state.clone();
            let ctx = ctx.clone();
            loom::thread::spawn(move || {
                ctx.store(42, Ordering::Relaxed);
                // BUG: Relaxed instead of Release — the staged context is
                // not published with the PARKED transition.
                let _ =
                    state.compare_exchange(RUNNING, PARKED, Ordering::Relaxed, Ordering::Relaxed);
            })
        };

        // Waker: the real claim CAS (AcqRel), as in `wake_claim`.
        if state
            .compare_exchange(PARKED, NOTIFIED, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            assert_eq!(ctx.load(Ordering::Relaxed), 42, "torn continuation");
        }
        parker.join().unwrap();
    });
}

// ---------------------------------------------------------------------------
// 5. The reactor poller claim (§6h)
// ---------------------------------------------------------------------------

/// Mutual exclusion of the poller slot: two workers descend idle and race
/// the claim. At most one may sit in `epoll_wait` at a time (two
/// concurrent pollers would steal each other's events), and `is_poller`
/// must agree with the holder while the slot is held. Sequential
/// claim→release→claim handoff is legal; concurrent holding is not.
#[test]
fn reactor_poller_claim_is_exclusive() {
    loom::model(|| {
        use loom::sync::atomic::{AtomicU32, Ordering};
        let slot = Arc::new(PollerSlot::new());
        // Detector: set while a claimant believes it is the sole poller.
        // The Relaxed flag traffic is ordered by the claim/release SeqCst
        // edges themselves — which is exactly the property under test.
        let in_epoll = Arc::new(AtomicU32::new(0));

        let workers: Vec<_> = (0..2)
            .map(|i| {
                let slot = slot.clone();
                let in_epoll = in_epoll.clone();
                loom::thread::spawn(move || {
                    if slot.try_claim(i) {
                        assert!(slot.is_poller(i), "claimant not visible as poller");
                        assert!(!slot.is_poller(1 - i), "two workers read as poller");
                        assert_eq!(
                            in_epoll.swap(1, Ordering::Relaxed),
                            0,
                            "two pollers inside epoll_wait"
                        );
                        in_epoll.store(0, Ordering::Relaxed);
                        slot.release();
                        true
                    } else {
                        false
                    }
                })
            })
            .collect();

        let wins = workers
            .into_iter()
            .map(|w| w.join().unwrap())
            .filter(|&won| won)
            .count();
        assert!(wins >= 1, "an uncontended-or-raced CAS on 0 must admit one");
        assert!(!slot.claimed(), "every claim released exactly once");
    });
}

/// Claim handoff publishes duty state: the outgoing poller's writes
/// (timer-wheel advances, dispatched readiness) must be visible to the
/// next claimant — the release store is what the successful claim CAS
/// reads, forming the ordering edge.
#[test]
fn reactor_poller_release_publishes_duty_state() {
    loom::model(|| {
        use loom::sync::atomic::{AtomicU64, Ordering};
        let slot = Arc::new(PollerSlot::new());
        let duty = Arc::new(AtomicU64::new(0));

        // Outgoing poller: claimed before the successor exists.
        assert!(slot.try_claim(0));
        let successor = {
            let slot = slot.clone();
            let duty = duty.clone();
            loom::thread::spawn(move || {
                // Spin for the slot as park_worker's idle descent would
                // (the model yield bounds the spin at quiescence).
                while !slot.try_claim(1) {
                    loom::thread::yield_now();
                }
                assert_eq!(
                    duty.load(Ordering::Relaxed),
                    42,
                    "next poller missed the outgoing poller's duty state"
                );
                slot.release();
            })
        };
        duty.store(42, Ordering::Relaxed);
        slot.release();
        successor.join().unwrap();
        assert!(!slot.claimed());
    });
}

/// CANARY: the same handoff with the release weakened to Relaxed. The
/// duty-state writes are then unordered against the slot becoming free,
/// and the next claimant can observe stale duty state — the exact bug the
/// SeqCst release prevents.
#[test]
#[should_panic(expected = "stale poller duty state")]
fn reactor_poller_relaxed_release_canary_fails() {
    loom::model(|| {
        use loom::sync::atomic::{AtomicU32, AtomicU64, Ordering};
        let slot = Arc::new(AtomicU32::new(0));
        let duty = Arc::new(AtomicU64::new(0));

        assert!(slot
            .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok());
        let successor = {
            let slot = slot.clone();
            let duty = duty.clone();
            loom::thread::spawn(move || {
                while slot
                    .compare_exchange(0, 2, Ordering::SeqCst, Ordering::SeqCst)
                    .is_err()
                {
                    loom::thread::yield_now();
                }
                assert_eq!(duty.load(Ordering::Relaxed), 42, "stale poller duty state");
            })
        };
        duty.store(42, Ordering::Relaxed);
        // BUG: Relaxed instead of the SeqCst (Release-or-stronger) store —
        // the duty write is not published with the slot.
        slot.store(0, Ordering::Relaxed);
        successor.join().unwrap();
    });
}
