//! Loom models for the work-stealing deques.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p nowa-deque --test loom --release
//! ```
//!
//! Each model asserts the deques' fundamental invariant — *exactly-once
//! delivery*: every pushed item is taken by exactly one of {owner pop,
//! thief steal}. The `*_canary` models re-implement the Chase–Lev core with
//! a deliberately missing/weakened ordering and `#[should_panic]` that the
//! checker catches the resulting duplication — proof the passing models
//! actually explore the interleavings they claim to.

#![cfg(loom)]

use nowa_deque::{ClDeque, SplitConfig, SplitDeque, Steal, StealerOps, TheDeque, WorkerOps};

/// Owner pushes then pops while one thief steals: every item claimed
/// exactly once, none lost, none duplicated.
///
/// Covers: CL push (release fence before `bottom` store), pop (SC fence
/// between the `bottom` decrement and the `top` read), steal (SC fence
/// between the `top` and `bottom` reads, validating CAS).
#[test]
fn cl_owner_vs_thief_exactly_once() {
    loom::model(|| {
        let (w, s) = ClDeque::<usize>::new(4);
        let thief = loom::thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..2 {
                match s.steal() {
                    Steal::Success(v) => got.push(v),
                    Steal::Empty | Steal::Retry => {}
                }
            }
            got
        });
        w.push(1).unwrap();
        w.push(2).unwrap();
        let mut got = Vec::new();
        while let Some(v) = w.pop() {
            got.push(v);
        }
        let stolen = thief.join().unwrap();
        got.extend(stolen);
        got.sort_unstable();
        assert_eq!(got, vec![1, 2], "every item claimed exactly once");
    });
}

/// The single-element race from §IV-C: owner pop and thief steal fight for
/// the last item through the `top` CAS; exactly one must win.
#[test]
fn cl_single_item_owner_thief_race() {
    loom::model(|| {
        let (w, s) = ClDeque::<usize>::new(2);
        w.push(7).unwrap();
        let thief = loom::thread::spawn(move || s.steal().success());
        let popped = w.pop();
        let stolen = thief.join().unwrap();
        match (popped, stolen) {
            (Some(7), None) | (None, Some(7)) => {}
            other => panic!("last item must go to exactly one side, got {other:?}"),
        }
    });
}

/// Two thieves and the owner contend over two items; `Retry` losses are
/// allowed, duplication and loss are not.
#[test]
fn cl_two_thieves() {
    loom::model(|| {
        let (w, s) = ClDeque::<usize>::new(4);
        w.push(1).unwrap();
        w.push(2).unwrap();
        let s2 = s.clone();
        let t1 = loom::thread::spawn(move || s.steal().success());
        let t2 = loom::thread::spawn(move || s2.steal().success());
        let mut got = Vec::new();
        while let Some(v) = w.pop() {
            got.push(v);
        }
        got.extend(t1.join().unwrap());
        got.extend(t2.join().unwrap());
        got.sort_unstable();
        assert_eq!(got, vec![1, 2], "every item claimed exactly once");
    });
}

/// Growth race: the owner's third push doubles the 2-slot ring (copying
/// the live range, then publishing the new ring with a release swap)
/// while a thief steals concurrently. The thief must either see the old
/// ring (whose live slots growth never touches) or the fully-copied new
/// one via the `buffer` Acquire/Release pairing — never a half-built
/// ring — and every item is still claimed exactly once.
#[test]
fn cl_grow_during_steal() {
    loom::model(|| {
        let (w, s) = ClDeque::<usize>::new(2);
        w.push(1).unwrap();
        w.push(2).unwrap();
        let thief = loom::thread::spawn(move || s.steal().success());
        w.push(3).unwrap(); // grows unless the thief already advanced `top`
        let mut got = Vec::new();
        while let Some(v) = w.pop() {
            got.push(v);
        }
        got.extend(thief.join().unwrap());
        got.sort_unstable();
        assert_eq!(
            got,
            vec![1, 2, 3],
            "every item claimed exactly once across growth"
        );
    });
}

/// THE deque: the Dijkstra-style owner/thief arbitration keeps the last
/// item exclusive.
#[test]
fn the_single_item_owner_thief_race() {
    loom::model(|| {
        let (w, s) = TheDeque::<usize>::new(4);
        w.push(7).unwrap();
        let thief = loom::thread::spawn(move || s.steal().success());
        let popped = w.pop();
        let stolen = thief.join().unwrap();
        match (popped, stolen) {
            (Some(7), None) | (None, Some(7)) => {}
            other => panic!("last item must go to exactly one side, got {other:?}"),
        }
    });
}

// ---------------------------------------------------------------------------
// Split layer (§6g): the owner keeps its public deque non-empty by probing
// it (`Relaxed`) after each private push and promoting when it reads empty.
// Promotion publishes through the wrapped deque's own release/acquire push;
// the probe is advisory. The model checks conservation and the "never
// private-only after a push" invariant across that race.
// ---------------------------------------------------------------------------

/// The owner's emptiness probe + promotion against a thief stealing the
/// last public item (and then trying for the next one, so a promotion in
/// flight is raced too).
///
/// * Every item is claimed by exactly one of {owner pop, thief steal}.
/// * A probe that read "non-empty" — correctly or stale, the thief's `top`
///   CAS not yet visible — left item 2 private: nothing but item 1 was
///   ever stealable, and publication is only deferred to the next push.
/// * Once the thief is joined, a further push always leaves something
///   stealable.
#[test]
fn split_empty_probe_vs_last_steal() {
    loom::model(|| {
        let (w, s) = ClDeque::<usize>::new(4);
        let (w, s) = SplitDeque::wrap(w, s, SplitConfig::default(), 4);
        assert_eq!(w.push_spawn(1).unwrap().promoted, 1, "empty → public");
        let s2 = s.clone();
        let thief = loom::thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..2 {
                if let Steal::Success(v) = s2.steal() {
                    got.push(v);
                }
            }
            got
        });
        let raced = w.push_spawn(2).unwrap(); // probe races the steal of 1
        let mut got = thief.join().unwrap();
        assert_eq!(got.first(), Some(&1), "item 1 was public throughout");
        if raced.promoted == 0 {
            assert_eq!(got, vec![1], "item 2 stayed private");
        }
        // The join made the thief's steals visible to the probe.
        let deferred = usize::from(raced.promoted == 0);
        let republish = usize::from(got.len() == 2);
        assert_eq!(
            w.push_spawn(3).unwrap().promoted as usize,
            deferred + republish,
            "publishes exactly when the public deque is empty"
        );
        assert!(w.public_len() >= 1, "never private-only after a push");
        got.extend(s.steal().success());
        assert_eq!(got.len(), 2 + republish, "that push was stealable");
        while let Some(v) = w.pop() {
            got.push(v);
        }
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3], "every item claimed exactly once");
    });
}

// ---------------------------------------------------------------------------
// Canaries: the same Chase–Lev core with one ordering broken. These MUST
// fail — they prove the passing models above have teeth.
// ---------------------------------------------------------------------------

mod mini_cl {
    //! A growth-free Chase–Lev core, parameterised over the two orderings
    //! the canaries break. Mirrors `nowa_deque::cl` closely enough that a
    //! bug the canary plants is a bug the real model would catch.

    use loom::sync::atomic::{fence, AtomicI64, AtomicU64, Ordering};

    pub struct MiniCl {
        top: AtomicI64,
        bottom: AtomicI64,
        slots: [AtomicU64; 4],
        /// `false` drops the SC fence in `pop` — the Norris & Demsky bug.
        pop_fence: bool,
        /// `false` downgrades `push`'s release fence to nothing — the
        /// classic message-passing hole on the item payload.
        push_release: bool,
    }

    impl MiniCl {
        pub fn new(pop_fence: bool, push_release: bool) -> MiniCl {
            MiniCl {
                top: AtomicI64::new(0),
                bottom: AtomicI64::new(0),
                slots: [const { AtomicU64::new(0) }; 4],
                pop_fence,
                push_release,
            }
        }

        fn slot(&self, i: i64) -> &AtomicU64 {
            &self.slots[(i & 3) as usize]
        }

        pub fn push(&self, v: u64) {
            let b = self.bottom.load(Ordering::Relaxed);
            self.slot(b).store(v, Ordering::Relaxed);
            if self.push_release {
                fence(Ordering::Release);
            }
            self.bottom.store(b + 1, Ordering::Relaxed);
        }

        pub fn pop(&self) -> Option<u64> {
            let b = self.bottom.load(Ordering::Relaxed) - 1;
            self.bottom.store(b, Ordering::Relaxed);
            if self.pop_fence {
                fence(Ordering::SeqCst);
            }
            let t = self.top.load(Ordering::Relaxed);
            if t <= b {
                let word = self.slot(b).load(Ordering::Relaxed);
                if t == b {
                    let won = self
                        .top
                        .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                        .is_ok();
                    self.bottom.store(b + 1, Ordering::Relaxed);
                    if !won {
                        return None;
                    }
                }
                Some(word)
            } else {
                self.bottom.store(b + 1, Ordering::Relaxed);
                None
            }
        }

        pub fn steal(&self) -> Option<u64> {
            let t = self.top.load(Ordering::Acquire);
            fence(Ordering::SeqCst);
            let b = self.bottom.load(Ordering::Acquire);
            if t >= b {
                return None;
            }
            let word = self.slot(t).load(Ordering::Relaxed);
            if self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_err()
            {
                return None;
            }
            Some(word)
        }
    }
}

/// Sanity: the mini-CL with all fences intact passes the duplication test
/// (so the canary failures below are attributable to the planted bug).
#[test]
fn mini_cl_intact_passes() {
    loom::model(|| {
        let q = loom::sync::Arc::new(mini_cl::MiniCl::new(true, true));
        q.push(1);
        q.push(2);
        let thief = {
            let q = q.clone();
            loom::thread::spawn(move || {
                let mut got = Vec::new();
                got.extend(q.steal());
                got.extend(q.steal());
                got
            })
        };
        let mut got = Vec::new();
        while let Some(v) = q.pop() {
            got.push(v);
        }
        got.extend(thief.join().unwrap());
        got.sort_unstable();
        assert_eq!(got, vec![1, 2], "duplication or loss");
    });
}

/// CANARY: without `pop`'s SeqCst fence the owner can read a stale `top`,
/// skip the last-item CAS, and take an item a thief already stole — the
/// exact bug the fence comment in `cl.rs` protects against.
#[test]
#[should_panic(expected = "duplication or loss")]
fn cl_pop_fence_canary_fails() {
    loom::model(|| {
        let q = loom::sync::Arc::new(mini_cl::MiniCl::new(false, true));
        q.push(1);
        q.push(2);
        let thief = {
            let q = q.clone();
            loom::thread::spawn(move || {
                let mut got = Vec::new();
                got.extend(q.steal());
                got.extend(q.steal());
                got
            })
        };
        let mut got = Vec::new();
        while let Some(v) = q.pop() {
            got.push(v);
        }
        got.extend(thief.join().unwrap());
        got.sort_unstable();
        assert_eq!(got, vec![1, 2], "duplication or loss");
    });
}

/// CANARY: without `push`'s release fence a thief can claim a slot before
/// the item word is visible and steal a stale (here: zero) payload.
#[test]
#[should_panic(expected = "stale payload")]
fn cl_push_release_canary_fails() {
    loom::model(|| {
        let q = loom::sync::Arc::new(mini_cl::MiniCl::new(true, false));
        let thief = {
            let q = q.clone();
            loom::thread::spawn(move || q.steal())
        };
        q.push(9);
        if let Some(v) = thief.join().unwrap() {
            assert_eq!(v, 9, "stale payload");
        }
    });
}

mod mini_split {
    //! A one-slot promotion mailbox: the essence of the split layer's
    //! private→public handoff, reduced to "store the payload, then publish
    //! the ready flag". In the real layer the publish edge is the wrapped
    //! deque's release push (the emptiness probe is advisory and carries
    //! no data) — this mini model isolates exactly that edge so the canary
    //! can break it.

    use loom::sync::atomic::{AtomicU64, Ordering};

    pub struct MiniSplit {
        /// The promoted item's payload — the "public slot".
        slot: AtomicU64,
        /// Nonzero once the slot is ready for thieves.
        ready: AtomicU64,
        /// `false` downgrades the publish to `Relaxed` — the hole the
        /// wrapped deque's release push closes in the real layer.
        publish_release: bool,
    }

    impl MiniSplit {
        pub fn new(publish_release: bool) -> MiniSplit {
            MiniSplit {
                slot: AtomicU64::new(0),
                ready: AtomicU64::new(0),
                publish_release,
            }
        }

        /// Owner: promote `v` out of the private segment.
        pub fn promote(&self, v: u64) {
            self.slot.store(v, Ordering::Relaxed);
            let publish = if self.publish_release {
                Ordering::Release
            } else {
                Ordering::Relaxed
            };
            self.ready.store(1, publish);
        }

        /// Thief: take the promoted item if published.
        pub fn steal(&self) -> Option<u64> {
            if self.ready.load(Ordering::Acquire) == 0 {
                return None;
            }
            Some(self.slot.load(Ordering::Relaxed))
        }
    }
}

/// Sanity: the mini-split with the release publish intact never hands a
/// thief a stale payload (so the canary below is attributable to the
/// planted downgrade).
#[test]
fn mini_split_intact_passes() {
    loom::model(|| {
        let q = loom::sync::Arc::new(mini_split::MiniSplit::new(true));
        let thief = {
            let q = q.clone();
            loom::thread::spawn(move || q.steal())
        };
        q.promote(9);
        if let Some(v) = thief.join().unwrap() {
            assert_eq!(v, 9, "stale payload");
        }
    });
}

/// CANARY: with the promotion publish downgraded to `Relaxed` a thief can
/// observe the ready flag before the payload — the stale-read hole the
/// split layer avoids by riding the wrapped deque's release push.
#[test]
#[should_panic(expected = "stale payload")]
fn split_publish_canary_fails() {
    loom::model(|| {
        let q = loom::sync::Arc::new(mini_split::MiniSplit::new(false));
        let thief = {
            let q = q.clone();
            loom::thread::spawn(move || q.steal())
        };
        q.promote(9);
        if let Some(v) = thief.join().unwrap() {
            assert_eq!(v, 9, "stale payload");
        }
    });
}
