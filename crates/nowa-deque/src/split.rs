//! Split private/public deque with lazy promotion (DESIGN.md §6g).
//!
//! Work-stealing pays for thief-safety on every owner operation: even the
//! Chase–Lev `push` issues a release store, and its `pop` a full fence plus
//! a possible CAS — all wasted when no thief is looking, which is the
//! common case for fine-grained fork/join (Rito & Paulino, *Scheduling
//! Computations with Provably Low Synchronization*). This module removes
//! that cost by splitting each deque into
//!
//! * a **private segment** — an unsynchronized ring of token words touched
//!   only by the owner (plain [`Cell`]s, no atomics, no fences), holding
//!   the *newest* continuations; and
//! * the **public deque** — the wrapped flavor (CL or THE),
//!   holding the *oldest* continuations, visible to thieves as before.
//!
//! The owner pushes and pops at the private tail; thieves steal from the
//! public top. Global order is preserved: the public top is the globally
//! oldest item (FIFO for thieves), the private tail the globally newest
//! (LIFO for the owner). Items cross from private to public by **lazy
//! promotion**, triggered two ways:
//!
//! * **batch boundary** — every `promote_batch` pushes the owner promotes
//!   its surplus (all but the item it is about to pop back), bounding how
//!   much work can hide from thieves; and
//! * **hunger** — a thief that observes the public deque empty sets a
//!   shared `hungry` flag; the owner probes it on each push (one read-only
//!   `Relaxed` load of a line that is written at most once per failed
//!   sweep) and, when set, promotes immediately.
//!
//! The hunger flag is purely advisory: promoted items become visible
//! through the public deque's own release/acquire protocol, so all flag
//! accesses are `Relaxed` (audited in DESIGN.md §7b). A promotion that
//! finds the public deque full puts the in-flight item back at the private
//! front — order intact, nothing dropped — so the steal-conservation
//! invariant (`spawns == fast_pops + steals + own_takes`) survives
//! overflow. The fast path itself — the private ring's `push_back` /
//! `pop_back` — contains no shared atomic at all, which nowa-lint R5
//! enforces via the `// lint: hot-path private` marker.

use core::cell::Cell;
use core::marker::PhantomData;
use core::num::NonZeroU64;
use std::sync::Arc;

use crate::sync::{AtomicU64, Ordering};
use crate::{Full, Steal, StealerOps, Token, WorkerOps};

/// Tuning knobs of the split layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitConfig {
    /// When `false`, the layer is a pass-through to the wrapped deque:
    /// every push goes straight to the public end (the pre-split
    /// behaviour, kept for the `nowa-bench spawn` ablation).
    pub enabled: bool,
    /// Batch-boundary period: every `promote_batch` private pushes the
    /// owner promotes its surplus even without a hunger signal, bounding
    /// how long work can stay invisible to thieves.
    pub promote_batch: usize,
    /// When issuing a targeted wake after a promotion, promote up to a
    /// full extra batch first so the woken thief finds ample public work
    /// instead of immediately re-signalling hunger.
    pub promote_on_wake: bool,
}

impl Default for SplitConfig {
    fn default() -> SplitConfig {
        SplitConfig {
            enabled: true,
            promote_batch: 8,
            promote_on_wake: true,
        }
    }
}

impl SplitConfig {
    /// The pass-through configuration (split layer off).
    pub fn disabled() -> SplitConfig {
        SplitConfig {
            enabled: false,
            ..SplitConfig::default()
        }
    }
}

/// Owner/thief shared state: one cache line holding the hunger flag.
#[repr(align(128))]
struct SplitShared {
    /// Set (`Relaxed`) by a thief that found the public deque empty;
    /// cleared (`Relaxed`) by the owner when it promotes. Advisory only —
    /// see the module docs and DESIGN.md §7b.
    hungry: AtomicU64,
}

/// The owner-private unsynchronized segment: a power-of-two ring of raw
/// token words with monotonically growing head/tail indices. No atomics,
/// no fences — the owner is the only party that ever touches it.
struct PrivateRing {
    slots: Box<[Cell<u64>]>,
    mask: usize,
    /// Oldest item (promotion end). Grows monotonically; wraps via `mask`.
    head: Cell<usize>,
    /// One past the newest item (owner push/pop end).
    tail: Cell<usize>,
}

impl PrivateRing {
    fn new(capacity: usize) -> PrivateRing {
        let cap = capacity.clamp(2, 1024).next_power_of_two();
        PrivateRing {
            slots: (0..cap).map(|_| Cell::new(0)).collect(),
            mask: cap - 1,
            head: Cell::new(0),
            tail: Cell::new(0),
        }
    }

    /// Appends the newest item. Fails (ring full) without side effects.
    // lint: hot-path private
    // lint: wait-free
    #[inline(always)]
    fn push_back(&self, word: u64) -> bool {
        let tail = self.tail.get();
        if tail.wrapping_sub(self.head.get()) > self.mask {
            return false;
        }
        self.slots[tail & self.mask].set(word);
        self.tail.set(tail.wrapping_add(1));
        true
    }

    /// Removes and returns the newest item (the owner's LIFO end).
    // lint: hot-path private
    // lint: wait-free
    #[inline(always)]
    fn pop_back(&self) -> Option<u64> {
        let tail = self.tail.get();
        if self.head.get() == tail {
            return None;
        }
        let tail = tail.wrapping_sub(1);
        self.tail.set(tail);
        Some(self.slots[tail & self.mask].get())
    }

    /// Removes and returns the oldest item (the promotion end).
    fn pop_front(&self) -> Option<u64> {
        let head = self.head.get();
        if head == self.tail.get() {
            return None;
        }
        self.head.set(head.wrapping_add(1));
        Some(self.slots[head & self.mask].get())
    }

    /// Reinserts an item at the oldest end (promotion put-back). Fails
    /// (ring full) without side effects; never fails directly after a
    /// [`pop_front`](Self::pop_front) freed the slot.
    fn push_front(&self, word: u64) -> bool {
        let head = self.head.get();
        if self.tail.get().wrapping_sub(head) > self.mask {
            return false;
        }
        let head = head.wrapping_sub(1);
        self.slots[head & self.mask].set(word);
        self.head.set(head);
        true
    }

    fn len(&self) -> usize {
        self.tail.get().wrapping_sub(self.head.get())
    }
}

/// Result of a [`SplitWorker::push_spawn`]: how many private items this
/// push moved to the public deque (0 on the pure fast path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SplitPush {
    /// Items promoted private → public as a side effect of this push.
    pub promoted: u32,
}

/// Factory for the split layer, named like the deque family types.
pub struct SplitDeque;

impl SplitDeque {
    /// Wraps a flavor's `(worker, stealer)` pair in the split layer.
    /// `capacity` sizes the private ring (clamped to a sane power of two;
    /// overflow promotes, so a small ring costs throughput, not
    /// correctness).
    pub fn wrap<T: Token, W: WorkerOps<T>, S: StealerOps<T>>(
        worker: W,
        stealer: S,
        cfg: SplitConfig,
        capacity: usize,
    ) -> (SplitWorker<W, T>, SplitStealer<S>) {
        let shared = Arc::new(SplitShared {
            hungry: AtomicU64::new(0),
        });
        (
            SplitWorker {
                inner: worker,
                ring: PrivateRing::new(capacity),
                since: Cell::new(0),
                last_private: Cell::new(false),
                cfg,
                shared: Arc::clone(&shared),
                _items: PhantomData,
            },
            SplitStealer {
                inner: stealer,
                shared,
            },
        )
    }
}

/// Owner-side handle of a split deque: the wrapped flavor's worker end
/// plus the private segment. `Send` but, like every worker handle, not
/// `Sync` (the `Cell`s see to that).
pub struct SplitWorker<W, T> {
    inner: W,
    ring: PrivateRing,
    /// Private pushes since the last promotion (batch-boundary counter).
    since: Cell<usize>,
    /// Whether the most recent successful `pop` came from the private
    /// segment (feeds the `private_pops` statistic).
    last_private: Cell<bool>,
    cfg: SplitConfig,
    shared: Arc<SplitShared>,
    _items: PhantomData<T>,
}

impl<W: WorkerOps<T>, T: Token> SplitWorker<W, T> {
    /// Pushes a spawned continuation, reporting promotion side effects.
    ///
    /// The common case writes one private ring slot and probes the hunger
    /// flag with a single read-only `Relaxed` load — zero shared stores,
    /// RMWs or fences. On a batch boundary the owner promotes its surplus
    /// (keeping the item it is about to pop back, so a tight spawn→pop
    /// loop promotes nothing); on a hunger signal it promotes immediately
    /// and keeps nothing back. `Err(Full)` means both segments are full —
    /// the caller runs the child inline, exactly as for an unsplit full
    /// deque.
    // lint: hot-path
    // lint: wait-free
    #[inline]
    pub fn push_spawn(&self, item: T) -> Result<SplitPush, Full<T>> {
        if !self.cfg.enabled {
            // The call graph resolves this to the wrapped deque's own
            // audited push, so no textual suppression is needed.
            return self.inner.push(item).map(|()| SplitPush { promoted: 0 });
        }
        let word = item.into_word().get();
        if !self.ring.push_back(word) {
            // Private segment full: drain a batch into the public deque to
            // make room. If the public side is full too, report Full.
            let promoted = self.promote(self.cfg.promote_batch.max(1));
            if promoted == 0 || !self.ring.push_back(word) {
                return Err(Full(item));
            }
            self.since.set(0);
            return Ok(SplitPush {
                promoted: promoted as u32,
            });
        }
        let since = self.since.get() + 1;
        let hungry = self.shared.hungry.load(Ordering::Relaxed) != 0;
        if !hungry && since < self.cfg.promote_batch.max(1) {
            self.since.set(since);
            return Ok(SplitPush { promoted: 0 });
        }
        self.since.set(0);
        if hungry {
            self.shared.hungry.store(0, Ordering::Relaxed);
        }
        let keep = usize::from(!hungry);
        let avail = self.ring.len().saturating_sub(keep);
        let promoted = if avail == 0 {
            0
        } else {
            self.promote(avail.min(self.cfg.promote_batch.max(1)))
        };
        Ok(SplitPush {
            promoted: promoted as u32,
        })
    }

    /// Promotes up to `max` private items regardless of hunger or batch
    /// state, clearing the hunger flag. Returns the number moved. Used by
    /// the wake path ([`SplitConfig::promote_on_wake`]) and the chaos
    /// `ForcePromote` site.
    pub fn force_promote(&self, max: usize) -> usize {
        if !self.cfg.enabled {
            return 0;
        }
        self.shared.hungry.store(0, Ordering::Relaxed);
        self.since.set(0);
        self.promote(max)
    }

    /// Moves up to `max` of the *oldest* private items into the public
    /// deque, preserving FIFO order for thieves. When the public deque is
    /// full (or a chaos-forced promotion failure fires), the in-flight
    /// item goes back to the private front and the batch stops early —
    /// promotion never drops or reorders a continuation.
    fn promote(&self, max: usize) -> usize {
        let mut moved = 0;
        // lint: bounded(max — each pass moves one item or breaks)
        while moved < max {
            let Some(word) = self.ring.pop_front() else {
                break;
            };
            #[cfg(feature = "chaos")]
            if crate::chaos::take_promotion_failure() {
                let restored = self.ring.push_front(word);
                debug_assert!(restored, "put-back into a slot just freed");
                break;
            }
            let item = T::from_word(nonzero(word));
            match self.inner.push(item) {
                Ok(()) => moved += 1,
                Err(Full(item)) => {
                    let restored = self.ring.push_front(item.into_word().get());
                    debug_assert!(restored, "put-back into a slot just freed");
                    break;
                }
            }
        }
        moved
    }

    /// Whether the private segment is in use ([`SplitConfig::enabled`]);
    /// when not, every push goes straight to the public deque.
    // lint: hot-path private
    // lint: wait-free
    #[inline]
    pub fn is_split(&self) -> bool {
        self.cfg.enabled
    }

    /// Items visible to thieves (the wrapped deque only).
    pub fn public_len(&self) -> usize {
        self.inner.len()
    }

    /// Items hidden in the private segment.
    pub fn private_len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the most recent successful [`pop`](WorkerOps::pop) was
    /// served by the private segment (no shared synchronization at all).
    pub fn last_pop_was_private(&self) -> bool {
        self.last_private.get()
    }

    /// Racy snapshot of the hunger flag (diagnostics/tests).
    pub fn hungry_flag(&self) -> bool {
        self.shared.hungry.load(Ordering::Relaxed) != 0
    }
}

/// Words in the ring were produced by [`Token::into_word`], hence nonzero.
#[inline(always)]
fn nonzero(word: u64) -> NonZeroU64 {
    NonZeroU64::new(word).expect("private ring holds token words, which are nonzero")
}

impl<T: Token, W: WorkerOps<T>> WorkerOps<T> for SplitWorker<W, T> {
    /// [`push_spawn`](SplitWorker::push_spawn) with the promotion count
    /// dropped (trait-generic callers).
    // lint: hot-path
    // lint: wait-free
    #[inline]
    fn push(&self, item: T) -> Result<(), Full<T>> {
        self.push_spawn(item).map(|_| ())
    }

    /// Pops the globally newest item: the private tail when non-empty
    /// (fence-free fast path), the wrapped deque's bottom otherwise.
    // lint: hot-path
    // lint: wait-free
    #[inline]
    fn pop(&self) -> Option<T> {
        if self.cfg.enabled {
            if let Some(word) = self.ring.pop_back() {
                self.last_private.set(true);
                return Some(T::from_word(nonzero(word)));
            }
        }
        self.last_private.set(false);
        self.inner.pop()
    }

    fn len(&self) -> usize {
        self.ring.len() + self.inner.len()
    }
}

/// Thief-side handle of a split deque: the wrapped flavor's stealer end
/// plus the hunger signal.
#[derive(Clone)]
pub struct SplitStealer<S> {
    inner: S,
    shared: Arc<SplitShared>,
}

impl<T: Token, S: StealerOps<T>> StealerOps<T> for SplitStealer<S> {
    /// Steals from the public deque. Observing it empty raises the hunger
    /// flag so the owner's next push promotes instead of letting the
    /// thief starve against a full private segment.
    // lint: hot-path
    // lint: wait-free
    #[inline]
    fn steal(&self) -> Steal<T> {
        match self.inner.steal() {
            Steal::Empty => {
                self.shared.hungry.store(1, Ordering::Relaxed);
                Steal::Empty
            }
            other => other,
        }
    }

    /// Thief-visible items only: the private segment is invisible here by
    /// design (the hunger signal covers it).
    fn len(&self) -> usize {
        self.inner.len()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::{ClDeque, TheDeque};

    type ClSplit = (
        SplitWorker<crate::ClWorker<usize>, usize>,
        SplitStealer<crate::ClStealer<usize>>,
    );

    fn cl_split(cfg: SplitConfig) -> ClSplit {
        let (w, s) = ClDeque::<usize>::new(64);
        SplitDeque::wrap(w, s, cfg, 64)
    }

    #[test]
    fn fast_path_stays_private_until_batch_boundary() {
        let cfg = SplitConfig {
            promote_batch: 4,
            ..SplitConfig::default()
        };
        let (w, s) = cl_split(cfg);
        for i in 1..=3 {
            assert_eq!(w.push_spawn(i).unwrap().promoted, 0);
        }
        assert_eq!(w.private_len(), 3);
        assert_eq!(w.public_len(), 0);
        assert_eq!(s.len(), 0, "nothing visible to thieves yet");
        // 4th push is the batch boundary: promote all but one.
        assert_eq!(w.push_spawn(4).unwrap().promoted, 3);
        assert_eq!(w.private_len(), 1);
        assert_eq!(w.public_len(), 3);
    }

    #[test]
    fn order_is_globally_fifo_for_thieves_lifo_for_owner() {
        let cfg = SplitConfig {
            promote_batch: 2,
            ..SplitConfig::default()
        };
        let (w, s) = cl_split(cfg);
        for i in 1..=5 {
            w.push_spawn(i).unwrap();
        }
        // Thieves drain oldest-first from the public deque.
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(s.steal(), Steal::Success(2));
        // Owner drains newest-first across both segments.
        let mut owner: Vec<usize> = core::iter::from_fn(|| w.pop()).collect();
        assert_eq!(owner.remove(0), 5, "private tail is globally newest");
        assert_eq!(owner, vec![4, 3]);
    }

    #[test]
    fn hunger_promotes_on_next_push() {
        let cfg = SplitConfig {
            promote_batch: 1024,
            ..SplitConfig::default()
        };
        let (w, s) = cl_split(cfg);
        w.push_spawn(1).unwrap();
        assert_eq!(s.steal(), Steal::Empty, "item still private");
        assert!(w.hungry_flag(), "empty observation raised hunger");
        // The very next push promotes everything, far from any boundary.
        let r = w.push_spawn(2).unwrap();
        assert_eq!(r.promoted, 2, "hungry promotion keeps nothing back");
        assert!(!w.hungry_flag());
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(s.steal(), Steal::Success(2));
    }

    #[test]
    fn pop_reports_private_vs_public_origin() {
        let cfg = SplitConfig {
            promote_batch: 2,
            ..SplitConfig::default()
        };
        let (w, _s) = cl_split(cfg);
        w.push_spawn(1).unwrap();
        w.push_spawn(2).unwrap(); // boundary: promotes item 1
        assert_eq!(w.pop(), Some(2));
        assert!(w.last_pop_was_private());
        assert_eq!(w.pop(), Some(1));
        assert!(!w.last_pop_was_private(), "drained from the public deque");
    }

    #[test]
    fn public_overflow_puts_item_back_and_preserves_order() {
        // THE deque with capacity 2: promotion hits Full quickly.
        let (w, s) = TheDeque::<usize>::new(2);
        let cfg = SplitConfig {
            promote_batch: 8,
            ..SplitConfig::default()
        };
        let (w, s) = SplitDeque::wrap(w, s, cfg, 8);
        for i in 1..=7 {
            w.push_spawn(i).unwrap();
        }
        assert!(
            w.force_promote(usize::MAX) <= 2,
            "public capacity caps the batch"
        );
        let total = w.private_len() + w.public_len();
        assert_eq!(total, 7, "overflow promotion dropped nothing");
        // Thieves still see the globally oldest first.
        assert_eq!(s.steal(), Steal::Success(1));
        // Everything drains exactly once across both ends.
        let mut got: Vec<usize> = core::iter::from_fn(|| w.pop()).collect();
        while let Steal::Success(v) = s.steal() {
            got.push(v);
        }
        // force_promote may interleave leftovers; compare as sets.
        got.sort_unstable();
        assert_eq!(got, vec![2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn private_ring_overflow_promotes_to_make_room() {
        let (w, s) = ClDeque::<usize>::new(8);
        let cfg = SplitConfig {
            promote_batch: 1 << 20, // no boundary promotion in this test
            ..SplitConfig::default()
        };
        let (w, _s) = SplitDeque::wrap(w, s, cfg, 2);
        w.push_spawn(1).unwrap();
        w.push_spawn(2).unwrap();
        // Ring (capacity 2) is full: the next push drains it publicly.
        let r = w.push_spawn(3).unwrap();
        assert!(r.promoted > 0, "overflow forced a promotion");
        assert_eq!(w.private_len() + w.public_len(), 3);
    }

    #[test]
    fn disabled_split_is_a_pass_through() {
        let (w, s) = cl_split(SplitConfig::disabled());
        for i in 1..=10 {
            assert_eq!(w.push_spawn(i).unwrap().promoted, 0);
        }
        assert_eq!(w.private_len(), 0);
        assert_eq!(w.public_len(), 10);
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(w.pop(), Some(10));
        assert!(!w.last_pop_was_private());
        assert_eq!(w.force_promote(usize::MAX), 0);
    }

    #[test]
    fn ring_indices_survive_wraparound() {
        let cfg = SplitConfig {
            promote_batch: 1 << 20,
            ..SplitConfig::default()
        };
        let (w, s) = ClDeque::<usize>::new(8);
        let (w, _s) = SplitDeque::wrap(w, s, cfg, 4);
        for round in 0..1000usize {
            let base = round * 3 + 1;
            w.push_spawn(base).unwrap();
            w.push_spawn(base + 1).unwrap();
            assert_eq!(w.pop(), Some(base + 1));
            assert_eq!(w.pop(), Some(base));
            assert_eq!(w.pop(), None);
        }
        assert_eq!(w.private_len(), 0);
    }

    #[cfg(feature = "chaos")]
    #[test]
    fn forced_promotion_failure_keeps_items_private() {
        let cfg = SplitConfig {
            promote_batch: 4,
            ..SplitConfig::default()
        };
        let (w, s) = cl_split(cfg);
        for i in 1..=3 {
            w.push_spawn(i).unwrap();
        }
        crate::chaos::force_promotion_failure();
        // Boundary push: the armed failure stops the batch before moving
        // anything; all four items stay private.
        assert_eq!(w.push_spawn(4).unwrap().promoted, 0);
        assert_eq!(w.private_len(), 4);
        assert_eq!(w.public_len(), 0);
        // The force is consumed: a manual promotion now succeeds.
        assert_eq!(w.force_promote(2), 2);
        assert_eq!(s.steal(), Steal::Success(1));
    }
}
