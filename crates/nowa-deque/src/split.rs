//! Split private/public deque: the oldest continuation stays stealable
//! (DESIGN.md §6g).
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
//! (LIFO for the owner). Items cross from private to public under one
//! rule:
//!
//! > **After every successful push the public deque is non-empty.**
//!
//! After the private ring write the owner looks at its own public deque
//! (two `Relaxed` loads — `top` is written only by a successful steal, so
//! the line stays in the owner's cache while nobody steals). If it is
//! empty, the owner promotes the oldest private items: all but the newest
//! when it holds several, the single item when that is all it holds.
//! Otherwise the push stays private. So a linear spawn loop (the paper's
//! Fig. 4) publishes every continuation, while a recursion publishes only
//! along its all-continuation spine and keeps every other push/pop pair in
//! the ring. Thieves never signal: a failed steal writes nothing.
//!
//! The emptiness probe is advisory: promoted items become visible through
//! the public deque's own release/acquire protocol, and a probe that reads
//! a stale "non-empty" (a thief just took the last public item) only
//! defers publication to the next push (audited in DESIGN.md §7b). A
//! promotion that finds the public deque full puts the in-flight item back
//! at the private front — order intact, nothing dropped — so the
//! steal-conservation invariant (`spawns == fast_pops + steals +
//! own_takes`) survives overflow. The fast path itself — the private
//! ring's `push_back` / `pop_back` — contains no shared atomic at all,
//! which nowa-lint R6 enforces via the `// lint: wait-free private` marker.

use core::cell::Cell;
use core::marker::PhantomData;
use core::num::NonZeroU64;

use crate::{Full, Steal, StealerOps, Token, WorkerOps};

/// The split layer's one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitConfig {
    /// When `false`, the layer is a pass-through to the wrapped deque:
    /// every push goes straight to the public end (the pre-split
    /// behaviour; the `nosplit` arm of `benchmark/` measures against it).
    pub enabled: bool,
}

impl Default for SplitConfig {
    fn default() -> SplitConfig {
        SplitConfig { enabled: true }
    }
}

impl SplitConfig {
    /// The pass-through configuration (split layer off).
    pub fn disabled() -> SplitConfig {
        SplitConfig { enabled: false }
    }
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
    // lint: wait-free private
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
    // lint: wait-free private
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
        (
            SplitWorker {
                inner: worker,
                ring: PrivateRing::new(capacity),
                last_private: Cell::new(false),
                fail_next_promotion: Cell::new(false),
                cfg,
                _items: PhantomData,
            },
            SplitStealer { inner: stealer },
        )
    }
}

/// Owner-side handle of a split deque: the wrapped flavor's worker end
/// plus the private segment. `Send` but, like every worker handle, not
/// `Sync` (the `Cell`s see to that).
pub struct SplitWorker<W, T> {
    inner: W,
    ring: PrivateRing,
    /// Whether the most recent successful `pop` came from the private
    /// segment (feeds the `private_pops` statistic).
    last_private: Cell<bool>,
    /// Armed by [`fail_next_promotion`](Self::fail_next_promotion): the
    /// next promotion batch is refused as if the public deque were full.
    fail_next_promotion: Cell<bool>,
    cfg: SplitConfig,
    _items: PhantomData<T>,
}

impl<W: WorkerOps<T>, T: Token> SplitWorker<W, T> {
    /// Pushes a spawned continuation, reporting promotion side effects.
    ///
    /// The common case writes one private ring slot and probes the public
    /// deque's emptiness with two read-only `Relaxed` loads — zero shared
    /// stores, RMWs or fences. When the public deque is empty the owner
    /// publishes its oldest private items (all but the newest; the single
    /// item when that is all it holds), so a successful push always leaves
    /// something for thieves. `Err(Full)` means both segments are full —
    /// the caller runs the child inline, exactly as for an unsplit full
    /// deque.
    ///
    /// Inlined into the spawn path whole; both promotions are the
    /// out-of-line, `#[cold]` `publish` and `push_overflow`.
    // lint: wait-free
    #[inline(always)]
    pub fn push_spawn(&self, item: T) -> Result<SplitPush, Full<T>> {
        if !self.cfg.enabled {
            // The call graph resolves this to the wrapped deque's own
            // audited push, so no textual suppression is needed.
            return self.inner.push(item).map(|()| SplitPush { promoted: 0 });
        }
        if !self.ring.push_back(item.into_word().get()) {
            return self.push_overflow(item);
        }
        if self.inner.is_empty() {
            return Ok(self.publish());
        }
        Ok(SplitPush { promoted: 0 })
    }

    /// The push found the public deque empty: publish everything older
    /// than the item just pushed (about to be popped back), or the item
    /// itself if it is alone.
    // lint: wait-free
    #[cold]
    #[inline(never)]
    fn publish(&self) -> SplitPush {
        SplitPush {
            promoted: self.promote((self.ring.len() - 1).max(1)) as u32,
        }
    }

    /// The private ring is full: drain its older half into the public
    /// deque to make room, then push. If the public side is full too,
    /// report `Full`.
    // lint: wait-free
    #[cold]
    #[inline(never)]
    fn push_overflow(&self, item: T) -> Result<SplitPush, Full<T>> {
        let promoted = self.promote(self.ring.len() / 2);
        if promoted == 0 || !self.ring.push_back(item.into_word().get()) {
            return Err(Full(item));
        }
        Ok(SplitPush {
            promoted: promoted as u32,
        })
    }

    /// Promotes every private item whatever the public deque holds.
    /// Returns the number moved. Used by the runtime's chaos
    /// `ForcePromote` site to reach states the push rule alone rarely
    /// produces.
    pub fn force_promote(&self) -> usize {
        if !self.cfg.enabled {
            return 0;
        }
        self.promote(self.ring.len())
    }

    /// Makes the next promotion batch fail before it moves anything, as
    /// if the public deque were full: the put-back arm runs and the batch
    /// stops. Items are delayed, never lost. The other leg of the chaos
    /// `ForcePromote` site.
    pub fn fail_next_promotion(&self) {
        self.fail_next_promotion.set(true);
    }

    /// Moves up to `max` of the *oldest* private items into the public
    /// deque, preserving FIFO order for thieves. When the public deque is
    /// full (or [`fail_next_promotion`](Self::fail_next_promotion) armed a
    /// refusal), the in-flight item goes back to the private front and the
    /// batch stops early — promotion never drops or reorders a
    /// continuation.
    fn promote(&self, max: usize) -> usize {
        // Read once per batch, written only when armed: a refusal stops
        // the batch at its first item.
        let refuse = self.fail_next_promotion.get();
        if refuse {
            self.fail_next_promotion.set(false);
        }
        let mut moved = 0;
        // lint: bounded(max — each pass moves one item or breaks)
        while moved < max {
            let Some(word) = self.ring.pop_front() else {
                break;
            };
            let item = T::from_word(nonzero(word));
            let pushed = if refuse {
                Err(Full(item))
            } else {
                self.inner.push(item)
            };
            match pushed {
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
    // lint: wait-free private
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
    #[inline(always)]
    pub fn last_pop_was_private(&self) -> bool {
        self.last_private.get()
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
    // lint: wait-free
    #[inline]
    fn push(&self, item: T) -> Result<(), Full<T>> {
        self.push_spawn(item).map(|_| ())
    }

    /// Pops the globally newest item: the private tail when non-empty
    /// (fence-free fast path), the wrapped deque's bottom otherwise.
    /// Inlined into the spawn path whole.
    // lint: wait-free
    #[inline(always)]
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

/// Thief-side handle of a split deque: the wrapped flavor's stealer end.
/// Thieves are oblivious to the split — the newtype only keeps the
/// private segment out of their reach.
#[derive(Clone)]
pub struct SplitStealer<S> {
    inner: S,
}

impl<T: Token, S: StealerOps<T>> StealerOps<T> for SplitStealer<S> {
    /// Steals from the public deque.
    // lint: wait-free
    #[inline]
    fn steal(&self) -> Steal<T> {
        self.inner.steal()
    }

    /// Thief-visible items only: the private segment is invisible here by
    /// design (when this reads 0 the owner's next push publishes).
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
    fn push_onto_empty_public_deque_is_stealable_at_once() {
        let (w, s) = cl_split(SplitConfig::default());
        // No failed sweep beforehand: the push itself publishes.
        assert_eq!(w.push_spawn(1).unwrap().promoted, 1);
        assert_eq!((w.private_len(), w.public_len()), (0, 1));
        assert_eq!(s.len(), 1);
        assert_eq!(s.steal(), Steal::Success(1));
    }

    #[test]
    fn push_onto_non_empty_public_deque_stays_private() {
        let (w, s) = cl_split(SplitConfig::default());
        w.push_spawn(1).unwrap();
        for i in 2..=4 {
            assert_eq!(w.push_spawn(i).unwrap().promoted, 0);
        }
        assert_eq!((w.private_len(), w.public_len()), (3, 1));
        assert_eq!(s.len(), 1, "thieves see the oldest item only");
        assert_eq!(w.pop(), Some(4));
        assert!(w.last_pop_was_private());
    }

    #[test]
    fn push_after_the_public_item_was_stolen_republishes_the_oldest() {
        let (w, s) = cl_split(SplitConfig::default());
        for i in 1..=3 {
            w.push_spawn(i).unwrap();
        }
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(s.steal(), Steal::Empty, "2 and 3 are private");
        // The very next push publishes all but the newest.
        assert_eq!(w.push_spawn(4).unwrap().promoted, 2);
        assert_eq!((w.private_len(), w.public_len()), (1, 2));
        assert_eq!(s.steal(), Steal::Success(2));
    }

    #[test]
    fn order_is_globally_fifo_for_thieves_lifo_for_owner() {
        let (w, s) = cl_split(SplitConfig::default());
        for i in 1..=5 {
            w.push_spawn(i).unwrap();
        }
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(w.push_spawn(6).unwrap().promoted, 4, "republishes 2..=5");
        // Thieves drain oldest-first from the public deque.
        assert_eq!(s.steal(), Steal::Success(2));
        assert_eq!(s.steal(), Steal::Success(3));
        // Owner drains newest-first across both segments.
        let owner: Vec<usize> = core::iter::from_fn(|| w.pop()).collect();
        assert_eq!(owner, vec![6, 5, 4], "private tail is globally newest");
    }

    #[test]
    fn pop_reports_private_vs_public_origin() {
        let (w, _s) = cl_split(SplitConfig::default());
        w.push_spawn(1).unwrap(); // public
        w.push_spawn(2).unwrap(); // private
        assert_eq!(w.pop(), Some(2));
        assert!(w.last_pop_was_private());
        assert_eq!(w.pop(), Some(1));
        assert!(!w.last_pop_was_private(), "drained from the public deque");
    }

    #[test]
    fn public_overflow_puts_item_back_and_preserves_order() {
        // THE deque with capacity 2: promotion hits Full quickly.
        let (w, s) = TheDeque::<usize>::new(2);
        let (w, s) = SplitDeque::wrap(w, s, SplitConfig::default(), 8);
        for i in 1..=7 {
            w.push_spawn(i).unwrap();
        }
        assert_eq!(w.force_promote(), 1, "public capacity caps the batch");
        assert_eq!((w.private_len(), w.public_len()), (5, 2));
        // Thieves still see the globally oldest first.
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(s.steal(), Steal::Success(2));
        // The put-back kept the private order: everything drains exactly
        // once, newest first.
        let owner: Vec<usize> = core::iter::from_fn(|| w.pop()).collect();
        assert_eq!(owner, vec![7, 6, 5, 4, 3]);
    }

    #[test]
    fn both_segments_full_reports_full_and_loses_nothing() {
        let (w, s) = TheDeque::<usize>::new(2);
        let (w, s) = SplitDeque::wrap(w, s, SplitConfig::default(), 2);
        for i in 1..=3 {
            w.push_spawn(i).unwrap(); // 1 public, 2 and 3 private
        }
        // Ring full → promotes 2 (public now full too) → room for 4.
        assert_eq!(w.push_spawn(4).unwrap().promoted, 1);
        assert_eq!(w.push_spawn(5), Err(Full(5)));
        assert_eq!(s.steal(), Steal::Success(1));
        let owner: Vec<usize> = core::iter::from_fn(|| w.pop()).collect();
        assert_eq!(owner, vec![4, 3, 2]);
    }

    #[test]
    fn private_ring_overflow_promotes_to_make_room() {
        let (w, s) = ClDeque::<usize>::new(8);
        let (w, s) = SplitDeque::wrap(w, s, SplitConfig::default(), 4);
        for i in 1..=5 {
            w.push_spawn(i).unwrap(); // 1 public, 2..=5 fill the ring
        }
        // Ring (capacity 4) is full although the public deque is not
        // empty: the next push drains the older half of the ring.
        assert_eq!(w.push_spawn(6).unwrap().promoted, 2);
        assert_eq!((w.private_len(), w.public_len()), (3, 3));
        assert_eq!(s.steal(), Steal::Success(1));
        let owner: Vec<usize> = core::iter::from_fn(|| w.pop()).collect();
        assert_eq!(owner, vec![6, 5, 4, 3, 2]);
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
        assert_eq!(w.force_promote(), 0);
    }

    #[test]
    fn ring_indices_survive_wraparound() {
        let (w, s) = ClDeque::<usize>::new(8);
        let (w, _s) = SplitDeque::wrap(w, s, SplitConfig::default(), 4);
        for round in 0..1000usize {
            let base = round * 3 + 1;
            // base goes public through the ring (push_back + pop_front),
            // the other two stay in it.
            for i in 0..3 {
                w.push_spawn(base + i).unwrap();
            }
            assert_eq!(w.private_len(), 2);
            for i in (0..3).rev() {
                assert_eq!(w.pop(), Some(base + i));
            }
            assert_eq!(w.pop(), None);
        }
        assert_eq!(w.private_len(), 0);
    }

    #[test]
    fn forced_promotion_failure_defers_publication_to_the_next_push() {
        let (w, s) = cl_split(SplitConfig::default());
        w.fail_next_promotion();
        // The armed failure stops the promotion before it moves anything:
        // the item goes back to the private front.
        assert_eq!(w.push_spawn(1).unwrap().promoted, 0);
        assert_eq!((w.private_len(), w.public_len()), (1, 0));
        // The force is consumed: the next push finds the public deque
        // still empty and publishes the older item.
        assert_eq!(w.push_spawn(2).unwrap().promoted, 1);
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(w.pop(), Some(2));
    }
}
