//! The Cilk-5 THE (Tail, Head, Exception) work-stealing deque.
//!
//! M. Frigo, C. E. Leiserson, K. H. Randall, *The implementation of the
//! Cilk-5 multithreaded language*, PLDI 1998. This is the queue used by
//! Fibril and (in spirit) by Cilk Plus; the Nowa paper's §V-C ablation swaps
//! it against the Chase–Lev queue.
//!
//! Protocol summary (Dijkstra-style mutual exclusion between one owner and
//! the lock-holding thief):
//!
//! * Items live at indices `[head, tail)` of a bounded buffer.
//! * `push` (owner): write slot at `tail`, then advance `tail` (release).
//! * `pop` (owner): optimistically decrement `tail`, fence, read `head`; on
//!   conflict (`head > tail`) retreat, take the lock, and retry once under
//!   the lock. The lock is *elided* whenever the ends do not conflict.
//! * `steal` (thief): always takes the lock (steals on the same deque are
//!   serialized — this is the partially-locked aspect that limits
//!   scalability at high thread counts), optimistically increments `head`,
//!   fences, checks against `tail`, retreats on conflict.
//!
//! When the deque is observed empty under the lock, both indices are reset
//! to zero so the bounded buffer can be reused indefinitely.

use core::cell::Cell;
use core::marker::PhantomData;
use core::num::NonZeroU64;
use std::sync::Arc;

use crate::sync::{fence, AtomicI64, AtomicU64, Ordering};

use crate::sync::Mutex;
use crate::{Full, Steal, StealerOps, Token, WorkerOps};

struct Inner {
    /// Thief index (the paper's *H*). Only modified under `lock`.
    head: AtomicI64,
    /// Owner index (the paper's *T*).
    tail: AtomicI64,
    /// Serializes thieves against each other and against the conflicting
    /// owner pop.
    lock: Mutex<()>,
    slots: Box<[AtomicU64]>,
}

impl Inner {
    #[inline]
    fn slot(&self, index: i64) -> &AtomicU64 {
        &self.slots[index as usize]
    }
}

/// Constructor namespace for the THE deque.
pub struct TheDeque<T>(PhantomData<T>);

impl<T: Token> TheDeque<T> {
    /// Creates a bounded THE deque holding at most `capacity` items.
    #[allow(clippy::new_ret_no_self)] // deliberately returns the handle pair
    pub fn new(capacity: usize) -> (TheWorker<T>, TheStealer<T>) {
        let capacity = capacity.max(2);
        let inner = Arc::new(Inner {
            head: AtomicI64::new(0),
            tail: AtomicI64::new(0),
            lock: Mutex::new(()),
            slots: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
        });
        (
            TheWorker {
                inner: inner.clone(),
                _not_sync: PhantomData,
                _items: PhantomData,
            },
            TheStealer {
                inner,
                _items: PhantomData,
            },
        )
    }
}

/// Owner-side handle of a [`TheDeque`].
pub struct TheWorker<T> {
    inner: Arc<Inner>,
    _not_sync: PhantomData<Cell<()>>,
    _items: PhantomData<T>,
}

/// Thief-side handle of a [`TheDeque`].
pub struct TheStealer<T> {
    inner: Arc<Inner>,
    _items: PhantomData<T>,
}

impl<T> Clone for TheStealer<T> {
    fn clone(&self) -> Self {
        TheStealer {
            inner: self.inner.clone(),
            _items: PhantomData,
        }
    }
}

unsafe impl<T: Token> Send for TheWorker<T> {}
unsafe impl<T: Token> Send for TheStealer<T> {}
unsafe impl<T: Token> Sync for TheStealer<T> {}

impl<T: Token> WorkerOps<T> for TheWorker<T> {
    #[inline]
    // lint: wait-free
    fn push(&self, item: T) -> Result<(), Full<T>> {
        let inner = &*self.inner;
        let t = inner.tail.load(Ordering::Relaxed);
        if t as usize >= inner.slots.len() {
            // The buffer has run off its end. Compact under the lock by
            // resetting indices if the deque drained, otherwise report Full.
            let _guard = inner.lock.lock();
            let h = inner.head.load(Ordering::Relaxed);
            if h == t {
                inner.head.store(0, Ordering::Relaxed);
                inner.tail.store(0, Ordering::Relaxed);
            } else if h > 0 {
                // Slide the live range [h, t) down to index 0.
                for (dst, src) in (h..t).enumerate() {
                    let word = inner.slot(src).load(Ordering::Relaxed);
                    inner.slots[dst].store(word, Ordering::Relaxed);
                }
                inner.head.store(0, Ordering::Relaxed);
                inner.tail.store(t - h, Ordering::Relaxed);
            } else {
                return Err(Full(item));
            }
            drop(_guard);
            return self.push(item);
        }
        inner
            .slot(t)
            .store(item.into_word().get(), Ordering::Relaxed);
        inner.tail.store(t + 1, Ordering::Release);
        Ok(())
    }

    #[inline]
    // lint: wait-free
    fn pop(&self) -> Option<T> {
        let inner = &*self.inner;
        // Optimistic Dijkstra-style retreat protocol.
        let t = inner.tail.load(Ordering::Relaxed) - 1;
        inner.tail.store(t, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let h = inner.head.load(Ordering::Relaxed);
        if h > t {
            // Conflict: retreat and arbitrate under the lock.
            inner.tail.store(t + 1, Ordering::Relaxed);
            let _guard = inner.lock.lock();
            let h = inner.head.load(Ordering::Relaxed);
            if h > t {
                // The thief won the element (or the deque is empty).
                // Reset the drained deque for buffer reuse.
                inner.head.store(0, Ordering::Relaxed);
                inner.tail.store(0, Ordering::Relaxed);
                return None;
            }
            inner.tail.store(t, Ordering::Relaxed);
        }
        let word = inner.slot(t).load(Ordering::Relaxed);
        let word = NonZeroU64::new(word).expect("THE slot in live range holds an item");
        Some(T::from_word(word))
    }

    fn len(&self) -> usize {
        let t = self.inner.tail.load(Ordering::Relaxed);
        let h = self.inner.head.load(Ordering::Relaxed);
        (t - h).max(0) as usize
    }
}

impl<T: Token> StealerOps<T> for TheStealer<T> {
    #[inline]
    // lint: wait-free
    fn steal(&self) -> Steal<T> {
        let inner = &*self.inner;
        // Cheap unsynchronized emptiness probe before paying for the lock.
        // Relaxed on both sides: the probe only gates the lock acquisition —
        // a stale miss is a legitimate Empty (the steal linearizes at the
        // locked re-read below, which carries the Acquire that pairs with
        // push's Release tail store). Verified by the loom models in
        // tests/loom.rs (`the_single_item_owner_thief_race`).
        if inner.head.load(Ordering::Relaxed) >= inner.tail.load(Ordering::Relaxed) {
            return Steal::Empty;
        }
        let _guard = inner.lock.lock();
        let h = inner.head.load(Ordering::Relaxed);
        inner.head.store(h + 1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = inner.tail.load(Ordering::Acquire);
        if h + 1 > t {
            // Conflict with the owner: retreat.
            inner.head.store(h, Ordering::Relaxed);
            return Steal::Empty;
        }
        let word = inner.slot(h).load(Ordering::Relaxed);
        let word = NonZeroU64::new(word).expect("THE slot in live range holds an item");
        Steal::Success(T::from_word(word))
    }

    fn len(&self) -> usize {
        let t = self.inner.tail.load(Ordering::Relaxed);
        let h = self.inner.head.load(Ordering::Relaxed);
        (t - h).max(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_bottom_fifo_top() {
        let (w, s) = TheDeque::<usize>::new(8);
        for i in 0..4 {
            w.push(i).unwrap();
        }
        assert_eq!(s.steal(), Steal::Success(0));
        assert_eq!(w.pop(), Some(3));
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
        assert!(s.steal().is_empty());
    }

    #[test]
    fn reset_on_empty_allows_reuse() {
        let (w, s) = TheDeque::<usize>::new(4);
        // Far more operations than the capacity — relies on the drain reset.
        for round in 0..1000 {
            w.push(round).unwrap();
            assert_eq!(w.pop(), Some(round));
            assert_eq!(w.pop(), None); // triggers reset
        }
        for round in 0..1000 {
            w.push(round).unwrap();
            assert_eq!(s.steal(), Steal::Success(round));
            assert!(s.steal().is_empty()); // steals do not reset; pop path does
            assert_eq!(w.pop(), None);
        }
    }

    #[test]
    fn compaction_slides_live_range() {
        let (w, s) = TheDeque::<usize>::new(4);
        w.push(0).unwrap();
        w.push(1).unwrap();
        w.push(2).unwrap();
        w.push(3).unwrap();
        assert_eq!(s.steal(), Steal::Success(0));
        assert_eq!(s.steal(), Steal::Success(1));
        // tail == capacity but head == 2: push must compact, not fail.
        w.push(4).unwrap();
        w.push(5).unwrap();
        assert_eq!(w.pop(), Some(5));
        assert_eq!(w.pop(), Some(4));
        assert_eq!(w.pop(), Some(3));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn full_when_live_range_fills_buffer() {
        let (w, _s) = TheDeque::<usize>::new(2);
        w.push(0).unwrap();
        w.push(1).unwrap();
        assert_eq!(w.push(2), Err(Full(2)));
    }

    #[test]
    fn len_reports_live_range() {
        let (w, s) = TheDeque::<usize>::new(8);
        assert!(w.is_empty());
        w.push(1).unwrap();
        w.push(2).unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(s.len(), 2);
        let _ = s.steal();
        assert_eq!(w.len(), 1);
    }
}
