//! Chase–Lev dynamic circular work-stealing deque.
//!
//! D. Chase and Y. Lev, *Dynamic circular work-stealing deque*, SPAA 2005,
//! with the C11 memory orderings of N. M. Lê, A. Pop, A. Cohen and
//! F. Zappa Nardelli, *Correct and efficient work-stealing for weak memory
//! models*, PPoPP 2013 (including the fix discovered by Norris & Demsky with
//! CDSChecker — the `bottom` store in `take` must be preceded by the
//! sequentially-consistent fence *before* reading `top`).
//!
//! The deque is based on 64-bit monotone counters that double as generation
//! counters and ring-buffer indices, so — unlike the ABP deque — space freed
//! by steals is immediately reusable (§II-D of the Nowa paper).
//!
//! Growth allocates a ring of twice the capacity and publishes it with a
//! release store. Retired buffers cannot be freed while concurrent thieves
//! may still read them, so they are parked in a retirement list owned by the
//! deque and reclaimed when the deque itself is dropped. Total retired memory
//! is bounded by twice the largest buffer (geometric series).

use core::cell::Cell;
use core::marker::PhantomData;
use core::num::NonZeroU64;
use std::sync::Arc;

use crate::sync::{fence, AtomicI64, AtomicPtr, AtomicU64, Ordering};

use crate::sync::Mutex;
use crate::{Full, Steal, StealerOps, Token, WorkerOps};

/// A ring buffer of atomic word slots, sized to a power of two.
struct Ring {
    mask: u64,
    slots: Box<[AtomicU64]>,
}

impl Ring {
    fn new(capacity: usize) -> Box<Ring> {
        let capacity = capacity.next_power_of_two().max(2);
        let slots = (0..capacity).map(|_| AtomicU64::new(0)).collect();
        Box::new(Ring {
            mask: capacity as u64 - 1,
            slots,
        })
    }

    #[inline]
    fn capacity(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn slot(&self, index: i64) -> &AtomicU64 {
        // The ring is indexed by the low bits of the monotone counter.
        &self.slots[(index as u64 & self.mask) as usize]
    }
}

struct Inner {
    /// Monotone steal counter; thieves advance it with CAS.
    top: AtomicI64,
    /// Monotone owner counter; only the owner writes it.
    bottom: AtomicI64,
    /// Current ring, swapped by the owner on growth.
    buffer: AtomicPtr<Ring>,
    /// Rings replaced by growth; freed when the deque drops.
    retired: Mutex<Vec<*mut Ring>>,
}

unsafe impl Send for Inner {}
unsafe impl Sync for Inner {}

impl Drop for Inner {
    fn drop(&mut self) {
        // Exclusive access: reclaim the live ring and every retired ring.
        // (A plain load, not `get_mut` — the loom twin has no `get_mut`.)
        let live = self.buffer.load(Ordering::Relaxed);
        unsafe { drop(Box::from_raw(live)) };
        for ring in self.retired.get_mut().drain(..) {
            unsafe { drop(Box::from_raw(ring)) };
        }
    }
}

/// Constructor namespace for the Chase–Lev deque.
///
/// See the [crate docs](crate) for the ownership discipline shared by all
/// deques in this crate.
pub struct ClDeque<T>(PhantomData<T>);

impl<T: Token> ClDeque<T> {
    /// Creates a deque with capacity for at least `capacity` items. The deque
    /// grows on demand, so the capacity is only the initial allocation.
    #[allow(clippy::new_ret_no_self)] // deliberately returns the handle pair
    pub fn new(capacity: usize) -> (ClWorker<T>, ClStealer<T>) {
        let inner = Arc::new(Inner {
            top: AtomicI64::new(0),
            bottom: AtomicI64::new(0),
            buffer: AtomicPtr::new(Box::into_raw(Ring::new(capacity))),
            retired: Mutex::new(Vec::new()),
        });
        (
            ClWorker {
                inner: inner.clone(),
                _not_sync: PhantomData,
                _items: PhantomData,
            },
            ClStealer {
                inner,
                _items: PhantomData,
            },
        )
    }
}

/// Owner-side handle of a [`ClDeque`]. `Send` but not `Sync`/`Clone`.
pub struct ClWorker<T> {
    inner: Arc<Inner>,
    _not_sync: PhantomData<Cell<()>>,
    _items: PhantomData<T>,
}

/// Thief-side handle of a [`ClDeque`].
pub struct ClStealer<T> {
    inner: Arc<Inner>,
    _items: PhantomData<T>,
}

impl<T> Clone for ClStealer<T> {
    fn clone(&self) -> Self {
        ClStealer {
            inner: self.inner.clone(),
            _items: PhantomData,
        }
    }
}

unsafe impl<T: Token> Send for ClWorker<T> {}
unsafe impl<T: Token> Send for ClStealer<T> {}
unsafe impl<T: Token> Sync for ClStealer<T> {}

impl<T> ClWorker<T> {
    /// Grows the ring to twice its size, copying the live range `[top, bottom)`.
    ///
    /// Only the owner calls this, between observing the full condition and
    /// the publishing store of `bottom`, so the live range is stable except
    /// for `top` advancing (which only shrinks the range we must copy).
    #[cold]
    fn grow(&self, old: &Ring, top: i64, bottom: i64) -> *mut Ring {
        let new = Ring::new(old.capacity() * 2);
        for i in top..bottom {
            let word = old.slot(i).load(Ordering::Relaxed);
            new.slot(i).store(word, Ordering::Relaxed);
        }
        let new_ptr = Box::into_raw(new);
        let old_ptr = self.inner.buffer.swap(new_ptr, Ordering::Release);
        self.inner.retired.lock().push(old_ptr);
        new_ptr
    }
}

impl<T: Token> WorkerOps<T> for ClWorker<T> {
    #[inline]
    // lint: wait-free
    fn push(&self, item: T) -> Result<(), Full<T>> {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed);
        let t = inner.top.load(Ordering::Acquire);
        let mut ring = unsafe { &*inner.buffer.load(Ordering::Relaxed) };
        if b - t >= ring.capacity() as i64 {
            ring = unsafe { &*self.grow(ring, t, b) };
        }
        ring.slot(b)
            .store(item.into_word().get(), Ordering::Relaxed);
        fence(Ordering::Release);
        inner.bottom.store(b + 1, Ordering::Relaxed);
        Ok(())
    }

    #[inline]
    // lint: wait-free
    fn pop(&self) -> Option<T> {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed) - 1;
        let ring = unsafe { &*inner.buffer.load(Ordering::Relaxed) };
        inner.bottom.store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = inner.top.load(Ordering::Relaxed);
        if t <= b {
            // Non-empty.
            let word = ring.slot(b).load(Ordering::Relaxed);
            if t == b {
                // Single element left: race with thieves for it.
                let won = inner
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                inner.bottom.store(b + 1, Ordering::Relaxed);
                if !won {
                    return None;
                }
            }
            let word = NonZeroU64::new(word).expect("CL slot in live range holds an item");
            Some(T::from_word(word))
        } else {
            // Empty: restore bottom.
            inner.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    fn len(&self) -> usize {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }
}

impl<T: Token> StealerOps<T> for ClStealer<T> {
    #[inline]
    // lint: wait-free
    fn steal(&self) -> Steal<T> {
        let inner = &*self.inner;
        let t = inner.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = inner.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        // Non-empty: read the element *before* the CAS claims it. The claim
        // validates the read — on CAS failure the word is discarded.
        let ring = unsafe { &*inner.buffer.load(Ordering::Acquire) };
        let word = ring.slot(t).load(Ordering::Relaxed);
        if inner
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            return Steal::Retry;
        }
        // A successful CAS proves `top` held `t` from our acquire load until
        // the claim, so the slot cannot have been overwritten in between (an
        // overwrite of index `t`'s slot requires `top > t` first) and the
        // ring we loaded after the acquire `bottom` read is recent enough to
        // contain index `t` (growth copies the live range before the
        // publishing `bottom` store). The word is therefore the pushed item.
        let word = NonZeroU64::new(word).expect("claimed CL slot holds an item");
        Steal::Success(T::from_word(word))
    }

    fn len(&self) -> usize {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_bottom_fifo_top() {
        let (w, s) = ClDeque::<usize>::new(4);
        for i in 0..4 {
            w.push(i).unwrap();
        }
        assert_eq!(s.steal(), Steal::Success(0));
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(w.pop(), Some(3));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
        assert!(s.steal().is_empty());
    }

    #[test]
    fn grows_past_initial_capacity() {
        let (w, s) = ClDeque::<usize>::new(2);
        for i in 0..1000 {
            w.push(i).unwrap();
        }
        assert_eq!(w.len(), 1000);
        for i in 0..500 {
            assert_eq!(s.steal(), Steal::Success(i));
        }
        for i in (500..1000).rev() {
            assert_eq!(w.pop(), Some(i));
        }
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn interleaved_reuse_of_freed_space() {
        // Unlike ABP, CL reuses space freed by steals: push/steal forever
        // within a tiny ring without growing.
        let (w, s) = ClDeque::<usize>::new(2);
        for round in 0..10_000 {
            w.push(round).unwrap();
            assert_eq!(s.steal(), Steal::Success(round));
        }
        // Capacity never had to exceed the initial 2.
        assert_eq!(
            unsafe { &*w.inner.buffer.load(Ordering::Relaxed) }.capacity(),
            2
        );
    }

    #[test]
    fn pop_empty_restores_bottom() {
        let (w, _s) = ClDeque::<usize>::new(4);
        assert_eq!(w.pop(), None);
        assert_eq!(w.pop(), None);
        w.push(9).unwrap();
        assert_eq!(w.pop(), Some(9));
    }

    #[test]
    fn single_element_owner_wins_without_contention() {
        let (w, s) = ClDeque::<usize>::new(4);
        w.push(1).unwrap();
        assert_eq!(w.pop(), Some(1));
        assert!(s.steal().is_empty());
    }

    #[test]
    fn stealer_len_tracks() {
        let (w, s) = ClDeque::<usize>::new(4);
        assert!(s.is_empty());
        w.push(1).unwrap();
        w.push(2).unwrap();
        assert_eq!(s.len(), 2);
    }
}
