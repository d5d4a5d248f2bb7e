//! A bounded wait-free SPSC event ring.
//!
//! One producer (the owning worker) and one consumer (the report
//! collector). The producer never blocks and never spins: when the ring is
//! full the event is *dropped* and counted — observability must never
//! introduce a scheduling dependency into the runtime it observes.
//!
//! Publication protocol: the producer writes the slot's two words with
//! relaxed stores, then advances `published` with a release store. The
//! consumer loads `published` with acquire before reading slots, and
//! advances `consumed` with a release store after; the producer's acquire
//! load of `consumed` keeps it from overwriting unread slots. All slot
//! words are atomics, so even a misbehaving reader could not cause a data
//! race.

use core::sync::atomic::{AtomicU64, Ordering};

use crate::event::Event;

/// Bounded SPSC ring of [`Event`]s with a drop-newest overflow policy.
#[repr(align(128))]
pub struct EventRing {
    /// `2 * capacity` words: slot `i` occupies words `2i` (timestamp) and
    /// `2i + 1` (packed kind + arg).
    slots: Box<[AtomicU64]>,
    /// Power-of-two capacity in events.
    capacity: usize,
    /// Events ever published (monotonic; producer-owned).
    published: AtomicU64,
    /// Events ever consumed (monotonic; consumer-owned).
    consumed: AtomicU64,
    /// Events dropped because the ring was full.
    dropped: AtomicU64,
}

impl EventRing {
    /// A ring holding up to `capacity` events (rounded up to a power of
    /// two, minimum 2).
    pub fn new(capacity: usize) -> EventRing {
        let capacity = capacity.max(2).next_power_of_two();
        let slots = (0..capacity * 2).map(|_| AtomicU64::new(0)).collect();
        EventRing {
            slots,
            capacity,
            published: AtomicU64::new(0),
            consumed: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events dropped so far due to overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        let p = self.published.load(Ordering::Acquire);
        let c = self.consumed.load(Ordering::Acquire);
        (p - c) as usize
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Producer side: records `ev`, or drops it (returning `false`) when
    /// the ring is full. Wait-free; must only be called by the single
    /// producer.
    #[inline]
    pub fn push(&self, ev: Event) -> bool {
        let p = self.published.load(Ordering::Relaxed);
        let c = self.consumed.load(Ordering::Acquire);
        if p.wrapping_sub(c) >= self.capacity as u64 {
            // Producer-owned counter: a load + store is a plain pair of
            // moves, where `fetch_add` would be a locked RMW — the drop
            // path is the *steady state* of an overflowing ring and must
            // stay as cheap as the push path (`wait-free`, lint R6).
            let d = self.dropped.load(Ordering::Relaxed);
            self.dropped.store(d + 1, Ordering::Relaxed);
            return false;
        }
        let i = (p as usize & (self.capacity - 1)) * 2;
        // SAFETY: `capacity` is a power of two and `slots.len() == 2 *
        // capacity`, so `i + 1 <= 2 * capacity - 1` is always in bounds;
        // the checked indexing cost is real on this path (`wait-free`, R6).
        unsafe {
            self.slots
                .get_unchecked(i)
                .store(ev.ts_ns, Ordering::Relaxed);
            self.slots
                .get_unchecked(i + 1)
                .store(ev.pack_word(), Ordering::Relaxed);
        }
        self.published.store(p + 1, Ordering::Release);
        true
    }

    /// Consumer side: moves all buffered events into `out` (in publication
    /// order). Must only be called by the single consumer; safe to call
    /// while the producer is pushing.
    pub fn drain_into(&self, out: &mut Vec<Event>) {
        let p = self.published.load(Ordering::Acquire);
        let mut c = self.consumed.load(Ordering::Relaxed);
        out.reserve((p - c) as usize);
        while c < p {
            let i = (c as usize & (self.capacity - 1)) * 2;
            let ts = self.slots[i].load(Ordering::Relaxed);
            let packed = self.slots[i + 1].load(Ordering::Relaxed);
            // Unknown kinds cannot be produced by `push`; skip defensively.
            if let Some(ev) = Event::from_words(ts, packed) {
                out.push(ev);
            }
            c += 1;
        }
        self.consumed.store(c, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(ts: u64) -> Event {
        Event::new(ts, EventKind::Spawn, ts)
    }

    #[test]
    fn fifo_order() {
        let ring = EventRing::new(8);
        for i in 0..5 {
            assert!(ring.push(ev(i)));
        }
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert_eq!(out.len(), 5);
        for (i, e) in out.iter().enumerate() {
            assert_eq!(e.ts_ns, i as u64);
        }
        assert!(ring.is_empty());
    }

    #[test]
    fn wraps_across_drains() {
        let ring = EventRing::new(4);
        let mut out = Vec::new();
        let mut next = 0u64;
        for _ in 0..10 {
            for _ in 0..3 {
                assert!(ring.push(ev(next)));
                next += 1;
            }
            ring.drain_into(&mut out);
        }
        assert_eq!(out.len(), 30);
        for (i, e) in out.iter().enumerate() {
            assert_eq!(e.ts_ns, i as u64, "order survives wrap-around");
        }
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn overflow_drops_newest_and_counts() {
        let ring = EventRing::new(4);
        for i in 0..4 {
            assert!(ring.push(ev(i)));
        }
        // Full: these must be dropped, not overwrite old events.
        assert!(!ring.push(ev(100)));
        assert!(!ring.push(ev(101)));
        assert_eq!(ring.dropped(), 2);
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert_eq!(
            out.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        // Space freed: pushes succeed again.
        assert!(ring.push(ev(200)));
        assert_eq!(ring.dropped(), 2);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(EventRing::new(0).capacity(), 2);
        assert_eq!(EventRing::new(5).capacity(), 8);
        assert_eq!(EventRing::new(16).capacity(), 16);
    }

    #[test]
    fn concurrent_producer_consumer() {
        use std::sync::Arc;
        let ring = Arc::new(EventRing::new(64));
        let producer = {
            let ring = ring.clone();
            std::thread::spawn(move || {
                let mut pushed = 0u64;
                for i in 0..100_000u64 {
                    if ring.push(ev(i)) {
                        pushed += 1;
                    }
                }
                pushed
            })
        };
        let mut out = Vec::new();
        while !producer.is_finished() {
            ring.drain_into(&mut out);
        }
        let pushed = producer.join().unwrap();
        ring.drain_into(&mut out);
        assert_eq!(out.len() as u64, pushed);
        assert_eq!(pushed + ring.dropped(), 100_000);
        // Drained events are strictly increasing (no slot ever torn or
        // delivered twice).
        for w in out.windows(2) {
            assert!(w[0].ts_ns < w[1].ts_ns);
        }
    }
}
