//! The per-worker event ring: bounded, overwrite-oldest, wait-free.
//!
//! One producer (the owning worker) writes; any thread may read. The
//! producer never reads reader state: a push is two relaxed slot stores
//! plus a release publish of a monotonic counter, so it costs the same
//! whether or not anyone drains — observability must never introduce a
//! scheduling dependency into the runtime it observes. A full ring
//! overwrites its oldest event, so the ring always holds the newest
//! moments of the worker's history (the flight recorder needs no more).
//!
//! Two ways to read it:
//!
//! * [`EventRing::snapshot`] takes nothing: the newest events held, from
//!   any thread, as often as wanted (flight dumps and post-mortems);
//! * [`EventRing::drain_into`] is the one consumer (the trace report):
//!   every event published since its last drain, in order, except those
//!   the producer overwrote first, which it counts as dropped.
//!
//! Both read the slots and then re-read the publish counter; a slot the
//! producer may have rewritten in between is discarded, never returned
//! torn. With `n` published the producer may already be rewriting the
//! slot of event `n − capacity`, so a ring returns at most its newest
//! `capacity − 1` events. The re-read is exact where a slot store cannot
//! become visible before the publish that precedes it in program order,
//! as on x86-64; elsewhere a rare torn event can slip through, which a
//! diagnostic stream tolerates and the scheduler never reads.

use core::sync::atomic::{fence, AtomicU64, Ordering};

use crate::event::Event;

/// Bounded overwrite-oldest ring of [`Event`]s: one producer, a
/// non-destructive [`snapshot`](EventRing::snapshot) for any thread, and a
/// consuming [`drain_into`](EventRing::drain_into) for one consumer.
#[repr(align(128))]
pub struct EventRing {
    /// `2 * capacity` words: slot `i` occupies words `2i` (timestamp) and
    /// `2i + 1` (packed kind + arg).
    slots: Box<[AtomicU64]>,
    /// Power-of-two capacity in events.
    capacity: usize,
    /// Events ever pushed (monotonic; producer-owned). Event `n` lives in
    /// slot `n % capacity` until event `n + capacity` overwrites it.
    published: AtomicU64,
    /// Events the consumer has drained or counted dropped (monotonic;
    /// consumer-owned).
    consumed: AtomicU64,
    /// Events overwritten before a drain reached them (consumer-owned).
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

    /// Events ever pushed, held or not.
    pub fn recorded(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Events lost to overwriting before a drain reached them: those past
    /// drains counted, plus those the producer has lapped since the last
    /// one. Consumes nothing.
    pub fn dropped(&self) -> u64 {
        // `consumed` first: it never passes `published`, which only grows
        // (and its Acquire pairs with the drain's Release, so `dropped`
        // is at least as new as the `consumed` it goes with).
        let c = self.consumed.load(Ordering::Acquire);
        let d = self.dropped.load(Ordering::Relaxed);
        let p = self.published.load(Ordering::Acquire);
        d + p.saturating_sub(c + self.capacity as u64 - 1)
    }

    /// Events the next drain would deliver if the producer stopped now.
    /// Consumes nothing, so any thread may ask while the producer runs.
    pub fn len(&self) -> usize {
        let c = self.consumed.load(Ordering::Acquire);
        let p = self.published.load(Ordering::Acquire);
        (p - c).min(self.capacity as u64 - 1) as usize
    }

    /// True when a drain now would deliver nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Producer side: records `ev`, overwriting the oldest event when the
    /// ring is full. Wait-free; must only be called by the single
    /// producer.
    // lint: wait-free
    #[inline]
    pub fn push(&self, ev: Event) {
        let n = self.published.load(Ordering::Relaxed);
        let i = (n as usize & (self.capacity - 1)) * 2;
        // SAFETY: `capacity` is a power of two and `slots.len() == 2 *
        // capacity`, so `i + 1 <= 2 * capacity - 1` is always in bounds;
        // the checked indexing cost is real on this path.
        unsafe {
            self.slots
                .get_unchecked(i)
                .store(ev.ts_ns, Ordering::Relaxed);
            self.slots
                .get_unchecked(i + 1)
                .store(ev.pack_word(), Ordering::Relaxed);
        }
        // Release: a reader that sees `n + 1` sees the slot words.
        self.published.store(n + 1, Ordering::Release);
    }

    /// The newest events held, oldest first (at most `capacity − 1`).
    /// Takes nothing: safe from any thread, any number of times, while
    /// the producer keeps pushing and the consumer keeps draining.
    pub fn snapshot(&self) -> Vec<Event> {
        self.read_from(0).2
    }

    /// Consumer side: appends every event published since the last drain
    /// to `out`, in publication order, and counts those the producer
    /// overwrote first (before or during this read) as dropped. Must only
    /// be called by the single consumer; safe while the producer pushes.
    pub fn drain_into(&self, out: &mut Vec<Event>) {
        let from = self.consumed.load(Ordering::Relaxed);
        let (end, kept, events) = self.read_from(from);
        out.extend(events);
        let d = self.dropped.load(Ordering::Relaxed);
        self.dropped.store(d + (kept - from), Ordering::Relaxed);
        self.consumed.store(end, Ordering::Release);
    }

    /// Reads the intact events numbered `from` on. Returns the publish
    /// count `end` the read stopped at, the first event number `kept` it
    /// returns, and the events `kept..end`; those in `from..kept` were
    /// overwritten, or may have been while they were read.
    fn read_from(&self, from: u64) -> (u64, u64, Vec<Event>) {
        let cap = self.capacity as u64;
        let end = self.published.load(Ordering::Acquire);
        let start = from.max(end.saturating_sub(cap));
        let raw: Vec<(u64, u64)> = (start..end)
            .map(|n| {
                let i = (n as usize & (self.capacity - 1)) * 2;
                (
                    self.slots[i].load(Ordering::Relaxed),
                    self.slots[i + 1].load(Ordering::Relaxed),
                )
            })
            .collect();
        // The slot reads above happen before the counter re-read. With
        // `now` published, the producer may be mid-write of event `now`,
        // whose slot held event `now − cap`: everything from there back
        // is suspect.
        fence(Ordering::Acquire);
        let now = self.published.load(Ordering::Relaxed);
        let kept = start.max((now + 1).saturating_sub(cap)).min(end);
        let events = raw[(kept - start) as usize..]
            .iter()
            // `push` writes only known kinds; a kept slot is never torn.
            .filter_map(|&(ts, packed)| Event::from_words(ts, packed))
            .collect();
        (end, kept, events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(i: u64) -> Event {
        Event::new(i, EventKind::Spawn, i)
    }

    fn ts(events: &[Event]) -> Vec<u64> {
        events.iter().map(|e| e.ts_ns).collect()
    }

    #[test]
    fn fifo_order_across_drains() {
        let ring = EventRing::new(4);
        let mut out = Vec::new();
        let mut next = 0u64;
        for _ in 0..10 {
            for _ in 0..3 {
                ring.push(ev(next));
                next += 1;
            }
            assert_eq!(ring.len(), 3);
            ring.drain_into(&mut out);
            assert!(ring.is_empty());
        }
        assert_eq!(ts(&out), (0..30).collect::<Vec<_>>(), "order survives wrap");
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.recorded(), 30);
    }

    /// Overflow keeps the newest events and counts the overwritten ones —
    /// before the drain that finds them gone, and after it.
    #[test]
    fn overflow_overwrites_the_oldest_and_counts_it() {
        let ring = EventRing::new(8);
        for i in 0..20 {
            ring.push(ev(i));
        }
        // The oldest held slot might be mid-rewrite: 7 of 8 are returned.
        assert_eq!(ring.len(), 7);
        assert_eq!(ring.dropped(), 13, "counted before any drain");
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert_eq!(ts(&out), (13..20).collect::<Vec<_>>());
        assert_eq!(ring.dropped(), 13, "and the same after it");
        // The snapshot still shows the history the drain took.
        assert_eq!(ts(&ring.snapshot()), (13..20).collect::<Vec<_>>());
        ring.push(ev(20));
        out.clear();
        ring.drain_into(&mut out);
        assert_eq!(ts(&out), [20]);
        assert_eq!(out.len() as u64 + 7 + ring.dropped(), ring.recorded());
    }

    #[test]
    fn snapshot_consumes_nothing() {
        let ring = EventRing::new(16);
        assert!(ring.snapshot().is_empty());
        for i in 0..5 {
            ring.push(ev(i));
        }
        assert_eq!(ring.snapshot(), ring.snapshot());
        assert_eq!(ring.len(), 5);
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert_eq!(out, ring.snapshot(), "a drain leaves the tail readable");
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(EventRing::new(0).capacity(), 2);
        assert_eq!(EventRing::new(5).capacity(), 8);
        assert_eq!(EventRing::new(16).capacity(), 16);
    }

    /// A producer lapping a small ring races a drainer that also
    /// snapshots: no event comes back torn (`ts` always matches `arg`),
    /// the drained stream is strictly increasing (in order, none twice),
    /// and every event is either drained or counted dropped.
    #[test]
    fn lapping_producer_races_drain_and_snapshot() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        const PRODUCED: u64 = 200_000;
        let ring = Arc::new(EventRing::new(16));
        let started = Arc::new(AtomicBool::new(false));
        let producer = {
            let (ring, started) = (ring.clone(), started.clone());
            std::thread::spawn(move || {
                started.store(true, Ordering::Relaxed);
                for i in 1..=PRODUCED {
                    ring.push(Event::new(i, EventKind::Wake, i));
                }
            })
        };
        let intact = |e: &Event| e.kind == EventKind::Wake && e.ts_ns == e.arg;
        let (mut drained, mut snapshots) = (Vec::new(), 0u64);
        while !started.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
        while !producer.is_finished() {
            ring.drain_into(&mut drained);
            let snap = ring.snapshot();
            assert!(snap.iter().all(intact), "torn event in a snapshot");
            assert!(snap.windows(2).all(|w| w[0].ts_ns < w[1].ts_ns));
            snapshots += 1;
        }
        producer.join().unwrap();
        ring.drain_into(&mut drained);
        assert!(drained.iter().all(intact), "torn event in a drain");
        assert!(
            drained.windows(2).all(|w| w[0].ts_ns < w[1].ts_ns),
            "drained out of order or twice"
        );
        assert_eq!(ring.recorded(), PRODUCED);
        assert_eq!(drained.len() as u64 + ring.dropped(), PRODUCED);
        assert!(snapshots > 0);
    }
}
