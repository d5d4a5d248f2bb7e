//! The flight recorder: a bounded, overwrite-oldest event ring.
//!
//! Unlike [`crate::EventRing`] (drop-newest, drained by an exporter), a
//! [`FlightRing`] keeps the *most recent* events and needs no consumer: it
//! can stay on for the lifetime of a production process at a fixed memory
//! cost, holding the last moments of scheduler history for post-mortem
//! dumps. The crash/stall machinery (watchdog stall reports, child-panic
//! propagation, the guard-page SIGSEGV hook) snapshots it when something
//! goes wrong.
//!
//! The producer is the owning worker and is wait-free: record is two
//! relaxed stores plus a release publish, no branches on fullness.
//! Snapshots are taken from other threads and are best-effort: a slot
//! that may have been overwritten mid-read is detected by re-checking the
//! publish counter and discarded, so a torn event is never returned.
//! (Snapshotting allocates, so the guard-page crash hook — which runs in
//! a signal handler — accepts that risk knowingly: the process is already
//! dying on a fault, and the dump is best-effort diagnostics.)

use core::sync::atomic::{AtomicU64, Ordering};

use crate::clock::now_ns;
use crate::event::{Event, EventKind};

/// A bounded overwrite-oldest ring of [`Event`]s.
///
/// Single producer (the owning worker); any thread may snapshot.
pub struct FlightRing {
    /// `2 * capacity` words: `[ts, packed]` per slot.
    slots: Box<[AtomicU64]>,
    capacity: usize,
    /// Monotonic count of events ever recorded. Slot `i` of event `n` is
    /// `n % capacity`; publication order is the counter order.
    written: AtomicU64,
}

impl FlightRing {
    /// A ring holding the last `capacity` events (rounded up to a power of
    /// two, minimum 8).
    pub fn new(capacity: usize) -> FlightRing {
        let capacity = capacity.max(8).next_power_of_two();
        let _ = now_ns(); // pin the trace epoch no later than construction
        let slots = (0..capacity * 2).map(|_| AtomicU64::new(0)).collect();
        FlightRing {
            slots,
            capacity,
            written: AtomicU64::new(0),
        }
    }

    /// The ring's capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events ever recorded (not just currently held).
    pub fn recorded(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// Records an event, overwriting the oldest if full. Wait-free; only
    /// the owning worker calls this.
    // lint: wait-free
    #[inline]
    pub fn record(&self, ev: Event) {
        let n = self.written.load(Ordering::Relaxed);
        let i = (n as usize & (self.capacity - 1)) * 2;
        self.slots[i].store(ev.ts_ns, Ordering::Relaxed);
        self.slots[i + 1].store(ev.pack_word(), Ordering::Relaxed);
        // Release-publish so a snapshot that observes counter n+1 also
        // observes the slot words (modulo the overwrite race it re-checks).
        self.written.store(n + 1, Ordering::Release);
    }

    /// Records an event of `kind` stamped now.
    // lint: wait-free
    #[inline]
    pub fn record_now(&self, kind: EventKind, arg: u64) {
        self.record(Event::new(now_ns(), kind, arg));
    }

    /// Best-effort snapshot of the currently-held events, oldest first.
    ///
    /// Safe to call from any thread while the producer keeps writing:
    /// slots that may have been overwritten during the read (detected by
    /// re-reading the publish counter) are discarded, so a torn event is
    /// never returned — at worst the snapshot is a few events shorter
    /// than the capacity.
    pub fn snapshot(&self) -> Vec<Event> {
        let end = self.written.load(Ordering::Acquire);
        let start = end.saturating_sub(self.capacity as u64);
        let mut raw = Vec::with_capacity((end - start) as usize);
        for n in start..end {
            let i = (n as usize & (self.capacity - 1)) * 2;
            let ts = self.slots[i].load(Ordering::Relaxed);
            let packed = self.slots[i + 1].load(Ordering::Relaxed);
            raw.push((n, ts, packed));
        }
        // Anything the producer may have been overwriting while we read is
        // suspect. The counter increments *after* the slot write, so with
        // `end2` published the producer can be mid-write of event `end2`,
        // whose slot holds event `end2 − capacity`: discard that one too.
        let end2 = self.written.load(Ordering::Acquire);
        let safe_start = end2.saturating_sub(self.capacity as u64 - 1);
        raw.iter()
            .filter(|(n, _, _)| *n >= safe_start)
            .filter_map(|(_, ts, packed)| Event::from_words(*ts, *packed))
            .collect()
    }
}

/// Formats a post-mortem dump from per-worker flight rings: the retained
/// events of all workers merged by timestamp, one line per event, oldest
/// first. Returns a line count of zero ("flight recorder: no events")
/// when nothing was recorded.
pub fn dump(rings: &[FlightRing]) -> String {
    use std::fmt::Write as _;
    let mut merged: Vec<(u64, usize, Event)> = Vec::new();
    for (w, ring) in rings.iter().enumerate() {
        for ev in ring.snapshot() {
            merged.push((ev.ts_ns, w, ev));
        }
    }
    merged.sort_by_key(|(ts, w, _)| (*ts, *w));
    if merged.is_empty() {
        return "flight recorder: no events\n".to_string();
    }
    let recorded: u64 = rings.iter().map(|r| r.recorded()).sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flight recorder: last {} of {} events ({} workers)",
        merged.len(),
        recorded,
        rings.len()
    );
    for (ts, w, ev) in &merged {
        let arg = match ev.kind {
            EventKind::Steal => format!(
                "victim={} frame={:#x}",
                crate::event::steal_victim(ev.arg),
                crate::event::steal_frame(ev.arg)
            ),
            EventKind::Idle | EventKind::Unpark => format!("dur={}ns", ev.arg),
            _ => format!("arg={:#x}", ev.arg),
        };
        let _ = writeln!(out, "  [{ts:>12}ns] w{w} {:<12} {}", ev.kind.name(), arg);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_most_recent_events() {
        let ring = FlightRing::new(8);
        for i in 0..20u64 {
            ring.record(Event::new(i, EventKind::Spawn, i));
        }
        let snap = ring.snapshot();
        // One below capacity: the oldest retained slot is conservatively
        // treated as possibly mid-overwrite.
        assert_eq!(snap.len(), 7, "bounded at capacity − 1");
        let args: Vec<u64> = snap.iter().map(|e| e.arg).collect();
        assert_eq!(args, (13..20).collect::<Vec<_>>(), "oldest overwritten");
        assert_eq!(ring.recorded(), 20);
    }

    #[test]
    fn capacity_rounds_up() {
        assert_eq!(FlightRing::new(0).capacity(), 8);
        assert_eq!(FlightRing::new(9).capacity(), 16);
    }

    #[test]
    fn empty_ring_snapshot_and_dump() {
        let ring = FlightRing::new(16);
        assert!(ring.snapshot().is_empty());
        assert!(dump(&[ring]).contains("no events"));
    }

    #[test]
    fn dump_merges_workers_in_time_order() {
        let a = FlightRing::new(8);
        let b = FlightRing::new(8);
        a.record(Event::new(10, EventKind::Root, 0));
        b.record(Event::new(
            5,
            EventKind::Steal,
            crate::event::pack_steal_arg(0, 0xAB),
        ));
        a.record(Event::new(20, EventKind::Join, 0x30));
        let text = dump(&[a, b]);
        let steal_at = text.find("steal").unwrap();
        let root_at = text.find("root").unwrap();
        let join_at = text.find("join").unwrap();
        assert!(
            steal_at < root_at && root_at < join_at,
            "time-ordered:\n{text}"
        );
        assert!(text.contains("victim=0 frame=0xab"));
        assert!(text.contains("w1 steal"));
    }

    #[test]
    fn snapshot_tolerates_concurrent_writes() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let ring = Arc::new(FlightRing::new(16));
        let stop = Arc::new(AtomicBool::new(false));
        let producer = {
            let (ring, stop) = (ring.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    ring.record(Event::new(i, EventKind::Wake, i & crate::ARG_MASK));
                    i += 1;
                }
                i
            })
        };
        // Keep snapshotting until the producer was actually observed: on a
        // busy host a fixed number of snapshots can finish before the
        // producer thread's first `record`, proving nothing.
        let (mut snapshots, mut observed) = (0, false);
        while snapshots < 1000 || !observed {
            for ev in ring.snapshot() {
                observed = true;
                // Retained events are never torn: ts always equals arg.
                assert_eq!(ev.ts_ns & crate::ARG_MASK, ev.arg);
                assert_eq!(ev.kind, EventKind::Wake);
            }
            if !observed {
                std::thread::yield_now();
            }
            snapshots += 1;
        }
        stop.store(true, Ordering::Relaxed);
        let produced = producer.join().unwrap();
        assert!(produced > 0);
    }
}
