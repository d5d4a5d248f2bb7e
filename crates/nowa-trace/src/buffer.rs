//! The per-worker trace state.

use core::sync::atomic::{AtomicU64, Ordering};

use crate::clock::now_ns;
use crate::event::{Event, EventKind};
use crate::hist::Hist64;
use crate::ring::EventRing;

/// How often deque occupancy is sampled: every `2^OCCUPANCY_SHIFT`-th spawn.
pub const OCCUPANCY_SHIFT: u32 = 6;

/// Everything one worker records: its event ring, its latency histograms,
/// and the scratch cells for in-flight measurements. Cache-line padded so
/// two workers' buffers never share a line.
///
/// The buffer reads no clock: the worker stamps each event once with its
/// [`Stamp`](crate::Stamp) and passes the stamped [`Event`] (or, for a
/// span boundary, the reading) in, so the same event can go to a flight
/// ring unchanged.
///
/// All methods are wait-free. Only the owning worker calls the recording
/// methods; the report collector reads concurrently via [`EventRing`]'s
/// consumer side and [`Hist64::snapshot`]. The scratch cells are atomics
/// only so the type stays `Sync` — they are worker-private.
#[repr(align(128))]
pub struct TraceBuffer {
    /// The event ring.
    pub ring: EventRing,
    /// Steal-to-first-poll latency: from a successful steal in the
    /// work-finding loop to the stolen continuation re-establishing its
    /// stack invariant.
    pub steal_latency: Hist64,
    /// Idle-spin duration: from the first failed steal sweep to the next
    /// piece of work.
    pub idle_spin: Hist64,
    /// Owner-deque occupancy, sampled every
    /// `2^`[`OCCUPANCY_SHIFT`]`-th` spawn.
    pub occupancy: Hist64,
    /// Time spent inside futex parks (idle engine).
    pub parked: Hist64,
    /// Timestamp of the pending successful steal (0 = none).
    pending_steal_ns: AtomicU64,
    /// Timestamp idleness began (0 = currently busy).
    idle_since_ns: AtomicU64,
    /// Spawns seen, for occupancy sampling.
    spawn_tick: AtomicU64,
}

impl TraceBuffer {
    /// A buffer whose ring holds `ring_capacity` events.
    pub fn new(ring_capacity: usize) -> TraceBuffer {
        // Pin the trace epoch no later than buffer construction so the
        // first event's timestamp is relative to runtime startup.
        let _ = now_ns();
        TraceBuffer {
            ring: EventRing::new(ring_capacity),
            steal_latency: Hist64::default(),
            idle_spin: Hist64::default(),
            occupancy: Hist64::default(),
            parked: Hist64::default(),
            pending_steal_ns: AtomicU64::new(0),
            idle_since_ns: AtomicU64::new(0),
            spawn_tick: AtomicU64::new(0),
        }
    }

    /// Records a stamped event (dropped and counted when the ring is full).
    #[inline]
    pub fn record(&self, ev: Event) {
        self.ring.push(ev);
    }

    /// Records an offered spawn event; every `2^`[`OCCUPANCY_SHIFT`]`-th`
    /// call also samples `deque_len` into the occupancy histogram (and an
    /// [`EventKind::Occupancy`] event at the spawn's timestamp), where
    /// `deque_len` is provided lazily so the common case never touches the
    /// deque.
    #[inline]
    pub fn spawn(&self, ev: Event, deque_len: impl FnOnce() -> u64) {
        self.ring.push(ev);
        let tick = self.spawn_tick.load(Ordering::Relaxed);
        self.spawn_tick.store(tick + 1, Ordering::Relaxed);
        if tick & ((1 << OCCUPANCY_SHIFT) - 1) == 0 {
            let len = deque_len();
            self.occupancy.record(len);
            self.ring
                .push(Event::new(ev.ts_ns, EventKind::Occupancy, len));
        }
    }

    /// Records a successful steal event and starts the steal-to-first-poll
    /// clock at its timestamp.
    #[inline]
    pub fn steal_success(&self, ev: Event) {
        self.ring.push(ev);
        self.pending_steal_ns.store(ev.ts_ns, Ordering::Relaxed);
    }

    /// Stops the steal-to-first-poll clock (called when a resumed
    /// continuation is back on its feet), reading `now` only then. No-op
    /// without a pending steal — fast-path resumes also pass through the
    /// resume site.
    #[inline]
    pub fn resume_finished(&self, now: impl FnOnce() -> u64) {
        let started = self.pending_steal_ns.load(Ordering::Relaxed);
        if started != 0 {
            self.pending_steal_ns.store(0, Ordering::Relaxed);
            self.steal_latency.record(now().saturating_sub(started));
        }
    }

    /// True while inside an idle period (between [`TraceBuffer::
    /// idle_enter`] and [`TraceBuffer::idle_exit`]).
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.idle_since_ns.load(Ordering::Relaxed) != 0
    }

    /// Marks the beginning of an idle period (first failed steal sweep),
    /// reading `now` only then. Idempotent while already idle.
    #[inline]
    pub fn idle_enter(&self, now: impl FnOnce() -> u64) {
        if self.idle_since_ns.load(Ordering::Relaxed) == 0 {
            self.idle_since_ns.store(now().max(1), Ordering::Relaxed);
        }
    }

    /// Marks the end of an idle period at `now`: records the spin duration
    /// and an [`EventKind::Idle`] event spanning it. No-op when not idle.
    #[inline]
    pub fn idle_exit(&self, now: u64) {
        let since = self.idle_since_ns.load(Ordering::Relaxed);
        if since != 0 {
            self.idle_since_ns.store(0, Ordering::Relaxed);
            let dur = now.saturating_sub(since);
            self.idle_spin.record(dur);
            self.ring.push(Event::new(since, EventKind::Idle, dur));
        }
    }

    /// Records the end of a park: an [`EventKind::Unpark`] event stamped
    /// at the park's start whose arg is the time parked, which also goes
    /// into the `parked` histogram.
    #[inline]
    pub fn unpark(&self, ev: Event) {
        self.parked.record(ev.arg);
        self.ring.push(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_samples_occupancy_periodically() {
        let buf = TraceBuffer::new(1 << 10);
        let mut probes = 0u32;
        for i in 0..(2 << OCCUPANCY_SHIFT) {
            buf.spawn(Event::new(i, EventKind::Spawn, 42), || {
                probes += 1;
                3
            });
        }
        assert_eq!(probes, 2, "one probe per 2^{OCCUPANCY_SHIFT} spawns");
        let occ = buf.occupancy.snapshot();
        assert_eq!(occ.count, 2);
        assert_eq!(occ.max, 3);
        let mut events = Vec::new();
        buf.ring.drain_into(&mut events);
        let sample = events
            .iter()
            .position(|e| e.kind == EventKind::Occupancy)
            .unwrap();
        assert_eq!(events[sample - 1].kind, EventKind::Spawn);
        assert_eq!(
            events[sample].ts_ns,
            events[sample - 1].ts_ns,
            "the sample shares its spawn's stamp"
        );
    }

    #[test]
    fn steal_latency_requires_pending_steal() {
        let buf = TraceBuffer::new(64);
        buf.resume_finished(|| unreachable!("fast-path resume reads no clock"));
        assert_eq!(buf.steal_latency.snapshot().count, 0);
        buf.steal_success(Event::new(10, EventKind::Steal, 42));
        buf.resume_finished(|| 25);
        buf.resume_finished(|| 99); // second resume must not double-record
        let s = buf.steal_latency.snapshot();
        assert_eq!((s.count, s.max), (1, 15));
    }

    #[test]
    fn idle_period_recorded_once() {
        let buf = TraceBuffer::new(64);
        buf.idle_exit(5); // busy → no-op
        buf.idle_enter(|| 1_000);
        buf.idle_enter(|| unreachable!("idempotent while idle"));
        buf.idle_exit(1_000_000);
        let s = buf.idle_spin.snapshot();
        assert_eq!((s.count, s.max), (1, 999_000));
        let mut events = Vec::new();
        buf.ring.drain_into(&mut events);
        assert_eq!(events, [Event::new(1_000, EventKind::Idle, 999_000)]);
    }

    #[test]
    fn unpark_records_the_parked_time() {
        let buf = TraceBuffer::new(64);
        buf.record(Event::new(100, EventKind::Park, 0));
        buf.unpark(Event::new(100, EventKind::Unpark, 1_000_000));
        let s = buf.parked.snapshot();
        assert_eq!((s.count, s.max), (1, 1_000_000));
        let mut events = Vec::new();
        buf.ring.drain_into(&mut events);
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].ts_ns, events[0].ts_ns, "span starts at the park");
    }
}
