//! The per-worker trace state.

use core::sync::atomic::{AtomicU64, Ordering};

use crate::clock::now_ns;
use crate::event::{Event, EventKind};
use crate::hist::Hist64;
use crate::ring::EventRing;

/// How often deque occupancy is sampled: every `2^OCCUPANCY_SHIFT`-th spawn.
pub const OCCUPANCY_SHIFT: u32 = 6;

/// How often hot-path events take a fresh clock reading: every
/// `2^STAMP_SHIFT`-th hot event reads the monotonic clock; the ones in
/// between reuse the last reading. A clock read costs tens of
/// nanoseconds — more than a fine-grained spawn itself — so stamping
/// every event would double the runtime of spawn-bound kernels
/// (`benchmark/` reports the traced ÷ untraced ratio; what a test asserts
/// is the event count per spawn, in nowa-runtime's `tests/causal.rs`).
/// Staleness is bounded by `2^STAMP_SHIFT` *hot* events: rare-path
/// events (steals, syncs, idle/park transitions) always stamp precisely
/// and refresh the shared reading, so timestamps stay monotonic per
/// worker and dense event bursts — the only periods that reuse stamps —
/// are exactly the periods with no scheduling gaps to mis-measure.
pub const STAMP_SHIFT: u32 = 6;

/// Everything one worker records: its event ring, its latency histograms,
/// and the scratch cells for in-flight measurements. Cache-line padded so
/// two workers' buffers never share a line.
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
    /// Timestamp the current park began (0 = not parked).
    park_since_ns: AtomicU64,
    /// Spawns seen, for occupancy sampling.
    spawn_tick: AtomicU64,
    /// Hot events seen, for amortized stamping ([`STAMP_SHIFT`]).
    stamp_tick: AtomicU64,
    /// The last monotonic clock reading taken by this worker.
    stamp_ns: AtomicU64,
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
            park_since_ns: AtomicU64::new(0),
            spawn_tick: AtomicU64::new(0),
            stamp_tick: AtomicU64::new(0),
            stamp_ns: AtomicU64::new(0),
        }
    }

    /// Reads the clock and refreshes the shared stamp. Every precise
    /// (rare-path) reading goes through here so subsequent hot events can
    /// never be stamped earlier than a preceding precise event.
    #[inline]
    fn fresh_ts(&self) -> u64 {
        let ts = now_ns();
        self.stamp_ns.store(ts, Ordering::Relaxed);
        ts
    }

    /// Amortized timestamp for hot-path events: a fresh reading every
    /// `2^`[`STAMP_SHIFT`]`-th` call, the last reading otherwise.
    #[inline]
    fn hot_ts(&self) -> u64 {
        let tick = self.stamp_tick.load(Ordering::Relaxed);
        self.stamp_tick.store(tick + 1, Ordering::Relaxed);
        if tick & ((1 << STAMP_SHIFT) - 1) == 0 {
            self.fresh_ts()
        } else {
            self.stamp_ns.load(Ordering::Relaxed)
        }
    }

    /// Records a rare-path event stamped with a fresh clock reading.
    #[inline]
    pub fn event(&self, kind: EventKind, arg: u64) {
        self.ring.push(Event::new(self.fresh_ts(), kind, arg));
    }

    /// Records a hot-path event with an amortized stamp (`STAMP_SHIFT`).
    #[inline]
    pub fn hot_event(&self, kind: EventKind, arg: u64) {
        self.ring.push(Event::new(self.hot_ts(), kind, arg));
    }

    /// Records an offered spawn of `frame`; every
    /// `2^`[`OCCUPANCY_SHIFT`]`-th` call also samples `deque_len` into the
    /// occupancy histogram (and an [`EventKind::Occupancy`] event), where
    /// `deque_len` is provided lazily so the common case never touches the
    /// deque.
    #[inline]
    pub fn spawn(&self, frame: u64, deque_len: impl FnOnce() -> u64) {
        let tick = self.spawn_tick.load(Ordering::Relaxed);
        self.spawn_tick.store(tick + 1, Ordering::Relaxed);
        if tick & ((1 << OCCUPANCY_SHIFT) - 1) == 0 {
            let len = deque_len();
            self.occupancy.record(len);
            let ts = self.fresh_ts();
            self.ring.push(Event::new(ts, EventKind::Spawn, frame));
            self.ring.push(Event::new(ts, EventKind::Occupancy, len));
        } else {
            self.hot_event(EventKind::Spawn, frame);
        }
    }

    /// Records a successful steal of `frame`'s record from `victim` and
    /// starts the steal-to-first-poll clock.
    #[inline]
    pub fn steal_success(&self, victim: usize, frame: u64) {
        let ts = self.fresh_ts();
        self.ring.push(Event::new(
            ts,
            EventKind::Steal,
            crate::event::pack_steal_arg(victim, frame),
        ));
        self.pending_steal_ns.store(ts, Ordering::Relaxed);
    }

    /// Stops the steal-to-first-poll clock (called when a resumed
    /// continuation is back on its feet). No-op without a pending steal —
    /// fast-path resumes also pass through the resume site.
    #[inline]
    pub fn resume_finished(&self) {
        let started = self.pending_steal_ns.load(Ordering::Relaxed);
        if started != 0 {
            self.pending_steal_ns.store(0, Ordering::Relaxed);
            self.steal_latency
                .record(self.fresh_ts().saturating_sub(started));
        }
    }

    /// True while inside an idle period (between [`TraceBuffer::
    /// idle_enter`] and [`TraceBuffer::idle_exit`]).
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.idle_since_ns.load(Ordering::Relaxed) != 0
    }

    /// Marks the beginning of an idle period (first failed steal sweep).
    /// Idempotent while already idle.
    #[inline]
    pub fn idle_enter(&self) {
        if self.idle_since_ns.load(Ordering::Relaxed) == 0 {
            self.idle_since_ns
                .store(self.fresh_ts().max(1), Ordering::Relaxed);
        }
    }

    /// Marks the end of an idle period: records the spin duration and an
    /// [`EventKind::Idle`] event spanning it. No-op when not idle.
    #[inline]
    pub fn idle_exit(&self) {
        let since = self.idle_since_ns.load(Ordering::Relaxed);
        if since != 0 {
            self.idle_since_ns.store(0, Ordering::Relaxed);
            let dur = self.fresh_ts().saturating_sub(since);
            self.idle_spin.record(dur);
            self.ring.push(Event::new(since, EventKind::Idle, dur));
        }
    }

    /// Marks the beginning of a futex park ([`EventKind::Park`] instant,
    /// parked-time clock started).
    #[inline]
    pub fn park_begin(&self) {
        let ts = self.fresh_ts().max(1);
        self.park_since_ns.store(ts, Ordering::Relaxed);
        self.ring.push(Event::new(ts, EventKind::Park, 0));
    }

    /// Marks the end of a park: records the parked duration and an
    /// [`EventKind::Unpark`] span covering it. No-op without a pending
    /// [`TraceBuffer::park_begin`].
    #[inline]
    pub fn park_end(&self) {
        let since = self.park_since_ns.load(Ordering::Relaxed);
        if since != 0 {
            self.park_since_ns.store(0, Ordering::Relaxed);
            let dur = self.fresh_ts().saturating_sub(since);
            self.parked.record(dur);
            self.ring.push(Event::new(since, EventKind::Unpark, dur));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_samples_occupancy_periodically() {
        let buf = TraceBuffer::new(1 << 10);
        let mut probes = 0u32;
        for _ in 0..(2 << OCCUPANCY_SHIFT) {
            buf.spawn(42, || {
                probes += 1;
                3
            });
        }
        assert_eq!(probes, 2, "one probe per 2^{OCCUPANCY_SHIFT} spawns");
        let occ = buf.occupancy.snapshot();
        assert_eq!(occ.count, 2);
        assert_eq!(occ.max, 3);
    }

    #[test]
    fn steal_latency_requires_pending_steal() {
        let buf = TraceBuffer::new(64);
        buf.resume_finished(); // fast-path resume: no pending steal
        assert_eq!(buf.steal_latency.snapshot().count, 0);
        buf.steal_success(2, 42);
        buf.resume_finished();
        buf.resume_finished(); // second resume must not double-record
        assert_eq!(buf.steal_latency.snapshot().count, 1);
    }

    #[test]
    fn idle_period_recorded_once() {
        let buf = TraceBuffer::new(64);
        buf.idle_exit(); // busy → no-op
        buf.idle_enter();
        buf.idle_enter(); // idempotent
        std::thread::sleep(std::time::Duration::from_millis(1));
        buf.idle_exit();
        let s = buf.idle_spin.snapshot();
        assert_eq!(s.count, 1);
        assert!(s.max >= 1_000_000, "slept ≥ 1ms, recorded {}", s.max);
        let mut events = Vec::new();
        buf.ring.drain_into(&mut events);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Idle);
        assert_eq!(events[0].arg, s.max);
    }

    #[test]
    fn park_span_recorded_once() {
        let buf = TraceBuffer::new(64);
        buf.park_end(); // not parked → no-op
        assert_eq!(buf.parked.snapshot().count, 0);
        buf.park_begin();
        std::thread::sleep(std::time::Duration::from_millis(1));
        buf.park_end();
        buf.park_end(); // must not double-record
        buf.event(EventKind::Wake, 3);
        let s = buf.parked.snapshot();
        assert_eq!(s.count, 1);
        assert!(s.max >= 1_000_000, "parked ≥ 1ms, recorded {}", s.max);
        let mut events = Vec::new();
        buf.ring.drain_into(&mut events);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::Park);
        assert_eq!(events[1].kind, EventKind::Unpark);
        assert_eq!(events[1].arg, s.max);
        assert_eq!(events[1].ts_ns, events[0].ts_ns, "span starts at the park");
        assert_eq!(events[2].kind, EventKind::Wake);
        assert_eq!(events[2].arg, 3);
    }
}
