//! Timers for the async surface: a hashed timer wheel driving `sleep` and
//! `timeout`.
//!
//! The wheel is coarse by design: ~1 ms ticks, 256 slots, entries hashed
//! by deadline tick with no per-slot ordering (a slot is drained by
//! comparing each entry's absolute deadline tick, so wrap-around costs
//! nothing extra). Serving timeouts are tens of milliseconds; a 1 ms
//! grain is far below the noise floor of an epoll wake (DESIGN.md §6h
//! discusses the granularity choice).
//!
//! Nobody sleeps *on* the wheel. It is advanced from two places:
//!
//! * the reactor poll — every poll advances the wheel (the idle ladder's
//!   busy polls as well as the parked poller's wait, whose `epoll_wait`
//!   timeout is `min(max_park, next deadline)`), so timer latency tracks
//!   I/O latency while any worker is idle;
//! * the watchdog thread — the same thread that fires region deadlines
//!   (PR 7's plumbing) advances the wheel each sweep, bounding timer
//!   staleness even when every worker is busy for a long stretch.
//!
//! [`timeout`] composes the wheel with ordinary future polling; for
//! whole-region deadlines that *cancel* (rather than resolve a future),
//! [`Region::with_deadline`](crate::api::Region::with_deadline) remains
//! the right tool — `timeout` returns control, `with_deadline` unwinds.

use core::future::Future;
use core::pin::Pin;
use core::task::{Context, Poll, Waker};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::worker::{current_worker, Shared};

/// Wheel granularity. One tick ≈ 1 ms.
const TICK_NS: u64 = 1_000_000;
/// Slot count; deadline ticks hash into slots modulo this.
const SLOTS: usize = 256;

/// One armed timer.
struct TimerEntry {
    id: u64,
    deadline_tick: u64,
    waker: Waker,
}

struct WheelInner {
    /// Wheel epoch; ticks are measured from here.
    start: Instant,
    /// The last tick `advance` processed.
    cursor: u64,
    next_id: u64,
    /// Live entries, total.
    count: usize,
    /// Minimum live deadline tick (`u64::MAX` when empty). Maintained on
    /// insert, recomputed whenever the entry holding it leaves the wheel
    /// (a firing advance, or a remove of the earliest entry).
    earliest: u64,
    slots: Vec<Vec<TimerEntry>>,
}

impl WheelInner {
    fn tick_of(&self, at: Instant) -> u64 {
        let ns = at.saturating_duration_since(self.start).as_nanos() as u64;
        ns / TICK_NS
    }

    fn recompute_earliest(&mut self) {
        let mut min = u64::MAX;
        for slot in &self.slots {
            for e in slot {
                min = min.min(e.deadline_tick);
            }
        }
        self.earliest = min;
    }
}

/// The hashed timer wheel. One per runtime, owned by the reactor.
pub(crate) struct TimerWheel {
    inner: parking_lot::Mutex<WheelInner>,
}

impl TimerWheel {
    pub(crate) fn new() -> TimerWheel {
        TimerWheel {
            inner: parking_lot::Mutex::new(WheelInner {
                start: Instant::now(),
                cursor: 0,
                next_id: 0,
                count: 0,
                earliest: u64::MAX,
                slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            }),
        }
    }

    /// Arms a timer. Returns `(id, slot, became_earliest)`; the caller
    /// kicks the reactor when the new deadline undercuts the previous
    /// earliest (a sleeping poller may be napping past it).
    pub(crate) fn insert(&self, deadline: Instant, waker: Waker) -> (u64, usize, bool) {
        let mut w = self.inner.lock();
        // Round *up* and never behind the cursor: a timer must not fire
        // before its deadline, and a past-due deadline fires on the very
        // next advance.
        let tick = w.tick_of(deadline).max(w.cursor) + 1;
        let id = w.next_id;
        w.next_id += 1;
        let slot = (tick % SLOTS as u64) as usize;
        w.slots[slot].push(TimerEntry {
            id,
            deadline_tick: tick,
            waker,
        });
        w.count += 1;
        let became_earliest = tick < w.earliest;
        if became_earliest {
            w.earliest = tick;
        }
        (id, slot, became_earliest)
    }

    /// Disarms `id` (hashed into `slot`). No-op if it already fired.
    pub(crate) fn remove(&self, slot: usize, id: u64) {
        let mut w = self.inner.lock();
        let entries = &mut w.slots[slot];
        if let Some(pos) = entries.iter().position(|e| e.id == id) {
            let removed = entries.swap_remove(pos);
            w.count -= 1;
            // `earliest` must not outlive its entry: `advance` recomputes
            // it only when something fired, so a stale tick, once passed,
            // would read as "due now" — a zero poll timeout — forever.
            if w.count == 0 {
                w.earliest = u64::MAX;
            } else if removed.deadline_tick == w.earliest {
                w.recompute_earliest();
            }
        }
    }

    /// Fires everything due at `now`: appends the due wakers to `fired`
    /// (the caller wakes them outside the lock) and returns how many.
    pub(crate) fn advance(&self, now: Instant, fired: &mut Vec<Waker>) -> usize {
        let mut w = self.inner.lock();
        let now_tick = w.tick_of(now);
        if now_tick <= w.cursor || w.count == 0 {
            w.cursor = w.cursor.max(now_tick);
            return 0;
        }
        let already = fired.len();
        // Walk the elapsed ticks, at most one lap: far behind a sparse
        // wheel, the last SLOTS ticks touch each slot exactly once.
        let span = (now_tick - w.cursor).min(SLOTS as u64);
        for t in now_tick - span + 1..=now_tick {
            let entries = &mut w.slots[(t % SLOTS as u64) as usize];
            let mut i = 0;
            while i < entries.len() {
                if entries[i].deadline_tick <= now_tick {
                    fired.push(entries.swap_remove(i).waker);
                } else {
                    i += 1;
                }
            }
        }
        w.cursor = now_tick;
        let count = fired.len() - already;
        w.count -= count;
        if count > 0 {
            w.recompute_earliest();
        }
        count
    }

    /// Milliseconds until the earliest armed deadline, capped at `max_ms`
    /// (the idle engine's `max_park` bound); `max_ms` when no timer is
    /// armed. Rounds up so a timer never fires early.
    pub(crate) fn next_timeout_ms(&self, now: Instant, max_ms: u64) -> u64 {
        let w = self.inner.lock();
        if w.earliest == u64::MAX {
            return max_ms;
        }
        let now_tick = w.tick_of(now);
        if w.earliest <= now_tick {
            return 0;
        }
        let ns = (w.earliest - now_tick) * TICK_NS;
        ns.div_ceil(1_000_000).min(max_ms)
    }

    /// Armed timers right now (the `timers_pending` gauge).
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().count
    }
}

/// Future returned by [`sleep`]. Resolves once the duration elapsed.
pub struct Sleep {
    deadline: Instant,
    shared: Arc<Shared>,
    /// `(id, slot)` of the currently armed wheel entry, if any.
    registered: Option<(u64, usize)>,
}

impl Sleep {
    /// The instant this sleep resolves at.
    pub fn deadline(&self) -> Instant {
        self.deadline
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if Instant::now() >= this.deadline {
            if let Some((id, slot)) = this.registered.take() {
                this.shared.reactor.timers.remove(slot, id);
            }
            return Poll::Ready(());
        }
        // Re-arm with the current waker (it may differ from the one a
        // previous poll registered).
        if let Some((id, slot)) = this.registered.take() {
            this.shared.reactor.timers.remove(slot, id);
        }
        let (id, slot, became_earliest) = this
            .shared
            .reactor
            .timers
            .insert(this.deadline, cx.waker().clone());
        this.registered = Some((id, slot));
        if became_earliest {
            // A claimed poller may be napping past the new deadline.
            this.shared.reactor.kick_if_claimed();
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some((id, slot)) = self.registered.take() {
            self.shared.reactor.timers.remove(slot, id);
        }
    }
}

/// Sleeps asynchronously for `dur` (wheel-granular: rounded up to the next
/// ~1 ms tick). The strand parks; the worker keeps scheduling.
///
/// # Panics
/// Panics when called outside a runtime worker (the wheel lives on the
/// runtime).
pub fn sleep(dur: Duration) -> Sleep {
    let worker = current_worker();
    assert!(
        !worker.is_null(),
        "nowa time::sleep requires a runtime worker (the timer wheel lives on the runtime)"
    );
    // SAFETY: non-null means the calling thread's live worker.
    let shared = unsafe { (*worker).shared.clone() };
    Sleep {
        deadline: Instant::now() + dur,
        shared,
        registered: None,
    }
}

/// Error of a [`timeout`] that elapsed before its future resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Elapsed;

impl fmt::Display for Elapsed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("timeout elapsed")
    }
}

impl std::error::Error for Elapsed {}

/// Future returned by [`timeout`].
pub struct Timeout<F> {
    future: F,
    sleep: Sleep,
}

impl<F: Future> Future for Timeout<F> {
    type Output = Result<F::Output, Elapsed>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: structural pin projection — neither field is moved out,
        // and `Timeout` has no `Unpin`-dependent API.
        let this = unsafe { self.get_unchecked_mut() };
        // SAFETY: `this.future` is pinned because `self` was.
        let future = unsafe { Pin::new_unchecked(&mut this.future) };
        if let Poll::Ready(out) = future.poll(cx) {
            return Poll::Ready(Ok(out));
        }
        if Pin::new(&mut this.sleep).poll(cx).is_ready() {
            return Poll::Ready(Err(Elapsed));
        }
        Poll::Pending
    }
}

/// Awaits `future` for at most `dur`; yields `Err(Elapsed)` if the timer
/// fires first (the future is dropped, releasing whatever it held).
///
/// Granularity is the wheel tick (~1 ms); for cancelling a whole fork/join
/// region rather than one future, use
/// [`Region::with_deadline`](crate::api::Region::with_deadline).
///
/// ```
/// use std::time::Duration;
///
/// let rt = nowa_runtime::Runtime::with_workers(2).unwrap();
/// rt.run(|| {
///     nowa_runtime::task::block_on(async {
///         // A sleep that cannot finish inside the timeout window.
///         let slow = nowa_runtime::time::sleep(Duration::from_secs(3600));
///         let out = nowa_runtime::time::timeout(Duration::from_millis(10), slow).await;
///         assert_eq!(out, Err(nowa_runtime::time::Elapsed));
///     })
/// });
/// ```
pub fn timeout<F: Future>(dur: Duration, future: F) -> Timeout<F> {
    Timeout {
        future,
        sleep: sleep(dur),
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn noop_waker() -> Waker {
        use core::task::{RawWaker, RawWakerVTable};
        const VTABLE: RawWakerVTable = RawWakerVTable::new(
            |_| RawWaker::new(core::ptr::null(), &VTABLE),
            |_| {},
            |_| {},
            |_| {},
        );
        // SAFETY: every vtable entry is a no-op.
        unsafe { Waker::from_raw(RawWaker::new(core::ptr::null(), &VTABLE)) }
    }

    /// Advances `wheel` to `at`; returns how many timers fired.
    fn fire(wheel: &TimerWheel, at: Instant) -> usize {
        let mut fired = Vec::new();
        let n = wheel.advance(at, &mut fired);
        assert_eq!(n, fired.len());
        n
    }

    #[test]
    fn wheel_fires_due_entries_once() {
        let wheel = TimerWheel::new();
        let t0 = Instant::now();
        wheel.insert(t0 + Duration::from_millis(2), noop_waker());
        wheel.insert(t0 + Duration::from_millis(2), noop_waker());
        wheel.insert(t0 + Duration::from_secs(60), noop_waker());
        assert_eq!(wheel.len(), 3);
        assert_eq!(fire(&wheel, t0), 0, "nothing due yet");
        let fired = fire(&wheel, t0 + Duration::from_millis(20));
        assert_eq!(fired, 2, "both short timers fire together");
        assert_eq!(wheel.len(), 1);
        assert_eq!(
            fire(&wheel, t0 + Duration::from_millis(40)),
            0,
            "fired entries do not refire"
        );
    }

    #[test]
    fn wheel_handles_wraparound_collisions() {
        // Two deadlines exactly SLOTS ticks apart share a slot; only the
        // near one may fire.
        let wheel = TimerWheel::new();
        let t0 = Instant::now();
        let near = t0 + Duration::from_millis(3);
        let far = t0 + Duration::from_millis(3 + SLOTS as u64);
        wheel.insert(near, noop_waker());
        wheel.insert(far, noop_waker());
        let fired = fire(&wheel, t0 + Duration::from_millis(10));
        assert_eq!(fired, 1, "only the near deadline fires");
        assert_eq!(wheel.len(), 1);
    }

    #[test]
    fn wheel_remove_disarms_and_timeout_hint_tracks_earliest() {
        let wheel = TimerWheel::new();
        let t0 = Instant::now();
        assert_eq!(wheel.next_timeout_ms(t0, 500), 500, "empty wheel: max");
        let (id, slot, earliest) = wheel.insert(t0 + Duration::from_millis(50), noop_waker());
        assert!(earliest);
        let hint = wheel.next_timeout_ms(t0, 500);
        assert!(
            (1..=60).contains(&hint),
            "hint {hint} tracks the 50ms deadline"
        );
        let (_, _, earliest) = wheel.insert(t0 + Duration::from_millis(200), noop_waker());
        assert!(!earliest, "200ms does not undercut 50ms");
        wheel.remove(slot, id);
        assert_eq!(wheel.len(), 1);
        let hint = wheel.next_timeout_ms(t0, 500);
        assert!(
            (190..=210).contains(&hint),
            "hint {hint} falls back to the 200ms deadline once the 50ms one is removed"
        );
        let fired = fire(&wheel, t0 + Duration::from_secs(1));
        assert_eq!(fired, 1, "removed timer never fires");
        let later = t0 + Duration::from_secs(2);
        let (id, slot, _) = wheel.insert(later + Duration::from_millis(50), noop_waker());
        wheel.remove(slot, id);
        assert_eq!(
            wheel.next_timeout_ms(later + Duration::from_secs(1), 500),
            500,
            "an emptied wheel imposes no deadline, however late it is asked"
        );
    }

    #[test]
    fn wheel_far_behind_catchup_scans_all_slots() {
        let wheel = TimerWheel::new();
        let t0 = Instant::now();
        for i in 0..10u64 {
            wheel.insert(t0 + Duration::from_millis(2 + i), noop_waker());
        }
        // Advance far past everything in one leap (> SLOTS ticks).
        let fired = fire(&wheel, t0 + Duration::from_secs(2));
        assert_eq!(fired, 10);
        assert_eq!(wheel.len(), 0);
    }
}
