//! Deadlines: one ordered map per runtime, driving `sleep`, `timeout` and
//! [`Region::with_deadline`](crate::api::Region::with_deadline).
//!
//! `Deadlines` is a mutex around a `BTreeMap` keyed by `(deadline, id)`.
//! An entry either wakes a waker (a [`Sleep`], which [`timeout`] races
//! against its future) or latches a region's scope with
//! [`CancelReason::Deadline`]. The map's first key is the earliest
//! deadline, so nothing caches it. An entry fires at the first
//! `fire_due` whose `now` has reached its deadline, never before.
//!
//! Nobody sleeps *on* the map. Two places fire it:
//!
//! * the reactor poll — every poll fires what is due (the idle ladder's
//!   busy polls as well as the parked poller's wait, whose `epoll_wait`
//!   timeout is `min(max_park, next deadline)`, to the nanosecond), so deadline latency
//!   tracks I/O latency while any worker is idle;
//! * the watchdog sweep — the watchdog naps until the earliest entry, but
//!   sweeps at most once per 5 ms; it is the backstop for stretches when
//!   every worker is busy and nobody polls.
//!
//! One rule wakes a sleeper: an insert that becomes the earliest entry
//! kicks the claimed poller and, when it moves the watchdog's nap earlier,
//! notifies the watchdog.
//!
//! `timeout` returns control; `with_deadline` unwinds a whole region.

use core::future::Future;
use core::pin::Pin;
use core::task::{Context, Poll, Waker};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use crate::cancel::{CancelCell, CancelReason, ScopeHandle};
use crate::reactor::Reactor;
use crate::worker::{current_worker, Shared};

/// An entry's place in the map: its deadline, then an id that tells apart
/// entries due at the same instant.
pub(crate) type Key = (Instant, u64);

/// The watchdog sweeps at most this often, however close the earliest
/// entry is: the claimed poller serves short timers, and the watchdog only
/// backs it up.
const WATCHDOG_FLOOR: Duration = Duration::from_millis(5);

/// What an entry does when it comes due.
enum Due {
    /// Wakes a [`Sleep`]'s task.
    Wake(Waker),
    /// Latches a region's scope. Weak: the region removes its entry when it
    /// completes, and a scope that is gone has nothing left to cancel.
    Cancel(Weak<ScopeHandle>),
}

struct Map {
    entries: BTreeMap<Key, Due>,
    next_id: u64,
    /// The instant the watchdog naps until, while an earlier entry would
    /// move that nap; `None` while it is awake or napping at its floor.
    watchdog_until: Option<Instant>,
    /// Set at shutdown: the watchdog naps no more.
    closed: bool,
}

/// The per-runtime deadline map. See the module docs.
pub(crate) struct Deadlines {
    map: parking_lot::Mutex<Map>,
    /// The watchdog naps on this.
    watchdog: parking_lot::Condvar,
}

impl Deadlines {
    pub(crate) fn new() -> Deadlines {
        Deadlines {
            map: parking_lot::Mutex::new(Map {
                entries: BTreeMap::new(),
                next_id: 0,
                watchdog_until: None,
                closed: false,
            }),
            watchdog: parking_lot::Condvar::new(),
        }
    }

    /// Inserts the entry `due` builds from its key, due at `at`. Returns the
    /// key and whether the entry became the earliest; notifies the
    /// watchdog when it moves the watchdog's nap earlier.
    fn insert(&self, at: Instant, due: impl FnOnce(Key) -> Due) -> (Key, bool) {
        let mut map = self.map.lock();
        let key = (at, map.next_id);
        map.next_id += 1;
        let first = map.entries.first_key_value().is_none_or(|(k, _)| key < *k);
        let due = due(key);
        map.entries.insert(key, due);
        if first && map.watchdog_until.is_some_and(|until| at < until) {
            self.watchdog.notify_one();
        }
        (key, first)
    }

    /// Removes the entry at `key`. No-op if it already fired.
    pub(crate) fn remove(&self, key: Key) {
        self.map.lock().entries.remove(&key);
    }

    /// Fires every entry due at `now`: latches the due scopes and appends
    /// the due wakers to `woken`, which the caller wakes outside the lock.
    /// Returns how many wakers it appended and whether it latched a scope
    /// — then the caller broadcasts to strands parked in `block_on`, which
    /// have no checkpoint to trip.
    pub(crate) fn fire_due(&self, now: Instant, woken: &mut Vec<Waker>) -> (usize, bool) {
        let (mut timers, mut latched) = (0, false);
        let mut map = self.map.lock();
        while let Some(entry) = map.entries.first_entry() {
            if entry.key().0 > now {
                break;
            }
            match entry.remove() {
                Due::Wake(waker) => {
                    woken.push(waker);
                    timers += 1;
                }
                Due::Cancel(scope) => {
                    if let Some(scope) = scope.upgrade() {
                        latched |= scope.cell.cancel(CancelReason::Deadline);
                    }
                }
            }
        }
        (timers, latched)
    }

    /// Time until the earliest entry, capped at `max` (the idle engine's
    /// `max_park`). The poller's wait rounds it up to whole milliseconds.
    pub(crate) fn timeout(&self, now: Instant, max: Duration) -> Duration {
        match self.map.lock().entries.first_key_value() {
            None => max,
            Some((&(at, _), _)) => at.saturating_duration_since(now).min(max),
        }
    }

    /// Armed entries right now, of both kinds (the `timers_pending` gauge).
    pub(crate) fn len(&self) -> usize {
        self.map.lock().entries.len()
    }

    /// The watchdog's nap after its sweep at `swept`: until the earliest
    /// entry is due, but no sooner than [`WATCHDOG_FLOOR`] and no later
    /// than `cap` after the sweep. An insert that moves that instant
    /// earlier wakes the nap to re-plan; [`close`](Deadlines::close) ends
    /// it. Entries inserted later than the planned instant do not extend
    /// the nap, so the sweeps are at least the floor apart.
    pub(crate) fn nap(&self, swept: Instant, cap: Duration) {
        let (floor, latest) = (swept + WATCHDOG_FLOOR, swept + cap);
        let mut map = self.map.lock();
        while !map.closed {
            let until = map
                .entries
                .first_key_value()
                .map_or(latest, |(&(at, _), _)| at.max(floor).min(latest));
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            map.watchdog_until = (until > floor).then_some(until);
            if self.watchdog.wait_for(&mut map, left).timed_out() {
                break;
            }
        }
        map.watchdog_until = None;
    }

    /// Ends the watchdog's nap for good (shutdown).
    pub(crate) fn close(&self) {
        self.map.lock().closed = true;
        self.watchdog.notify_all();
    }
}

/// Arms an entry due at `at`. One that becomes the earliest kicks the
/// claimed poller, which may be napping past it. The poller computes its
/// timeout under the map lock after it claims, so it either reads this
/// entry or is kicked (loom model `deadline_insert_vs_poller_timeout`).
fn arm(reactor: &Reactor, at: Instant, due: impl FnOnce(Key) -> Due) -> Key {
    reactor
        .poller
        .publish_then_kick(|| reactor.deadlines.insert(at, due), || reactor.kick())
}

/// A region scope chained under `parent`, latched with
/// [`CancelReason::Deadline`] once `timeout` elapses. The scope carries its
/// key, so the region removes the entry when it completes.
pub(crate) fn deadline_scope(
    reactor: &Reactor,
    timeout: Duration,
    parent: *const CancelCell,
) -> Arc<ScopeHandle> {
    let mut scope = None;
    arm(reactor, deadline_after(timeout), |key| {
        let handle = Arc::new(ScopeHandle {
            cell: CancelCell::new(parent),
            deadline: Some(key),
        });
        let weak = Arc::downgrade(&handle);
        scope = Some(handle);
        Due::Cancel(weak)
    });
    scope.expect("the entry was built")
}

/// `Instant::now() + dur`, without panicking when the sum is past what
/// `Instant` can represent: such a deadline is clamped to an instant no
/// clock reaches (on Linux about 2^62 s away), so it never fires.
fn deadline_after(mut dur: Duration) -> Instant {
    let now = Instant::now();
    loop {
        match now.checked_add(dur) {
            Some(at) => return at,
            None => dur /= 2,
        }
    }
}

/// Future returned by [`sleep`]. Resolves once the duration elapsed.
pub struct Sleep {
    deadline: Instant,
    shared: Arc<Shared>,
    /// The armed entry and the waker it holds.
    armed: Option<(Key, Waker)>,
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
        let due = Instant::now() >= this.deadline;
        if let Some((_, waker)) = &this.armed {
            if !due && waker.will_wake(cx.waker()) {
                // Polled again by the same task: the entry already wakes it.
                return Poll::Pending;
            }
        }
        if let Some((key, _)) = this.armed.take() {
            this.shared.reactor.deadlines.remove(key);
        }
        if due {
            return Poll::Ready(());
        }
        let waker = cx.waker().clone();
        let key = arm(&this.shared.reactor, this.deadline, |_| Due::Wake(waker));
        this.armed = Some((key, cx.waker().clone()));
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some((key, _)) = self.armed.take() {
            self.shared.reactor.deadlines.remove(key);
        }
    }
}

/// Sleeps asynchronously for `dur`. The strand parks; the worker keeps
/// scheduling. A `dur` too long for `Instant` to represent never elapses.
///
/// # Panics
/// Panics when called outside a runtime worker (the deadline map lives on
/// the runtime).
pub fn sleep(dur: Duration) -> Sleep {
    let worker = current_worker();
    assert!(
        !worker.is_null(),
        "nowa time::sleep requires a runtime worker (the deadline map lives on the runtime)"
    );
    // SAFETY: non-null means the calling thread's live worker.
    let shared = unsafe { (*worker).shared.clone() };
    Sleep {
        deadline: deadline_after(dur),
        shared,
        armed: None,
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
/// For cancelling a whole fork/join region rather than one future, use
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

    fn wake_at(map: &Deadlines, at: Instant) -> (Key, bool) {
        map.insert(at, |_| Due::Wake(Waker::noop().clone()))
    }

    /// Fires `map` at `at`; returns how many wakers fired.
    fn fire(map: &Deadlines, at: Instant) -> usize {
        let mut woken = Vec::new();
        let (n, _) = map.fire_due(at, &mut woken);
        assert_eq!(n, woken.len());
        n
    }

    #[test]
    fn fires_due_entries_once() {
        let map = Deadlines::new();
        let t0 = Instant::now();
        wake_at(&map, t0 + Duration::from_millis(2));
        wake_at(&map, t0 + Duration::from_millis(2));
        wake_at(&map, t0 + Duration::from_secs(60));
        assert_eq!(map.len(), 3);
        assert_eq!(fire(&map, t0), 0, "nothing due yet");
        assert_eq!(fire(&map, t0 + Duration::from_millis(20)), 2);
        assert_eq!(map.len(), 1);
        assert_eq!(
            fire(&map, t0 + Duration::from_millis(40)),
            0,
            "fired entries do not refire"
        );
    }

    #[test]
    fn an_entry_due_at_t_fires_at_exactly_t_and_not_before() {
        let map = Deadlines::new();
        let t = Instant::now() + Duration::from_millis(3);
        wake_at(&map, t);
        assert_eq!(fire(&map, t - Duration::from_nanos(1)), 0, "never early");
        assert_eq!(fire(&map, t), 1, "due at t fires at t, not a tick later");
    }

    #[test]
    fn remove_disarms_and_the_timeout_tracks_the_first_key() {
        let map = Deadlines::new();
        let t0 = Instant::now();
        let max = Duration::from_millis(500);
        assert_eq!(map.timeout(t0, max), max, "empty map: max");
        let (near, first) = wake_at(&map, t0 + Duration::from_millis(50));
        assert!(first);
        assert_eq!(map.timeout(t0, max), Duration::from_millis(50));
        let (_, first) = wake_at(&map, t0 + Duration::from_millis(200));
        assert!(!first, "200ms does not undercut 50ms");
        map.remove(near);
        assert_eq!(map.len(), 1);
        assert_eq!(
            map.timeout(t0, max),
            Duration::from_millis(200),
            "the timeout falls back to the 200ms deadline once the 50ms one is removed"
        );
        assert_eq!(
            map.timeout(t0 + Duration::from_micros(199_750), max),
            Duration::from_micros(250),
            "an entry 250 us ahead is a 250 us wait, not a whole millisecond"
        );
        assert_eq!(
            map.timeout(t0 + Duration::from_millis(300), max),
            Duration::ZERO,
            "an overdue entry is a poll that does not block"
        );
        assert_eq!(
            fire(&map, t0 + Duration::from_secs(1)),
            1,
            "removed entry never fires"
        );
        assert_eq!(
            map.timeout(t0 + Duration::from_secs(2), max),
            max,
            "an emptied map imposes no deadline, however late it is asked"
        );
    }

    #[test]
    fn scopes_latch_and_dead_scopes_are_skipped() {
        let map = Deadlines::new();
        let now = Instant::now();
        let scope = |deadline| {
            Arc::new(ScopeHandle {
                cell: CancelCell::new(core::ptr::null()),
                deadline,
            })
        };
        let (live, dead, later) = (scope(None), scope(None), scope(None));
        for (s, at) in [
            (&live, now),
            (&dead, now),
            (&later, now + Duration::from_secs(60)),
        ] {
            let weak = Arc::downgrade(s);
            map.insert(at, |_| Due::Cancel(weak));
        }
        drop(dead);
        let mut woken = Vec::new();
        assert_eq!(map.fire_due(now, &mut woken), (0, true));
        assert_eq!(live.cell.local(), Some(CancelReason::Deadline));
        assert_eq!(later.cell.local(), None, "a later deadline is untouched");
        assert_eq!(map.len(), 1);
        assert_eq!(
            map.fire_due(now, &mut woken),
            (0, false),
            "nothing left to latch"
        );
    }

    /// A pending `Sleep` polled again by the same task keeps its entry and
    /// pays no lock and no poller kick.
    #[test]
    fn repolling_with_the_same_waker_keeps_the_entry() {
        let rt = crate::Runtime::new(crate::Config::with_workers(1)).unwrap();
        rt.run(|| {
            let worker = current_worker();
            // SAFETY: `run` executes this closure on the runtime's worker.
            let shared = unsafe { (*worker).shared.clone() };
            // Stand in for a poller napping in `epoll_wait`, so each arm
            // that becomes the earliest entry would kick.
            assert!(shared.reactor.try_claim(0));
            // Arc-backed, like the runtime's own wakers: a clone is the
            // same waker to `will_wake`.
            struct Task;
            impl std::task::Wake for Task {
                fn wake(self: Arc<Self>) {}
            }
            let waker = Waker::from(Arc::new(Task));
            let mut cx = Context::from_waker(&waker);
            let mut sleep = sleep(Duration::from_secs(60));
            assert!(Pin::new(&mut sleep).poll(&mut cx).is_pending());
            let key = sleep.armed.as_ref().map(|(k, _)| *k);
            let kicks = shared.reactor.kick_writes();
            for _ in 0..100 {
                // Consume the last kick, as a real poller would.
                let mut woken = Vec::new();
                // SAFETY: the calling thread's live worker, holding the slot.
                unsafe { shared.reactor.poll(worker, Duration::ZERO, &mut woken) };
                assert!(Pin::new(&mut sleep).poll(&mut cx).is_pending());
            }
            shared.reactor.release();
            assert_eq!(sleep.armed.as_ref().map(|(k, _)| *k), key, "entry re-armed");
            assert_eq!(shared.reactor.kick_writes(), kicks, "re-poll kicked");
            assert_eq!(shared.reactor.deadlines.len(), 1);
        });
    }
}
