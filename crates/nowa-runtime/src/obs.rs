//! The trace sink: the runtime's only coupling to `nowa-trace`.
//!
//! Compiled only with the `trace` cargo feature. The scheduler never calls
//! in here per event: it emits a counted event through
//! [`crate::stats::bump`]/[`add`](crate::stats::add), and the event's row in
//! the table says — as a [`Trace`] — how it reaches this module. With the
//! feature on, recording is still a no-op unless the runtime has event
//! rings ([`crate::Config`]`::tracing(true)` or `Config::trace_ring`; the
//! buffers are simply absent otherwise). Each event is stamped once and
//! stored once, in the calling worker's ring.
//!
//! Recording never blocks and never allocates: the ring is wait-free and
//! overwrites its oldest event when full, and histograms are relaxed
//! `fetch_add`s. Without `tracing` (the flight recorder alone) the ring
//! gets scheduling events only: no idle churn, no histograms.
//!
//! Deque-lifecycle events carry the frame involved, giving events causal
//! identity (see `nowa_trace::EventKind`): post-run analysis replays the
//! deques and rebuilds the fork/join DAG from the stream.

use nowa_trace::{pack_steal_arg, Event, EventKind, TraceBuffer};

use crate::worker::Worker;

/// How one row of the event table reaches the calling worker's trace
/// buffer, stamped by the worker's [`nowa_trace::Stamp`]. The rows marked
/// *tracing only* record nothing in a flight-recorder-only runtime.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Trace {
    /// Counted only.
    Off,
    /// A hot-path event: amortized timestamp (`STAMP_SHIFT`).
    Hot(EventKind),
    /// A rare-path event: fresh timestamp.
    Rare(EventKind),
    /// The worker found work: [`Trace::Rare`], closing the idle span first.
    Work(EventKind),
    /// A failed steal attempt on victim `arg`. Tracing only: an idle worker
    /// re-sweeps every victim many thousand times a second and would evict
    /// everything else from a flight recorder's ring. Unless `while_idle`,
    /// also suppressed while the worker is deep-idle — the
    /// [`EventKind::Idle`] span summarises the period instead (the
    /// *counter* still counts every attempt).
    Sweep {
        /// The event recorded.
        kind: EventKind,
        /// Whether to record it during an idle span too.
        while_idle: bool,
    },
    /// An offered spawn of frame `arg` (hot); with tracing, the buffer
    /// samples deque occupancy every `2^OCCUPANCY_SHIFT`-th time.
    Spawn,
    /// A successful steal of frame `arg` from the worker's `last_victim`
    /// (set by the sweep just before it emits); with tracing, starts the
    /// steal-to-first-poll clock stopped by [`resume_finished`].
    Steal,
    /// A sweep found nothing: opens the idle span (idempotent). Tracing
    /// only.
    Idle,
    /// Entering a futex park.
    Park,
    /// The park ended (wake, timeout, or stale epoch) after `arg`
    /// nanoseconds: an [`EventKind::Unpark`] span stamped at its start.
    Unpark,
}

/// The calling worker's trace buffer, when the runtime has rings, and
/// whether the runtime traces (idle churn and histograms too).
#[inline(always)]
fn sink(w: &Worker) -> Option<(&TraceBuffer, bool)> {
    let buffers = w.shared.trace.as_deref()?;
    Some((&buffers[w.index], w.shared.config.tracing))
}

/// Routes one emitted event per its table row. `occupancy` is the
/// spawner's deque probe, consulted by [`Trace::Spawn`] only.
///
/// # Safety
/// `worker` must be the calling thread's live worker.
// lint: wait-free
#[inline(always)]
pub(crate) unsafe fn record(
    worker: *mut Worker,
    trace: Trace,
    arg: u64,
    occupancy: impl FnOnce() -> u64,
) {
    // SAFETY: live worker per the function contract; only header fields
    // are read, and the stamp is this worker's own.
    let w = unsafe { &*worker };
    let Some((buf, tracing)) = sink(w) else {
        return;
    };
    let stamp = &w.stamp;
    let ev = match trace {
        Trace::Off => return,
        Trace::Sweep { kind, while_idle } => {
            if tracing && (while_idle || !buf.is_idle()) {
                buf.record(Event::new(stamp.fresh(), kind, arg));
            }
            return;
        }
        Trace::Idle => {
            if tracing {
                buf.idle_enter(|| stamp.fresh());
            }
            return;
        }
        Trace::Hot(kind) => Event::new(stamp.hot(), kind, arg),
        Trace::Spawn => Event::new(stamp.hot(), EventKind::Spawn, arg),
        Trace::Rare(kind) | Trace::Work(kind) => Event::new(stamp.fresh(), kind, arg),
        Trace::Steal => Event::new(
            stamp.fresh(),
            EventKind::Steal,
            pack_steal_arg(w.last_victim, arg),
        ),
        Trace::Park => Event::new(stamp.fresh(), EventKind::Park, 0),
        Trace::Unpark => Event::new(stamp.fresh().saturating_sub(arg), EventKind::Unpark, arg),
    };
    if !tracing {
        buf.record(ev);
        return;
    }
    match trace {
        Trace::Spawn => buf.spawn(ev, occupancy),
        Trace::Steal => {
            buf.idle_exit(ev.ts_ns);
            buf.steal_success(ev);
        }
        Trace::Work(_) => {
            buf.idle_exit(ev.ts_ns);
            buf.record(ev);
        }
        Trace::Unpark => buf.unpark(ev),
        _ => buf.record(ev),
    }
}

/// A resumed continuation re-established its stack invariant: stops the
/// steal-to-first-poll clock if this resume consumed a steal. The one
/// trace point that is not a counted event (it would put a counter on
/// every spawn's continuation for a measurement only tracing consumes).
///
/// # Safety
/// `worker` must be the calling thread's live worker.
#[inline]
pub(crate) unsafe fn resume_finished(worker: *mut Worker) {
    // SAFETY: live worker per the function contract.
    let w = unsafe { &*worker };
    if let Some((buf, true)) = sink(w) {
        buf.resume_finished(|| w.stamp.fresh());
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use nowa_trace::EventKind as K;

    use crate::{api, Config, Runtime};

    fn fib(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = api::join2(|| fib(n - 1), || fib(n - 2));
        a + b
    }

    /// One ring, each event stored once. Traced, the drain holds one
    /// `Spawn` per spawn and equals the flight recorder's view (a
    /// snapshot of the same ring); untraced, the ring gets the scheduling
    /// events and none of the idle churn.
    #[test]
    fn one_ring_holds_each_event_once() {
        for tracing in [true, false] {
            let config = Config::with_workers(2).tracing(tracing);
            let rt = Runtime::new(config.trace_ring(1 << 16)).unwrap();
            assert_eq!(rt.run(|| fib(14)), 377);
            // Idle until a worker parks, so Park/Unpark spans are recorded.
            let deadline = Instant::now() + Duration::from_secs(5);
            while rt.stats().parks == 0 {
                assert!(Instant::now() < deadline, "no worker parked within 5 s");
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(rt.run(|| fib(9)), 34);
            rt.shutdown(Duration::from_secs(10)).unwrap();
            let rings = rt.shared().trace.as_deref().unwrap();
            let tails: Vec<_> = rings.iter().map(|r| r.ring.snapshot()).collect();
            let kinds: Vec<_> = tails.iter().flatten().map(|e| e.kind).collect();
            for kind in [K::Spawn, K::FastPop, K::Park, K::Unpark] {
                assert!(kinds.contains(&kind), "no {}", kind.name());
            }
            let churn = |k: &K| matches!(k, K::StealEmpty | K::StealRetry | K::Idle | K::Occupancy);
            assert_eq!(kinds.iter().any(churn), tracing, "{kinds:?}");
            let Some(report) = rt.trace_report() else {
                assert!(!tracing);
                continue;
            };
            assert_eq!(report.dropped_total, 0);
            assert_eq!(report.count(K::Spawn), rt.stats().spawns);
            for (w, tail) in report.workers.iter().zip(&tails) {
                assert_eq!(&w.events, tail, "worker {}", w.index);
            }
        }
    }
}
