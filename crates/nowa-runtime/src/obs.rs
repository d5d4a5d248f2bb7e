//! The trace sink: the runtime's only coupling to `nowa-trace`.
//!
//! Compiled only with the `trace` cargo feature. The scheduler never calls
//! in here per event: it emits a counted event through
//! [`crate::stats::bump`]/[`add`](crate::stats::add), and the event's row in
//! the table says — as a [`Trace`] — how it reaches this module. With the
//! feature on, recording is still a no-op unless the runtime was built
//! with [`crate::Config`]`::tracing(true)` (the buffers are simply absent
//! otherwise) and/or `Config::flight_recorder` (the flight rings likewise).
//!
//! Recording never blocks and never allocates: rings are wait-free SPSC
//! with a drop-newest overflow policy (flight rings overwrite-oldest), and
//! histograms are relaxed `fetch_add`s.
//!
//! Deque-lifecycle events carry the frame involved, giving events causal
//! identity (see `nowa_trace::EventKind`): post-run analysis replays the
//! deques and rebuilds the fork/join DAG from the stream.

use nowa_trace::{pack_steal_arg, Event, EventKind, FlightRing, TraceBuffer};

use crate::worker::Worker;

/// How one row of the event table reaches the calling worker's trace
/// buffer and flight ring. Unless noted, both sinks get the same
/// [`Event`], stamped once by the worker's [`nowa_trace::Stamp`].
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
    /// A failed steal attempt on victim `arg`. Buffer only: an idle worker
    /// re-sweeps every victim many thousand times a second and would evict
    /// everything else from the flight ring. Unless `while_idle`, also
    /// suppressed in the buffer while the worker is deep-idle — the
    /// [`EventKind::Idle`] span summarises the period instead (the
    /// *counter* still counts every attempt).
    Sweep {
        /// The event recorded.
        kind: EventKind,
        /// Whether to record it during an idle span too.
        while_idle: bool,
    },
    /// An offered spawn of frame `arg` (hot); the buffer samples deque
    /// occupancy every `2^OCCUPANCY_SHIFT`-th time.
    Spawn,
    /// A successful steal of frame `arg` from the worker's `last_victim`
    /// (set by the sweep just before it emits); starts the
    /// steal-to-first-poll clock stopped by [`resume_finished`].
    Steal,
    /// A sweep found nothing: opens the idle span (idempotent). Buffer only.
    Idle,
    /// Entering a futex park.
    Park,
    /// The park ended (wake, timeout, or stale epoch) after `arg`
    /// nanoseconds: an [`EventKind::Unpark`] span stamped at its start.
    Unpark,
}

/// The calling worker's trace buffer and flight ring, when configured.
#[inline(always)]
fn sinks(w: &Worker) -> (Option<&TraceBuffer>, Option<&FlightRing>) {
    (
        w.shared.trace.as_deref().map(|t| &t[w.index]),
        w.shared.flight.as_deref().map(|t| &t[w.index]),
    )
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
    let (buf, flight) = sinks(w);
    if buf.is_none() && flight.is_none() {
        return;
    }
    let stamp = &w.stamp;
    let ev = match trace {
        Trace::Off => return,
        Trace::Sweep { kind, while_idle } => {
            if let Some(b) = buf {
                if while_idle || !b.is_idle() {
                    b.record(Event::new(stamp.fresh(), kind, arg));
                }
            }
            return;
        }
        Trace::Idle => {
            if let Some(b) = buf {
                b.idle_enter(|| stamp.fresh());
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
    if let Some(b) = buf {
        match trace {
            Trace::Spawn => b.spawn(ev, occupancy),
            Trace::Steal => {
                b.idle_exit(ev.ts_ns);
                b.steal_success(ev);
            }
            Trace::Work(_) => {
                b.idle_exit(ev.ts_ns);
                b.record(ev);
            }
            Trace::Unpark => b.unpark(ev),
            _ => b.record(ev),
        }
    }
    if let Some(f) = flight {
        f.record(ev);
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
    if let (Some(b), _) = sinks(w) {
        b.resume_finished(|| w.stamp.fresh());
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use nowa_trace::EventKind;

    use crate::{api, Config, Runtime};

    fn fib(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = api::join2(|| fib(n - 1), || fib(n - 2));
        a + b
    }

    /// Kinds the trace buffer records and the flight ring does not.
    fn buffer_only(kind: EventKind) -> bool {
        matches!(
            kind,
            EventKind::StealEmpty | EventKind::StealRetry | EventKind::Idle | EventKind::Occupancy
        )
    }

    /// One event, one timestamp: with both recorders on, each worker's
    /// flight ring holds exactly the tail of its drained trace stream
    /// (restricted to the kinds both sinks get), timestamps included —
    /// hot events too, which both stamp with the same amortized reading.
    #[test]
    fn flight_ring_is_the_tail_of_the_trace_stream() {
        let rt = Runtime::new(
            Config::with_workers(2)
                .tracing(true)
                .trace_ring(1 << 16)
                .flight_recorder(512),
        )
        .unwrap();
        assert_eq!(rt.run(|| fib(14)), 377);
        // Idle until a worker parks, so Park/Unpark spans are in the tail.
        let deadline = Instant::now() + Duration::from_secs(5);
        while rt.stats().parks == 0 {
            assert!(Instant::now() < deadline, "no worker parked within 5 s");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(rt.run(|| fib(9)), 34);
        // Quiesce first: a worker recording between the two reads below
        // would make the tails differ for a reason other than stamping.
        rt.shutdown(Duration::from_secs(10)).unwrap();
        let report = rt.trace_report().unwrap();
        assert_eq!(report.dropped_total, 0);
        let rings = rt.shared().flight.as_deref().unwrap();
        let mut compared = Vec::new();
        for (w, ring) in report.workers.iter().zip(rings) {
            let flight = ring.snapshot();
            let traced: Vec<_> = w.events.iter().filter(|e| !buffer_only(e.kind)).collect();
            assert!(flight.len() <= traced.len(), "worker {}", w.index);
            let tail = &traced[traced.len() - flight.len()..];
            for (f, t) in flight.iter().zip(tail) {
                assert_eq!(f, *t, "worker {}: flight and trace disagree", w.index);
            }
            compared.extend(flight.iter().map(|e| e.kind));
        }
        for kind in [
            EventKind::Spawn,
            EventKind::FastPop,
            EventKind::Park,
            EventKind::Unpark,
        ] {
            assert!(compared.contains(&kind), "no {} compared", kind.name());
        }
    }
}
