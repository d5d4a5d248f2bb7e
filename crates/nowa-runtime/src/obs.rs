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

use nowa_trace::{pack_steal_arg, EventKind, FlightRing, TraceBuffer};

use crate::worker::Worker;

/// How one row of the event table reaches the calling worker's trace
/// buffer and flight ring. Unless noted, the flight ring gets the same
/// `(kind, arg)` the buffer does.
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
    /// An offered spawn of frame `arg`; samples deque occupancy every
    /// `2^OCCUPANCY_SHIFT`-th time.
    Spawn,
    /// A successful steal of frame `arg` from the worker's `last_victim`
    /// (set by the sweep just before it emits); starts the
    /// steal-to-first-poll clock stopped by [`resume_finished`].
    Steal,
    /// A sweep found nothing: opens the idle span (idempotent). Buffer only.
    Idle,
    /// Entering a futex park.
    Park,
    /// The park ended (wake, timeout, or stale epoch).
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
    // are read.
    let w = unsafe { &*worker };
    let (buf, flight) = sinks(w);
    let (kind, arg) = match trace {
        Trace::Off => return,
        Trace::Hot(kind) => {
            if let Some(b) = buf {
                b.hot_event(kind, arg);
            }
            (kind, arg)
        }
        Trace::Rare(kind) | Trace::Work(kind) => {
            if let Some(b) = buf {
                if matches!(trace, Trace::Work(_)) {
                    b.idle_exit();
                }
                b.event(kind, arg);
            }
            (kind, arg)
        }
        Trace::Sweep { kind, while_idle } => {
            if let Some(b) = buf {
                if while_idle || !b.is_idle() {
                    b.event(kind, arg);
                }
            }
            return;
        }
        Trace::Spawn => {
            if let Some(b) = buf {
                b.spawn(arg, occupancy);
            }
            (EventKind::Spawn, arg)
        }
        Trace::Steal => {
            let victim = w.last_victim;
            if let Some(b) = buf {
                b.idle_exit();
                b.steal_success(victim, arg);
            }
            (EventKind::Steal, pack_steal_arg(victim, arg))
        }
        Trace::Idle => {
            if let Some(b) = buf {
                b.idle_enter();
            }
            return;
        }
        Trace::Park => {
            if let Some(b) = buf {
                b.park_begin();
            }
            (EventKind::Park, 0)
        }
        Trace::Unpark => {
            if let Some(b) = buf {
                b.park_end();
            }
            (EventKind::Unpark, 0)
        }
    };
    if let Some(f) = flight {
        f.record_now(kind, arg);
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
    if let (Some(b), _) = sinks(unsafe { &*worker }) {
        b.resume_finished();
    }
}
