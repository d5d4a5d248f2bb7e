//! Trace hooks: the runtime's only coupling to `nowa-trace`.
//!
//! Every instrumentation point in the scheduler calls one function from
//! this module. With the `trace` cargo feature **off**, the module is the
//! empty twin below — every hook is an `#[inline(always)]` no-op, so
//! nothing observes the hot path and the scheduler compiles exactly as
//! before. With the feature **on**, hooks are still no-ops unless the
//! runtime was built with [`crate::Config`]`::tracing(true)` (the buffers
//! are simply absent otherwise) and/or `Config::flight_recorder` (the
//! flight rings likewise).
//!
//! Hooks never block and never allocate: rings are wait-free SPSC with a
//! drop-newest overflow policy (flight rings overwrite-oldest), and
//! histograms are relaxed `fetch_add`s.
//!
//! Deque-lifecycle hooks carry the frame involved, giving events causal
//! identity (see `nowa_trace::EventKind`): post-run analysis replays the
//! deques and rebuilds the fork/join DAG from the stream.

#[cfg(feature = "trace")]
// Shared safety contract for every hook in this module: `worker` must point
// to the calling worker's live `Worker` (the scheduler invokes hooks only
// from that worker's own loop), which makes the derefs in `buf`/`flight`
// sound. The contract is spelled once here — mirroring the no-op arm —
// instead of on each of the eighteen hooks.
#[allow(clippy::missing_safety_doc)]
mod imp {
    use nowa_trace::{frame_id, EventKind, FlightRing, TraceBuffer};

    use crate::record::Frame;
    use crate::worker::Worker;

    /// The calling worker's trace buffer, when tracing is enabled.
    ///
    /// # Safety
    /// `worker` must be a live worker pointer owned by the calling thread.
    #[inline]
    unsafe fn buf<'a>(worker: *mut Worker) -> Option<&'a TraceBuffer> {
        unsafe {
            let w = &*worker;
            w.shared.trace.as_deref().map(|t| &t[w.index])
        }
    }

    /// The calling worker's flight ring, when the flight recorder is on.
    ///
    /// # Safety
    /// `worker` must be a live worker pointer owned by the calling thread.
    #[inline]
    unsafe fn flight<'a>(worker: *mut Worker) -> Option<&'a FlightRing> {
        unsafe {
            let w = &*worker;
            w.shared.flight.as_deref().map(|t| &t[w.index])
        }
    }

    /// A continuation of `frame` was offered to thieves. Called for
    /// offered spawns only: only they create a deque record, and a causal
    /// [`EventKind::Spawn`] for an elided offer would be a phantom record
    /// in DAG replay. `occupancy` is the caller's protocol-typed probe of
    /// its own deque, run only on sampled spawns.
    // lint: hot-path
    #[inline]
    pub(crate) unsafe fn on_spawn(
        worker: *mut Worker,
        frame: *const Frame,
        occupancy: impl FnOnce() -> u64,
    ) {
        unsafe {
            let id = frame_id(frame as *const ());
            if let Some(b) = buf(worker) {
                b.spawn(id, occupancy);
            }
            if let Some(f) = flight(worker) {
                f.record_now(EventKind::Spawn, id);
            }
        }
    }

    /// A steal attempt found `victim`'s deque empty. Suppressed while the
    /// worker is deep-idle: an idle worker re-sweeps every victim many
    /// thousand times a second and would evict everything else from the
    /// ring; the [`EventKind::Idle`] span summarises the period instead
    /// (the `steal_empty` *counter* in [`crate::stats`] still counts all).
    /// Never recorded to the flight ring for the same reason.
    #[inline]
    pub(crate) unsafe fn on_steal_empty(worker: *mut Worker, victim: usize) {
        unsafe {
            if let Some(b) = buf(worker) {
                if !b.is_idle() {
                    b.event(EventKind::StealEmpty, victim as u64);
                }
            }
        }
    }

    /// A steal attempt lost a race and will retry.
    #[inline]
    pub(crate) unsafe fn on_steal_retry(worker: *mut Worker, victim: usize) {
        unsafe {
            if let Some(b) = buf(worker) {
                b.event(EventKind::StealRetry, victim as u64);
            }
        }
    }

    /// A steal of `frame`'s record from `victim` succeeded; starts the
    /// steal-to-first-poll clock.
    // lint: hot-path
    #[inline]
    pub(crate) unsafe fn on_steal_success(worker: *mut Worker, victim: usize, frame: *const Frame) {
        unsafe {
            let id = frame_id(frame as *const ());
            if let Some(b) = buf(worker) {
                b.idle_exit();
                b.steal_success(victim, id);
            }
            if let Some(f) = flight(worker) {
                f.record_now(EventKind::Steal, nowa_trace::pack_steal_arg(victim, id));
            }
        }
    }

    /// A resumed continuation re-established its stack invariant; stops
    /// the steal-to-first-poll clock if one is running.
    #[inline]
    pub(crate) unsafe fn on_resume_finished(worker: *mut Worker) {
        unsafe {
            if let Some(b) = buf(worker) {
                b.resume_finished();
            }
        }
    }

    /// Fast-path pop: the spawner reclaimed its own continuation of
    /// `frame`.
    // lint: hot-path
    #[inline]
    pub(crate) unsafe fn on_fast_pop(worker: *mut Worker, frame: *const Frame) {
        unsafe {
            let id = frame_id(frame as *const ());
            if let Some(b) = buf(worker) {
                b.hot_event(EventKind::FastPop, id);
            }
            if let Some(f) = flight(worker) {
                f.record_now(EventKind::FastPop, id);
            }
        }
    }

    /// The work-finding loop took `frame`'s record from its own deque.
    #[inline]
    pub(crate) unsafe fn on_own_take(worker: *mut Worker, frame: *const Frame) {
        unsafe {
            let id = frame_id(frame as *const ());
            if let Some(b) = buf(worker) {
                b.idle_exit();
                b.event(EventKind::OwnTake, id);
            }
            if let Some(f) = flight(worker) {
                f.record_now(EventKind::OwnTake, id);
            }
        }
    }

    /// A root task was taken from the injector.
    #[inline]
    pub(crate) unsafe fn on_root(worker: *mut Worker) {
        unsafe {
            if let Some(b) = buf(worker) {
                b.idle_exit();
                b.event(EventKind::Root, 0);
            }
            if let Some(f) = flight(worker) {
                f.record_now(EventKind::Root, 0);
            }
        }
    }

    /// A child of `frame` joined (its continuation was consumed
    /// elsewhere).
    // lint: hot-path
    #[inline]
    pub(crate) unsafe fn on_join(worker: *mut Worker, frame: *const Frame) {
        unsafe {
            let id = frame_id(frame as *const ());
            if let Some(b) = buf(worker) {
                b.hot_event(EventKind::Join, id);
            }
            if let Some(f) = flight(worker) {
                f.record_now(EventKind::Join, id);
            }
        }
    }

    /// An explicit sync on `frame` was satisfied without suspending.
    // lint: hot-path
    #[inline]
    pub(crate) unsafe fn on_sync_inline(worker: *mut Worker, frame: *const Frame) {
        unsafe {
            let id = frame_id(frame as *const ());
            if let Some(b) = buf(worker) {
                b.hot_event(EventKind::SyncInline, id);
            }
            if let Some(f) = flight(worker) {
                f.record_now(EventKind::SyncInline, id);
            }
        }
    }

    /// An explicit sync suspended `frame`.
    #[inline]
    pub(crate) unsafe fn on_sync_suspend(worker: *mut Worker, frame: *const Frame) {
        unsafe {
            let id = frame_id(frame as *const ());
            if let Some(b) = buf(worker) {
                b.event(EventKind::SyncSuspend, id);
            }
            if let Some(f) = flight(worker) {
                f.record_now(EventKind::SyncSuspend, id);
            }
        }
    }

    /// A suspended sync continuation of `frame` is being resumed.
    #[inline]
    pub(crate) unsafe fn on_sync_resume(worker: *mut Worker, frame: *const Frame) {
        unsafe {
            let id = frame_id(frame as *const ());
            if let Some(b) = buf(worker) {
                b.idle_exit();
                b.event(EventKind::SyncResume, id);
            }
            if let Some(f) = flight(worker) {
                f.record_now(EventKind::SyncResume, id);
            }
        }
    }

    /// A steal sweep found nothing (the worker is going idle). Idempotent.
    #[inline]
    pub(crate) unsafe fn on_idle(worker: *mut Worker) {
        unsafe {
            if let Some(b) = buf(worker) {
                b.idle_enter();
            }
        }
    }

    /// The worker is entering a futex park (idle engine deep descent).
    #[inline]
    pub(crate) unsafe fn on_park(worker: *mut Worker) {
        unsafe {
            if let Some(b) = buf(worker) {
                b.park_begin();
            }
            if let Some(f) = flight(worker) {
                f.record_now(EventKind::Park, 0);
            }
        }
    }

    /// The worker's park ended (wake, timeout, or stale epoch).
    #[inline]
    pub(crate) unsafe fn on_unpark(worker: *mut Worker) {
        unsafe {
            if let Some(b) = buf(worker) {
                b.park_end();
            }
            if let Some(f) = flight(worker) {
                f.record_now(EventKind::Unpark, 0);
            }
        }
    }

    /// This worker issued a targeted wake of worker `target`.
    #[inline]
    pub(crate) unsafe fn on_wake(worker: *mut Worker, target: usize) {
        unsafe {
            if let Some(b) = buf(worker) {
                b.wake(target);
            }
            if let Some(f) = flight(worker) {
                f.record_now(EventKind::Wake, target as u64);
            }
        }
    }

    /// A cooperative checkpoint on `frame` observed a cancelled scope and
    /// is raising `Cancelled`. Rare by construction (each strand raises at
    /// most once), so it goes through the ordinary event path, not the
    /// hot ring. `frame` may be null (an ambient checkpoint outside any
    /// join frame); null maps to id 0.
    #[inline]
    pub(crate) unsafe fn on_cancel(worker: *mut Worker, frame: *const Frame) {
        unsafe {
            let id = if frame.is_null() {
                0
            } else {
                frame_id(frame as *const ())
            };
            if let Some(b) = buf(worker) {
                b.event(EventKind::Cancel, id);
            }
            if let Some(f) = flight(worker) {
                f.record_now(EventKind::Cancel, id);
            }
        }
    }

    /// A suspended sync continuation of `frame` is being resumed into a
    /// cancelled scope — the abort path: the last joiner retired the
    /// suspension and the continuation wakes specifically to unwind.
    #[inline]
    pub(crate) unsafe fn on_abort(worker: *mut Worker, frame: *const Frame) {
        unsafe {
            let id = frame_id(frame as *const ());
            if let Some(b) = buf(worker) {
                b.idle_exit();
                b.event(EventKind::Abort, id);
            }
            if let Some(f) = flight(worker) {
                f.record_now(EventKind::Abort, id);
            }
        }
    }

    /// A `block_on` continuation (cell `id`) is parking behind a waker.
    #[inline]
    pub(crate) unsafe fn on_async_park(worker: *mut Worker, id: u64) {
        unsafe {
            if let Some(b) = buf(worker) {
                b.event(EventKind::AsyncPark, id);
            }
            if let Some(f) = flight(worker) {
                f.record_now(EventKind::AsyncPark, id);
            }
        }
    }

    /// A parked async continuation (cell `id`) is being resumed.
    #[inline]
    pub(crate) unsafe fn on_async_resume(worker: *mut Worker, id: u64) {
        unsafe {
            if let Some(b) = buf(worker) {
                b.idle_exit();
                b.event(EventKind::AsyncWake, id);
            }
            if let Some(f) = flight(worker) {
                f.record_now(EventKind::AsyncWake, id);
            }
        }
    }

    /// This worker completed one reactor poll dispatching `events` I/O
    /// events. Suppressed when nothing was dispatched — an idle serving
    /// runtime polls every `max_park` and would flood the ring.
    #[inline]
    pub(crate) unsafe fn on_reactor_poll(worker: *mut Worker, events: u64) {
        unsafe {
            if events == 0 {
                return;
            }
            if let Some(b) = buf(worker) {
                b.event(EventKind::ReactorPoll, events);
            }
            if let Some(f) = flight(worker) {
                f.record_now(EventKind::ReactorPoll, events);
            }
        }
    }

    /// This worker's reactor poll fired `count` timer-wheel entries.
    #[inline]
    pub(crate) unsafe fn on_timer_fire(worker: *mut Worker, count: u64) {
        unsafe {
            if count == 0 {
                return;
            }
            if let Some(b) = buf(worker) {
                b.event(EventKind::TimerFire, count);
            }
            if let Some(f) = flight(worker) {
                f.record_now(EventKind::TimerFire, count);
            }
        }
    }
}

#[cfg(not(feature = "trace"))]
#[allow(clippy::missing_safety_doc)]
mod imp {
    use crate::record::Frame;
    use crate::worker::Worker;

    #[inline(always)]
    pub(crate) unsafe fn on_spawn(_: *mut Worker, _: *const Frame, _: impl FnOnce() -> u64) {}
    #[inline(always)]
    pub(crate) unsafe fn on_steal_empty(_: *mut Worker, _: usize) {}
    #[inline(always)]
    pub(crate) unsafe fn on_steal_retry(_: *mut Worker, _: usize) {}
    #[inline(always)]
    pub(crate) unsafe fn on_steal_success(_: *mut Worker, _: usize, _: *const Frame) {}
    #[inline(always)]
    pub(crate) unsafe fn on_resume_finished(_: *mut Worker) {}
    #[inline(always)]
    pub(crate) unsafe fn on_fast_pop(_: *mut Worker, _: *const Frame) {}
    #[inline(always)]
    pub(crate) unsafe fn on_own_take(_: *mut Worker, _: *const Frame) {}
    #[inline(always)]
    pub(crate) unsafe fn on_root(_: *mut Worker) {}
    #[inline(always)]
    pub(crate) unsafe fn on_join(_: *mut Worker, _: *const Frame) {}
    #[inline(always)]
    pub(crate) unsafe fn on_sync_inline(_: *mut Worker, _: *const Frame) {}
    #[inline(always)]
    pub(crate) unsafe fn on_sync_suspend(_: *mut Worker, _: *const Frame) {}
    #[inline(always)]
    pub(crate) unsafe fn on_sync_resume(_: *mut Worker, _: *const Frame) {}
    #[inline(always)]
    pub(crate) unsafe fn on_idle(_: *mut Worker) {}
    #[inline(always)]
    pub(crate) unsafe fn on_park(_: *mut Worker) {}
    #[inline(always)]
    pub(crate) unsafe fn on_unpark(_: *mut Worker) {}
    #[inline(always)]
    pub(crate) unsafe fn on_wake(_: *mut Worker, _: usize) {}
    #[inline(always)]
    pub(crate) unsafe fn on_cancel(_: *mut Worker, _: *const Frame) {}
    #[inline(always)]
    pub(crate) unsafe fn on_abort(_: *mut Worker, _: *const Frame) {}
    #[inline(always)]
    pub(crate) unsafe fn on_async_park(_: *mut Worker, _: u64) {}
    #[inline(always)]
    pub(crate) unsafe fn on_async_resume(_: *mut Worker, _: u64) {}
    #[inline(always)]
    pub(crate) unsafe fn on_reactor_poll(_: *mut Worker, _: u64) {}
    #[inline(always)]
    pub(crate) unsafe fn on_timer_fire(_: *mut Worker, _: u64) {}
}

pub(crate) use imp::*;
