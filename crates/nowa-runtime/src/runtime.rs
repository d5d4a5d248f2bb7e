//! The runtime instance: worker threads, submission, shutdown.

use crate::sync::{AtomicBool, AtomicU64, Ordering};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nowa_context::{RawContext, StackPool, WorkerStackCache};
use parking_lot::Mutex;

use crate::cancel::{CancelCell, CancelReason};
use crate::config::Config;
use crate::flavor::{with_protocol, Flavor, Protocol};
use crate::idle::IdleState;
use crate::injector::Injector;
use crate::snapshot::Snapshot;
use crate::stats::StatsSnapshot;
use crate::task;
use crate::worker::{current_worker, worker_main, FlavoredWorker, Shared, Worker};

/// The shared state the guard-page crash hook renders its post-mortem
/// from. A plain `fn()` hook cannot capture, so the most recent runtime
/// with event rings registers itself here (best-effort diagnostics; last
/// one wins).
#[cfg(feature = "trace")]
static CRASH_SHARED: Mutex<std::sync::Weak<Shared>> = Mutex::new(std::sync::Weak::new());

/// Crash hook installed with the guard-page handler: prints the
/// post-mortem of the dying runtime. Runs inside a signal handler — the
/// process is already doomed, so allocation/locking here is best-effort
/// by design.
#[cfg(feature = "trace")]
fn crash_postmortem() {
    let shared = CRASH_SHARED.lock().upgrade();
    if let Some(shared) = shared {
        eprint!("{}", shared.postmortem("nowa", "crash"));
    }
}

/// A running Nowa runtime instance.
///
/// Spawns `config.workers` worker threads on creation; [`Runtime::run`]
/// submits a root task and blocks until it completes. Dropping the runtime
/// shuts the workers down.
///
/// ```
/// use nowa_runtime::{Config, Runtime};
///
/// let rt = Runtime::new(Config::with_workers(2)).unwrap();
/// let sum = rt.run(|| {
///     let (a, b) = nowa_runtime::api::join2(|| 1 + 2, || 3 + 4);
///     a + b
/// });
/// assert_eq!(sum, 10);
/// ```
pub struct Runtime {
    shared: Arc<Shared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
    /// Memoized shutdown outcome: makes [`Runtime::shutdown`] idempotent
    /// and lets `Drop` skip the work after an explicit call.
    done: Mutex<Option<Result<(), ShutdownError>>>,
}

/// Error constructing a runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// `workers` was zero.
    NoWorkers,
    /// Installing the guard-page SIGSEGV handler failed.
    GuardHandler(i32),
    /// Creating the I/O reactor failed (errno from `epoll_create1`,
    /// `eventfd2`, or the kick-fd registration).
    Reactor(i32),
}

impl core::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RuntimeError::NoWorkers => write!(f, "runtime needs at least one worker"),
            RuntimeError::GuardHandler(errno) => {
                write!(
                    f,
                    "installing the guard-page handler failed (errno {errno})"
                )
            }
            RuntimeError::Reactor(errno) => {
                write!(f, "creating the I/O reactor failed (errno {errno})")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// A shutdown that did not complete cleanly within its timeout.
///
/// Partial success is reported faithfully: workers that exited but died by
/// panic are in `panicked`; workers still running at the deadline (a task
/// ignoring cancellation, or a scheduler bug) are in `stuck` and have been
/// detached, not killed — their threads may still be alive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShutdownError {
    /// Thread names of workers still running when the timeout expired.
    pub stuck: Vec<String>,
    /// `(thread name, panic message)` for workers that exited by panic.
    pub panicked: Vec<(String, String)>,
}

impl core::fmt::Display for ShutdownError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "runtime shutdown incomplete:")?;
        for name in &self.stuck {
            write!(f, " [{name}: still running at timeout]")?;
        }
        for (name, msg) in &self.panicked {
            write!(f, " [{name}: panicked: {msg}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for ShutdownError {}

/// Renders a worker's panic payload for [`ShutdownError::panicked`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_owned())
}

/// Creates the deques of a runtime running protocol `P` and starts its
/// worker threads.
fn spawn_workers<P: Protocol>(shared: &Arc<Shared>, started: &Arc<Barrier>) -> Vec<JoinHandle<()>> {
    let config = &shared.config;
    let (owners, stealers): (Vec<_>, Vec<_>) = (0..config.workers)
        .map(|_| P::new_deque(config.deque_capacity, config.split))
        .unzip();
    let stealers: Arc<[P::Stealer]> = stealers.into();
    owners
        .into_iter()
        .enumerate()
        .map(|(index, deque)| {
            let worker = Box::new(FlavoredWorker::<P> {
                base: Worker {
                    flavor: config.flavor,
                    index,
                    shared: shared.clone(),
                    stats: core::ptr::NonNull::from(&shared.stats[index]),
                    cache: WorkerStackCache::new(shared.pool.clone(), config.stack_cache),
                    current_stack: None,
                    incoming_stack: None,
                    pending_recycle: None,
                    exit_ctx: RawContext::null(),
                    rng: 0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(index as u64 + 1) | 1,
                    last_victim: usize::MAX,
                    cancel_scope: &shared.cancel_root,
                    woken: Vec::new(),
                    #[cfg(feature = "trace")]
                    stamp: Default::default(),
                },
                deque,
                stealers: stealers.clone(),
            });
            let started = started.clone();
            std::thread::Builder::new()
                .name(format!("nowa-worker-{index}"))
                // Workers barely use their OS stack (all task execution
                // happens on fiber stacks), but unwinding diagnostics do.
                .stack_size(256 * 1024)
                .spawn(move || worker_main(worker, &started))
                .expect("spawning worker thread")
        })
        .collect()
}

impl Runtime {
    /// Builds a runtime and starts its workers, returning once every
    /// runtime thread is running.
    ///
    /// The workers begin stealing immediately but have nothing to run
    /// until [`run`](Runtime::run) submits a root task. Construction can
    /// fail — zero workers, a rejected guard-page handler, or no reactor —
    /// and failure leaves no OS state behind.
    ///
    /// # Example
    ///
    /// ```
    /// use nowa_runtime::{Config, Runtime};
    ///
    /// let rt = Runtime::new(Config::with_workers(2)).unwrap();
    /// assert_eq!(rt.run(|| 6 * 7), 42);
    ///
    /// // Zero workers is rejected, not clamped.
    /// assert!(Runtime::new(Config::with_workers(0)).is_err());
    /// ```
    pub fn new(config: Config) -> Result<Runtime, RuntimeError> {
        if config.workers == 0 {
            return Err(RuntimeError::NoWorkers);
        }
        // The guard-page SIGSEGV handler reports a fiber stack overflow
        // (worker, stack bounds, fault address) instead of an anonymous
        // segfault; non-guard faults chain to the previous handler.
        // Process-wide and idempotent; failure is surfaced, not fatal to
        // the OS state (nothing was installed on error).
        nowa_context::signal::install_guard_handler()
            .map_err(|e| RuntimeError::GuardHandler(e.0))?;
        let pool = StackPool::new(config.stack_size, config.madvise, config.pool_stripes);

        let stats = (0..config.workers).map(|_| Default::default()).collect();

        let shared = Arc::new(Shared {
            stats,
            injector: Injector::new(),
            idle: IdleState::new(config.workers),
            shutdown: AtomicBool::new(false),
            cancel_root: CancelCell::new(core::ptr::null()),
            active_roots: AtomicU64::new(0),
            async_waiters: Default::default(),
            reactor: crate::reactor::Reactor::new().map_err(|e| RuntimeError::Reactor(e.0))?,
            pool: pool.clone(),
            #[cfg(feature = "trace")]
            trace: (config.tracing || config.trace_ring.is_some()).then(|| {
                let capacity = config
                    .trace_ring
                    .unwrap_or(nowa_trace::DEFAULT_RING_CAPACITY);
                (0..config.workers)
                    .map(|_| nowa_trace::TraceBuffer::new(capacity))
                    .collect()
            }),
            #[cfg(feature = "chaos")]
            chaos: config.chaos.map(|c| {
                (0..config.workers)
                    .map(|i| crate::chaos::ChaosWorkerState::new(c.seed, i))
                    .collect()
            }),
            watchdog_reports: crate::sync::AtomicU64::new(0),
            config: config.clone(),
        });

        #[cfg(feature = "trace")]
        if shared.trace.is_some() {
            *CRASH_SHARED.lock() = Arc::downgrade(&shared);
            nowa_context::signal::set_crash_hook(crash_postmortem);
        }

        // Every runtime thread checks in once it has made its first
        // allocation, and `new` returns only after all have. glibc binds a
        // thread to a malloc arena at that first allocation, handing out
        // the arena an exited thread released last: without the wait, a
        // thread the caller starts next could take an arena before ours
        // do, and which arena holds whose freed memory — so the process's
        // resident size — would turn on that race. Parties: the workers,
        // the watchdog and this thread.
        let started = Arc::new(Barrier::new(config.workers + 2));

        // Always spawned: the thread fires deadlines when no worker polls
        // the reactor, even when the stall watchdog (`config.watchdog`) is
        // off, and naps on the deadline map when it has nothing to do.
        let watchdog = Some(crate::watchdog::spawn(shared.clone(), started.clone()));

        // The flavor is resolved here, once: every worker is built as a
        // `FlavoredWorker<P>` and tagged with the flavor `P` came from.
        let threads = with_protocol!(config.flavor, P => spawn_workers::<P>(&shared, &started));
        started.wait();

        Ok(Runtime {
            shared,
            threads: Mutex::new(threads),
            watchdog: Mutex::new(watchdog),
            done: Mutex::new(None),
        })
    }

    /// Convenience: default configuration with `workers` threads.
    pub fn with_workers(workers: usize) -> Result<Runtime, RuntimeError> {
        Runtime::new(Config::with_workers(workers))
    }

    /// The flavor this runtime was built with.
    pub fn flavor(&self) -> Flavor {
        self.shared.config.flavor
    }

    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.config.workers
    }

    /// Everything the runtime can report about itself, read at one
    /// instant: per-worker and aggregate scheduler counters, stack-pool
    /// activity, idle workers, watchdog reports, registered reactor
    /// sources, armed deadlines and (when compiled and
    /// configured) fault-injection counters. Pull-based — each call
    /// re-reads the relaxed counters; there is no background thread and no
    /// hot-path cost. Render it with [`Snapshot::render_table`],
    /// [`render_prometheus`](Snapshot::render_prometheus) or
    /// [`render_json`](Snapshot::render_json).
    pub fn snapshot(&self) -> Snapshot {
        self.shared.snapshot()
    }

    /// Aggregated scheduler statistics since startup: the `scheduler`
    /// part of [`Runtime::snapshot`], without building the rest.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::aggregate(&self.shared.stats)
    }

    /// Stack-pool statistics `(global gets, global puts, mmaps)`: the
    /// `pool` part of [`Runtime::snapshot`].
    pub fn pool_stats(&self) -> (u64, u64, u64) {
        self.shared.pool.stats().snapshot()
    }

    /// The shared state, for unit tests that inspect runtime internals.
    #[cfg(test)]
    pub(crate) fn shared(&self) -> &Shared {
        &self.shared
    }

    /// Drains the per-worker event rings and merges everything recorded
    /// since the last drain into a [`nowa_trace::TraceReport`]. `None`
    /// unless the runtime was configured with [`Config::tracing`]`(true)`.
    ///
    /// Draining consumes the events (events a full ring overwrote first
    /// count as dropped) but histograms are cumulative. This is the rings'
    /// one consumer: failure reports only snapshot them. Safe to call
    /// between [`Runtime::run`]s; calling it *during* a run yields a
    /// consistent prefix of each worker's stream.
    #[cfg(feature = "trace")]
    pub fn trace_report(&self) -> Option<nowa_trace::TraceReport> {
        let tracing = self.shared.config.tracing;
        let buffers = self.shared.trace.as_deref().filter(|_| tracing)?;
        Some(nowa_trace::TraceReport::collect(buffers))
    }

    /// The flight recorder's dump: the newest events of every worker's
    /// ring, merged by timestamp. `None` unless the runtime has event
    /// rings ([`Config::trace_ring`] or [`Config::tracing`]). Takes
    /// nothing from `trace_report`; safe to call at any time, including
    /// while tasks are running.
    #[cfg(feature = "trace")]
    pub fn flight_dump(&self) -> Option<String> {
        self.shared.trace.as_deref().map(nowa_trace::tail)
    }

    /// Runs `f` as a root task on the runtime and blocks until it finishes,
    /// returning its result. Panics in `f` (or any strand it spawns) are
    /// propagated to the caller.
    ///
    /// Must not be called from inside a task running on a runtime (no
    /// nested blocking — it would deadlock a worker); task code composes
    /// with [`crate::api::join2`] and friends instead.
    pub fn run<R, F>(&self, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        assert!(
            current_worker().is_null(),
            "Runtime::run must not be called from inside a task; use api::join2 / api::scope"
        );
        // The root's completion slot is a `spawn_async` join handle, which
        // this thread awaits off-runtime.
        let (slot, handle) = task::join_pair();
        {
            let shared = self.shared.clone();
            // Counted before the push so `shutdown`'s drain wait can never
            // observe zero while a submitted task is still in flight.
            // ordering: AcqRel — the decrement releases the task's writes
            // (the filled completion slot) to shutdown's Acquire drain load.
            self.shared.active_roots.fetch_add(1, Ordering::AcqRel);
            let root: Box<dyn FnOnce() + Send> = Box::new(move || {
                task::complete_join(&slot, catch_unwind(AssertUnwindSafe(f)));
                // ordering: AcqRel — see the increment above.
                shared.active_roots.fetch_sub(1, Ordering::AcqRel);
            });
            // SAFETY: lifetime erasure of `f`'s borrows (and `R`). Sound
            // because this function blocks until the task has completed and
            // the completion slot has been consumed — the same argument as
            // `std::thread::scope`.
            let root: Box<dyn FnOnce() + Send + 'static> = unsafe { core::mem::transmute(root) };
            if !self.shared.injector.push_root(root) {
                // ordering: AcqRel — undo of the pre-push increment.
                self.shared.active_roots.fetch_sub(1, Ordering::AcqRel);
                panic!("runtime is shut down");
            }
            crate::worker::wake_from_outside(&self.shared);
        }

        match task::block_on_thread(handle) {
            Ok(result) => result,
            Err(payload) => {
                // A propagating task panic is exactly what the flight
                // recorder exists for: print the post-mortem, final
                // scheduler events included, before the unwind leaves the
                // runtime.
                #[cfg(feature = "trace")]
                if self.shared.trace.is_some() {
                    eprint!("{}", self.shared.postmortem("nowa", "task panic"));
                }
                resume_unwind(payload)
            }
        }
    }

    /// Graceful shutdown: cancels in-flight work, refuses new submissions,
    /// and joins every runtime thread, all bounded by `timeout`.
    ///
    /// The sequence: the root cancellation scope is latched with
    /// [`CancelReason::Shutdown`] (every cooperative checkpoint in every
    /// in-flight task starts unwinding), the outside queue is closed to
    /// root tasks (later [`run`](Runtime::run) calls panic with "runtime is
    /// shut down"),
    /// and the call waits for in-flight root tasks to drain before
    /// flipping the worker-exit flag and joining threads.
    ///
    /// `Ok(())` means full quiescence: no task running, every worker and
    /// the watchdog joined. Otherwise the [`ShutdownError`] enumerates
    /// workers that panicked and workers still stuck at the deadline
    /// (detached, not killed). Idempotent — the first outcome is memoized
    /// and returned to later callers, including the implicit one in `Drop`.
    pub fn shutdown(&self, timeout: Duration) -> Result<(), ShutdownError> {
        assert!(
            current_worker().is_null(),
            "Runtime::shutdown must not be called from inside a task"
        );
        let mut done = self.done.lock();
        if let Some(result) = &*done {
            return result.clone();
        }
        let deadline = Instant::now() + timeout;
        const POLL: Duration = Duration::from_micros(200);

        // Cancel before closing: a task observing the closed queue has a
        // cancelled ambient scope to unwind with.
        self.shared.cancel_root.cancel(CancelReason::Shutdown);
        self.shared.injector.close();
        // Parked workers hold no tasks; waking them here just accelerates
        // the exit-flag observation below. Running ones see the root latch
        // at their next checkpoint.
        self.shared.idle.wake_all();
        // Async strands parked behind wakers have no checkpoint to trip:
        // broadcast to every registered cell so their `block_on` loops
        // re-check the (now latched) scope chain and unwind, and kick the
        // reactor so a claimed poller re-scans instead of napping.
        self.shared.async_waiters.wake_all();
        self.shared.reactor.kick();

        // Drain: wait (bounded) for in-flight root tasks to finish their
        // cooperative unwind. Workers must keep scheduling during this
        // window — a suspended continuation still needs its joiners to run
        // so the abort-resume at the sync can happen.
        loop {
            // ordering: Acquire — pairs with the AcqRel decrement in the
            // completion closure; zero here means those tasks' effects
            // (filled completion slots) are visible.
            let drained = self.shared.active_roots.load(Ordering::Acquire) == 0;
            if drained || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(POLL);
        }

        // Quiesce: tell worker loops to exit, and wake everything that
        // could be sleeping — parked workers and the deadline watchdog.
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.idle.wake_all();
        self.shared.reactor.kick();
        self.shared.reactor.deadlines.close();

        let mut error = ShutdownError::default();
        for t in self.threads.lock().drain(..) {
            let name = t
                .thread()
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| "<unnamed>".to_owned());
            while !t.is_finished() && Instant::now() < deadline {
                std::thread::sleep(POLL);
            }
            if t.is_finished() {
                if let Err(payload) = t.join() {
                    error.panicked.push((name, panic_message(&*payload)));
                }
            } else {
                // Detach: joining would block past the caller's budget. The
                // thread stays alive (we cannot kill it), which is exactly
                // what `stuck` reports.
                error.stuck.push(name);
            }
        }
        if let Some(w) = self.watchdog.lock().take() {
            // The deadline map was closed above, so the watchdog naps no
            // more and sees the exit flag; its join is prompt.
            if let Err(payload) = w.join() {
                error
                    .panicked
                    .push(("nowa-watchdog".to_owned(), panic_message(&*payload)));
            }
        }

        let result = if error.stuck.is_empty() && error.panicked.is_empty() {
            Ok(())
        } else {
            // A shutdown timeout is a post-mortem moment like a crash or
            // a task panic: explain the wedge while the rings are alive.
            #[cfg(feature = "trace")]
            if self.shared.trace.is_some() {
                eprint!("{}", self.shared.postmortem("nowa", "shutdown timeout"));
            }
            Err(error)
        };
        *done = Some(result.clone());
        result
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Best-effort wrapper over the real shutdown path. A worker dying
        // by panic is a runtime bug — surfaced on stderr here because Drop
        // cannot return the typed error; call `shutdown` to receive it.
        if let Err(e) = self.shutdown(Duration::from_secs(10)) {
            eprintln!("nowa-runtime: {e}");
        }
    }
}
