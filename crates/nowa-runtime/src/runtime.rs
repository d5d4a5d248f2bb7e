//! The runtime instance: worker threads, submission, shutdown.

use crate::sync::{AtomicBool, AtomicU64, Ordering};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nowa_context::{RawContext, StackError, StackPool, WorkerStackCache};
use parking_lot::{Condvar, Mutex};

use crate::cancel::{CancelCell, CancelReason, DeadlineQueue};
use crate::config::Config;
use crate::flavor::{with_protocol, Flavor, Protocol};
use crate::idle::IdleState;
use crate::injector::Injector;
use crate::stats::StatsSnapshot;
use crate::worker::{current_worker, worker_main, FlavoredWorker, RootTask, Shared, Worker};

/// The shared state the guard-page crash hook dumps trace data from. A
/// plain `fn()` hook cannot capture, so the most recent tracing-enabled
/// runtime registers itself here (best-effort diagnostics; last one wins).
#[cfg(feature = "trace")]
static CRASH_SHARED: Mutex<std::sync::Weak<Shared>> = Mutex::new(std::sync::Weak::new());

/// Crash hook installed with the guard-page handler: dumps the last trace
/// events of the dying process. Runs inside a signal handler — the process
/// is already doomed, so allocation/locking here is best-effort by design.
///
/// The flight recorder is dumped first: it is the always-available bounded
/// history (last N events per worker, exact ordering), whereas the trace
/// report only exists when full tracing was on and summarises rather than
/// replays.
#[cfg(feature = "trace")]
fn crash_trace_dump() {
    let shared = CRASH_SHARED.lock().upgrade();
    if let Some(shared) = shared {
        if let Some(rings) = shared.flight.as_deref() {
            eprintln!(
                "nowa: flight recorder at crash:\n{}",
                nowa_trace::flight::dump(rings)
            );
        }
        if let Some(buffers) = shared.trace.as_deref() {
            let report = nowa_trace::TraceReport::collect(buffers);
            eprintln!("nowa: trace report at crash:\n{}", report.summary_table());
        }
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
    /// Pre-filling the stack pool failed (e.g. out of memory). The runtime
    /// was not constructed; nothing aborts.
    StackPrefill(StackError),
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
            RuntimeError::StackPrefill(e) => write!(f, "stack pool prefill failed: {e}"),
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

struct Completion<R> {
    result: Mutex<Option<std::thread::Result<R>>>,
    cv: Condvar,
}

/// Creates the deques of a runtime running protocol `P` and starts its
/// worker threads.
fn spawn_workers<P: Protocol>(shared: &Arc<Shared>) -> Vec<JoinHandle<()>> {
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
                    cache: WorkerStackCache::new(shared.pool.clone(), config.stack_cache),
                    current_stack: None,
                    incoming_stack: None,
                    pending_recycle: None,
                    exit_ctx: RawContext::null(),
                    rng: 0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(index as u64 + 1) | 1,
                    last_victim: usize::MAX,
                    cancel_scope: &shared.cancel_root,
                },
                deque,
                stealers: stealers.clone(),
            });
            std::thread::Builder::new()
                .name(format!("nowa-worker-{index}"))
                // Workers barely use their OS stack (all task execution
                // happens on fiber stacks), but unwinding diagnostics do.
                .stack_size(256 * 1024)
                .spawn(move || worker_main(worker))
                .expect("spawning worker thread")
        })
        .collect()
}

impl Runtime {
    /// Builds a runtime and starts its workers.
    ///
    /// The workers begin stealing immediately but have nothing to run
    /// until [`run`](Runtime::run) submits a root task. Construction can
    /// fail — zero workers, stack-pool prefill failure, or a rejected
    /// guard-page handler — and failure leaves no OS state behind.
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
        if config.guard_diagnostics {
            // Process-wide and idempotent; failure is surfaced, not fatal
            // to the OS state (nothing was installed on error).
            nowa_context::signal::install_guard_handler()
                .map_err(|e| RuntimeError::GuardHandler(e.0))?;
        }
        let pool = StackPool::new(config.stack_size, config.madvise, config.pool_stripes);
        pool.prefill(config.pool_prefill)
            .map_err(RuntimeError::StackPrefill)?;

        let stats = (0..config.workers).map(|_| Default::default()).collect();

        let shared = Arc::new(Shared {
            stats,
            injector: Injector::new(),
            idle: IdleState::new(config.workers),
            shutdown: AtomicBool::new(false),
            cancel_root: CancelCell::new(core::ptr::null()),
            active_roots: AtomicU64::new(0),
            deadlines: DeadlineQueue::default(),
            ready: Injector::new(),
            async_waiters: Default::default(),
            reactor: crate::reactor::Reactor::new().map_err(|e| RuntimeError::Reactor(e.0))?,
            pool: pool.clone(),
            #[cfg(feature = "trace")]
            trace: config.tracing.then(|| {
                (0..config.workers)
                    .map(|_| nowa_trace::TraceBuffer::new(config.trace_ring))
                    .collect()
            }),
            #[cfg(feature = "trace")]
            flight: config.flight.map(|capacity| {
                (0..config.workers)
                    .map(|_| nowa_trace::FlightRing::new(capacity))
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
        if (config.tracing || config.flight.is_some()) && config.guard_diagnostics {
            *CRASH_SHARED.lock() = Arc::downgrade(&shared);
            nowa_context::signal::set_crash_hook(crash_trace_dump);
        }

        // Always spawned: the thread drives region deadlines even when the
        // stall watchdog (`config.watchdog`) is off, and sleeps on the
        // deadline condvar when it has nothing to do.
        let watchdog = Some(crate::watchdog::spawn(shared.clone()));

        // The flavor is resolved here, once: every worker is built as a
        // `FlavoredWorker<P>` and tagged with the flavor `P` came from.
        let threads = with_protocol!(config.flavor, P => spawn_workers::<P>(&shared));

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

    /// Aggregated scheduler statistics since startup.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats_snapshot()
    }

    /// Stack-pool statistics `(global gets, global puts, mmaps)`.
    pub fn pool_stats(&self) -> (u64, u64, u64) {
        self.shared.pool.stats().snapshot()
    }

    /// Stack-map attempts that failed so far (real `ENOMEM` or injected via
    /// the `chaos` feature) and were absorbed by the bounded-retry path.
    pub fn stack_map_failures(&self) -> u64 {
        self.shared.pool.stats().map_failures()
    }

    /// Workers currently announced to the idle engine (parked in a futex
    /// or in the final validation step before parking). Racy snapshot —
    /// useful for observability and for benchmarks that want to start
    /// from a fully-parked runtime.
    pub fn idle_workers(&self) -> usize {
        self.shared.idle.sleepers() as usize
    }

    /// Stall reports emitted by the watchdog since startup (0 when the
    /// watchdog is disabled or every worker kept making progress).
    pub fn watchdog_reports(&self) -> u64 {
        self.shared
            .watchdog_reports
            .load(crate::sync::Ordering::Relaxed)
    }

    /// Fault-injection counters (site visits and injections fired),
    /// aggregated over workers. `None` unless the runtime was configured
    /// with [`Config::chaos`].
    #[cfg(feature = "chaos")]
    pub fn chaos_stats(&self) -> Option<crate::chaos::ChaosSnapshot> {
        self.shared
            .chaos
            .as_deref()
            .map(crate::chaos::ChaosSnapshot::aggregate)
    }

    /// Drains the per-worker trace rings and merges everything recorded so
    /// far into a [`nowa_trace::TraceReport`]. `None` unless the runtime
    /// was configured with [`Config::tracing`]`(true)`.
    ///
    /// Draining consumes the buffered events (a second call reports only
    /// events recorded in between) but histograms are cumulative. Safe to
    /// call between [`Runtime::run`]s; calling it *during* a run yields a
    /// consistent prefix of each worker's stream.
    #[cfg(feature = "trace")]
    pub fn trace_report(&self) -> Option<nowa_trace::TraceReport> {
        self.shared
            .trace
            .as_deref()
            .map(nowa_trace::TraceReport::collect)
    }

    /// Formats a post-mortem dump of the flight recorder: the last moments
    /// of scheduler history across all workers, merged by timestamp. `None`
    /// unless the runtime was configured with [`Config::flight_recorder`].
    ///
    /// Non-destructive (the rings keep recording) and safe to call at any
    /// time, including while tasks are running.
    #[cfg(feature = "trace")]
    pub fn flight_dump(&self) -> Option<String> {
        self.shared.flight.as_deref().map(nowa_trace::flight::dump)
    }

    /// Builds a fresh metrics registry from the runtime's live counters:
    /// per-worker scheduler statistics (also aggregated process-wide),
    /// idle-engine counters, stack-pool activity, and watchdog reports.
    ///
    /// Pull-based: each call re-reads the relaxed counters — no background
    /// thread, no hot-path cost. Encode with
    /// [`nowa_trace::MetricsRegistry::render_prometheus`] /
    /// [`render_json`](nowa_trace::MetricsRegistry::render_json), or use
    /// the [`Runtime::metrics_text`] / [`Runtime::metrics_json`] shortcuts.
    #[cfg(feature = "trace")]
    pub fn metrics_registry(&self) -> nowa_trace::MetricsRegistry {
        use crate::stats::StatsSnapshot;
        let mut reg = nowa_trace::MetricsRegistry::new();
        reg.gauge(
            "nowa_workers",
            "Worker threads in this runtime.",
            self.workers() as f64,
        );
        reg.gauge_with(
            "nowa_build_info",
            "Runtime build information (value is always 1).",
            &[("flavor", self.flavor().name().to_string())],
            1.0,
        );
        reg.gauge(
            "nowa_idle_workers",
            "Workers currently announced to the idle engine.",
            self.idle_workers() as f64,
        );
        reg.counter(
            "nowa_watchdog_reports_total",
            "Stall reports emitted by the watchdog.",
            self.watchdog_reports() as f64,
        );
        let (gets, puts, mmaps) = self.pool_stats();
        reg.counter(
            "nowa_stack_pool_gets_total",
            "Global stack-pool gets.",
            gets as f64,
        );
        reg.counter(
            "nowa_stack_pool_puts_total",
            "Global stack-pool puts.",
            puts as f64,
        );
        reg.counter(
            "nowa_stack_mmaps_total",
            "Stacks mapped from the OS.",
            mmaps as f64,
        );
        reg.counter(
            "nowa_stack_map_failures_total",
            "Stack-map attempts absorbed by the bounded-retry path.",
            self.stack_map_failures() as f64,
        );

        let s = self.stats();
        let totals: [(&str, &str, u64); 26] = [
            (
                "nowa_spawns_total",
                "Continuations offered to thieves.",
                s.spawns,
            ),
            (
                "nowa_unoffered_total",
                "Spawns elided (deque full).",
                s.unoffered,
            ),
            (
                "nowa_fast_pops_total",
                "Fast-path continuation pops.",
                s.fast_pops,
            ),
            ("nowa_steals_total", "Successful steals.", s.steals),
            (
                "nowa_steal_empty_total",
                "Steal attempts on empty deques.",
                s.steal_empty,
            ),
            (
                "nowa_steal_retry_total",
                "Steal attempts that lost a race.",
                s.steal_retry,
            ),
            (
                "nowa_own_takes_total",
                "Local takes by the work-finding loop.",
                s.own_takes,
            ),
            ("nowa_joins_total", "Child joins.", s.joins),
            (
                "nowa_syncs_inline_total",
                "Syncs satisfied without suspending.",
                s.syncs_inline,
            ),
            (
                "nowa_suspensions_total",
                "Syncs that suspended the frame.",
                s.suspensions,
            ),
            (
                "nowa_sync_resumes_total",
                "Suspended syncs resumed by joiners.",
                s.sync_resumes,
            ),
            (
                "nowa_cancels_total",
                "Cooperative checkpoints that raised cancellation.",
                s.cancels,
            ),
            (
                "nowa_aborts_total",
                "Suspended syncs resumed into a cancelled scope.",
                s.aborts,
            ),
            ("nowa_roots_total", "Root tasks executed.", s.roots),
            (
                "nowa_parks_total",
                "Futex parks entered by the idle engine.",
                s.parks,
            ),
            (
                "nowa_wakes_issued_total",
                "Targeted wakes issued.",
                s.wakes_issued,
            ),
            (
                "nowa_wakes_spurious_total",
                "Parks ended without a targeted wake.",
                s.wakes_spurious,
            ),
            (
                "nowa_parked_ns_total",
                "Nanoseconds spent parked.",
                s.parked_ns,
            ),
            (
                "nowa_promotions_total",
                "Private-to-public promotion batches (split deque).",
                s.promotions,
            ),
            (
                "nowa_promoted_items_total",
                "Items moved public by promotion batches.",
                s.promoted_items,
            ),
            (
                "nowa_private_pops_total",
                "Fast-path pops served by the private segment.",
                s.private_pops,
            ),
            (
                "nowa_async_parks_total",
                "block_on continuations parked behind a waker.",
                s.async_parks,
            ),
            (
                "nowa_async_resumes_total",
                "Parked async continuations resumed.",
                s.async_resumes,
            ),
            (
                "nowa_reactor_polls_total",
                "Reactor polls (epoll_wait + dispatch).",
                s.reactor_polls,
            ),
            (
                "nowa_reactor_events_total",
                "I/O readiness events dispatched.",
                s.reactor_events,
            ),
            (
                "nowa_timer_fires_total",
                "Timer-wheel entries fired.",
                s.timer_fires,
            ),
        ];
        for (name, help, value) in totals {
            reg.counter(name, help, value as f64);
        }
        reg.gauge(
            "nowa_fast_path_ratio",
            "Fraction of consumed continuations reclaimed on the fast path.",
            s.fast_path_ratio(),
        );
        reg.gauge(
            "nowa_steal_success_ratio",
            "Fraction of steal attempts that succeeded.",
            s.steal_success_ratio(),
        );
        reg.gauge(
            "nowa_targeted_wake_ratio",
            "Fraction of parks ended by a targeted wake.",
            s.targeted_wake_ratio(),
        );
        reg.gauge(
            "nowa_promotion_ratio",
            "Fraction of spawned continuations that ever became public.",
            s.promotion_ratio(),
        );

        for (i, w) in self.shared.stats.iter().enumerate() {
            let one = std::slice::from_ref(w);
            let per = StatsSnapshot::aggregate(one);
            let labels = [("worker", i.to_string())];
            reg.counter_with(
                "nowa_worker_spawns_total",
                "Continuations offered, per worker.",
                &labels,
                per.spawns as f64,
            );
            reg.counter_with(
                "nowa_worker_steals_total",
                "Successful steals, per worker.",
                &labels,
                per.steals as f64,
            );
            reg.counter_with(
                "nowa_worker_parks_total",
                "Futex parks, per worker.",
                &labels,
                per.parks as f64,
            );
        }
        reg
    }

    /// The live metrics in Prometheus text exposition format. See
    /// [`Runtime::metrics_registry`] for what is exported.
    #[cfg(feature = "trace")]
    pub fn metrics_text(&self) -> String {
        self.metrics_registry().render_prometheus()
    }

    /// The live metrics as JSON. See [`Runtime::metrics_registry`].
    #[cfg(feature = "trace")]
    pub fn metrics_json(&self) -> String {
        self.metrics_registry().render_json()
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
        let completion = Arc::new(Completion {
            result: Mutex::new(None),
            cv: Condvar::new(),
        });

        {
            let completion = completion.clone();
            let shared = self.shared.clone();
            // Counted before the push so `shutdown`'s drain wait can never
            // observe zero while a submitted task is still in flight.
            // ordering: AcqRel — the decrement releases the task's writes
            // (the filled completion slot) to shutdown's Acquire drain load.
            self.shared.active_roots.fetch_add(1, Ordering::AcqRel);
            let task: Box<dyn FnOnce() + Send> = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(f));
                *completion.result.lock() = Some(result);
                completion.cv.notify_all();
                // ordering: AcqRel — see the increment above.
                shared.active_roots.fetch_sub(1, Ordering::AcqRel);
            });
            // SAFETY: lifetime erasure of `f`'s borrows (and `R`). Sound
            // because this function blocks until the task has completed and
            // the completion slot has been consumed — the same argument as
            // `std::thread::scope`.
            let task: Box<dyn FnOnce() + Send + 'static> = unsafe { core::mem::transmute(task) };
            if !self.shared.injector.push(RootTask { run: task }) {
                // ordering: AcqRel — undo of the pre-push increment.
                self.shared.active_roots.fetch_sub(1, Ordering::AcqRel);
                panic!("runtime is shut down");
            }
            // Root submission always wakes one worker: there is no spawner
            // on a worker thread to pick this up, so the eventcount is the
            // only thing standing between the task and a full `max_park`.
            if self.shared.idle.wake_one().is_none() {
                // Every sleeper may be the claimed reactor poller, which
                // the eventcount cannot see; kick it out of `epoll_wait`.
                self.shared.reactor.kick_if_claimed();
            }
        }

        let mut guard = completion.result.lock();
        while guard.is_none() {
            completion.cv.wait(&mut guard);
        }
        match guard.take().expect("completion filled") {
            Ok(result) => result,
            Err(payload) => {
                // A propagating task panic is exactly what the flight
                // recorder exists for: dump the final scheduler events
                // before the unwind leaves the runtime.
                #[cfg(feature = "trace")]
                if let Some(dump) = self.flight_dump() {
                    eprintln!("nowa: flight recorder at task panic:\n{dump}");
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
    /// in-flight task starts unwinding), the injector is closed (later
    /// [`run`](Runtime::run) calls panic with "runtime is shut down"),
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

        // Cancel before closing: a task observing the closed injector has
        // a cancelled ambient scope to unwind with.
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
        self.shared.deadlines.cv.notify_all();

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
            // The watchdog re-checks the exit flag on every condvar wakeup
            // and was notified above; its join is prompt.
            if let Err(payload) = w.join() {
                error
                    .panicked
                    .push(("nowa-watchdog".to_owned(), panic_message(&*payload)));
            }
        }

        let result = if error.stuck.is_empty() && error.panicked.is_empty() {
            Ok(())
        } else {
            // The fourth flight-drain leg: a shutdown timeout is a
            // post-mortem moment like a crash or a task panic — dump the
            // last scheduler events while the rings are still alive.
            #[cfg(feature = "trace")]
            if let Some(dump) = self.flight_dump() {
                eprintln!("nowa: flight recorder at shutdown timeout:\n{dump}");
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
