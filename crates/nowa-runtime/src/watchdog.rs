//! Watchdog thread: region deadlines plus the stall monitor.
//!
//! One background thread per runtime, always spawned, with two duties:
//!
//! * **Region deadlines** — [`Region::with_deadline`](crate::api::Region)
//!   arms an entry in [`Shared::deadlines`]; this thread sleeps on the
//!   queue's condvar until the earliest expiry (or a new arm, or
//!   shutdown), then fires due entries by latching their scopes with
//!   [`CancelReason::Deadline`](crate::cancel::CancelReason). Firing is a
//!   flag store — the cancelled region unwinds cooperatively at its next
//!   checkpoint — so a late watchdog delays detection, never correctness.
//! * **Stall monitoring** — only when `Config::watchdog` is `Some`: samples
//!   per-worker progress counters and reports workers that stop moving.
//!
//! Progress is [`WorkerStats::progress`](crate::stats::WorkerStats::progress)
//! — the event-table rows marked `progress`: any scheduling event, idle
//! sweep, or cancellation checkpoint advances it (a worker cooperatively
//! unwinding a cancelled subtree bumps `cancels`, so an unwind in progress
//! never reads as a stall). A
//! deep-idle worker may be futex-parked for long stretches with a frozen
//! counter; the monitor asks the idle engine
//! ([`crate::idle::IdleState::is_parked`]) and classifies parked workers
//! as healthy, so only a genuinely wedged worker trips the threshold. A
//! genuine stall (a task stuck in a syscall, a deadlocked lock inside user
//! code, a scheduler bug) leaves the counter frozen; after `threshold`
//! without movement the watchdog prints one report per stall episode to
//! stderr — worker index, seconds stalled, last progress value, and the
//! [`Snapshot`](crate::Snapshot) table of every counter per worker — plus
//! the flight-recorder dump (when the flight recorder is on) and the merged
//! trace report (when tracing is enabled). Reports are counted in
//! `Snapshot::watchdog_reports` so tests and harnesses can assert on them.
//!
//! With stall monitoring on, the thread wakes four times per threshold (at
//! least every 5 ms), so detection latency is at most ~1.25 × threshold;
//! without it, the thread sleeps until the next armed deadline. The thread
//! exits when the runtime shuts down (the shutdown path notifies the
//! deadline condvar).

use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crate::worker::Shared;

/// Sleep cap while no deadline is armed and stall monitoring is off: a
/// periodic re-check of the shutdown flag in case the shutdown notify
/// raced the condvar wait.
const IDLE_NAP: Duration = Duration::from_millis(500);

/// Spawns the watchdog thread for `shared`. The stall threshold (if any)
/// comes from `shared.config.watchdog`; deadline firing is unconditional.
/// The thread checks in at `started` once it has allocated its state (see
/// `Runtime::new`).
pub(crate) fn spawn(shared: Arc<Shared>, started: Arc<Barrier>) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("nowa-watchdog".to_string())
        .spawn(move || run(&shared, &started))
        .expect("spawning watchdog thread")
}

fn run(shared: &Shared, started: &Barrier) {
    let threshold = shared.config.watchdog;
    let interval = threshold.map(|t| (t / 4).max(Duration::from_millis(5)));
    let n = shared.stats.len();
    let mut last_progress: Vec<u64> = (0..n).map(|i| shared.stats[i].progress()).collect();
    let mut last_change: Vec<Instant> = vec![Instant::now(); n];
    // One report per stall episode: re-arm only after progress resumes.
    let mut reported: Vec<bool> = vec![false; n];
    started.wait();

    while !shared.shutdown.load(Ordering::Acquire) {
        let now = Instant::now();
        let (next_deadline, fired) = shared.deadlines.fire_due(now);
        if fired > 0 {
            // A latched deadline cancels cooperatively — but a strand
            // parked in `block_on` has no checkpoint to trip. Broadcast so
            // every parked async cell re-checks its scope chain.
            shared.async_waiters.wake_all();
            shared.reactor.kick_if_claimed();
        }
        // Bound timer staleness under full saturation: when every worker
        // is busy, nobody reactor-polls, so the wheel would stall. The
        // watchdog sweep is the same backstop the deadline queue uses.
        shared.reactor.advance_timers_external();

        // Sleep until whichever comes first: the stall-sampling tick, the
        // earliest armed deadline, or a condvar notify (new deadline armed
        // earlier than our sleep, or shutdown).
        let mut nap = interval.unwrap_or(IDLE_NAP);
        if let Some(at) = next_deadline {
            nap = nap.min(at.saturating_duration_since(now));
        }
        // Armed wheel timers also cap the nap (floored at 5 ms so the
        // watchdog never busy-spins on 1 ms timers the poller normally
        // serves): the cap only matters when every worker stays busy.
        let timer_ms = shared
            .reactor
            .timers
            .next_timeout_ms(now, nap.as_millis().min(u64::MAX as u128) as u64);
        nap = nap.min(Duration::from_millis(timer_ms.max(5)));
        shared.deadlines.wait(nap);

        let Some(threshold) = threshold else { continue };
        let now = Instant::now();
        for i in 0..n {
            let progress = shared.stats[i].progress();
            // A futex-parked worker is healthy by construction (it is
            // exactly where an idle worker should be), so its frozen
            // progress counter must not read as a stall.
            if progress != last_progress[i]
                || shared.idle.is_parked(i)
                || shared.reactor.is_poller(i)
            {
                last_progress[i] = progress;
                last_change[i] = now;
                reported[i] = false;
            } else if !reported[i] && now.duration_since(last_change[i]) >= threshold {
                reported[i] = true;
                shared.watchdog_reports.fetch_add(1, Ordering::Relaxed);
                report(shared, i, now.duration_since(last_change[i]), progress);
            }
        }
    }
    // Fire anything already due one last time so a deadline that expired
    // during shutdown still latches (its region may already be cancelled
    // by the root latch anyway; latching twice is idempotent).
    let _ = shared.deadlines.fire_due(Instant::now());
}

fn report(shared: &Shared, worker: usize, stalled_for: Duration, progress: u64) {
    eprintln!(
        "nowa-watchdog: worker {worker} made no progress for {:.3}s \
         (progress counter stuck at {progress}); it may be blocked in user \
         code or wedged\n{}",
        stalled_for.as_secs_f64(),
        shared.snapshot().render_table()
    );
    // The flight recorder next: the last per-worker scheduler events
    // usually show *where* the wedged worker stopped, which counters and
    // the summary table cannot.
    #[cfg(feature = "trace")]
    if let Some(rings) = shared.flight.as_deref() {
        eprintln!(
            "nowa-watchdog: flight recorder at stall:\n{}",
            nowa_trace::flight::dump(rings)
        );
    }
    #[cfg(feature = "trace")]
    if let Some(buffers) = shared.trace.as_deref() {
        let report = nowa_trace::TraceReport::collect(buffers);
        eprintln!(
            "nowa-watchdog: trace report at stall:\n{}",
            report.summary_table()
        );
    }
}
