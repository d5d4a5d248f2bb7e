//! Watchdog thread: the deadline backstop plus the stall monitor.
//!
//! One background thread per runtime, always spawned, with two duties:
//!
//! * **Deadlines** — each sweep fires what is due in the runtime's
//!   [deadline map](crate::time): `sleep`/`timeout` timers and
//!   [`Region::with_deadline`](crate::api::Region) scopes, which it latches
//!   with [`CancelReason::Deadline`](crate::cancel::CancelReason). Reactor
//!   polls fire the same map; the watchdog is what fires it when every
//!   worker is busy and nobody polls. Between sweeps it naps until the
//!   map's earliest entry (no sooner than 5 ms after the last sweep), and
//!   an insert that undercuts that nap wakes it to re-plan. Firing a
//!   region deadline is a flag store — the cancelled region unwinds
//!   cooperatively at its next checkpoint — so a late watchdog delays
//!   detection, never correctness.
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
//! stderr — worker index, seconds stalled, last progress value — followed
//! by the runtime's post-mortem (`Shared::postmortem`): the
//! [`Snapshot`](crate::Snapshot) table of every counter per worker, the
//! flight-recorder dump (when the flight recorder is on) and the trace
//! rings' fill, drops and histograms (when tracing is enabled; the
//! report reads the rings, never drains them). Reports are counted in
//! `Snapshot::watchdog_reports` so tests and harnesses can assert on them.
//!
//! With stall monitoring on, the thread wakes four times per threshold (at
//! least every 5 ms), so detection latency is at most ~1.25 × threshold;
//! without it, the thread sleeps until the next armed deadline. The thread
//! exits when the runtime shuts down (the shutdown path closes the deadline
//! map, which ends the nap).

use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::task::Waker;
use std::time::{Duration, Instant};

use crate::worker::Shared;

/// Nap cap while stall monitoring is off.
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

    let mut woken = Vec::new();
    while !shared.shutdown.load(Ordering::Acquire) {
        let swept = Instant::now();
        let (_, latched) = shared.reactor.deadlines.fire_due(swept, &mut woken);
        woken.drain(..).for_each(Waker::wake);
        if latched {
            crate::cancel::broadcast(shared);
        }
        shared
            .reactor
            .deadlines
            .nap(swept, interval.unwrap_or(IDLE_NAP));

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
}

fn report(shared: &Shared, worker: usize, stalled_for: Duration, progress: u64) {
    eprint!(
        "nowa-watchdog: worker {worker} made no progress for {:.3}s \
         (progress counter stuck at {progress}); it may be blocked in user \
         code or wedged\n{}",
        stalled_for.as_secs_f64(),
        shared.postmortem("nowa-watchdog", "stall")
    );
}
