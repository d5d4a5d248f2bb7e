//! `nowa-bench wakeup` — spawn-to-steal wakeup latency and idle CPU burn.
//!
//! Two measurements over the idle engine, each taken twice: once with the
//! engine's default configuration (targeted futex wakes) and once with a
//! configuration that emulates the pre-engine scheduler (no spawn-path
//! wakes, blind 200 µs naps — the seed's condvar behaviour expressed in
//! [`IdleConfig`] terms):
//!
//! 1. **Burst latency** — all workers are allowed to park, then a root
//!    task performs one `join2` whose child busy-waits until a thief has
//!    started the continuation. The elapsed time from just before the
//!    spawn to the continuation's first instruction on the thief is the
//!    spawn-to-steal wakeup latency: it covers the conditional wake, the
//!    futex syscall pair, the thief's re-scan, and the steal itself. With
//!    the baseline config no wake is sent, so each sample is dominated by
//!    the remaining fraction of some worker's 200 µs nap.
//! 2. **Idle burn** — process CPU time (`/proc/self/stat` utime+stime,
//!    USER_HZ ticks) consumed across a quiescent window with the runtime
//!    alive and all workers deep-idle. The engine parks on a bounded
//!    futex; the baseline emulation wakes every 200 µs to re-sweep.
//!
//! Results are printed as a table and written to `BENCH_wakeup.json` in
//! the current directory, wrapped in the versioned [`crate::artifact`]
//! envelope (`schema`/`schema_version`/`timestamp_unix_s`/`host`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use nowa_runtime::{api, Config, IdleConfig, Runtime};
use nowa_trace::json::Json;

use crate::stats::Table;

/// Samples taking longer than this are classified as misses: the child
/// gave up waiting and the owner ran its own continuation, so the sample
/// measures the give-up deadline, not a wakeup.
const MISS_CUTOFF_NS: u64 = 40_000_000;

/// How long the busy-waiting child pins the owner before giving up.
const CHILD_DEADLINE: Duration = Duration::from_millis(50);

/// The configuration every pre-engine measurement runs under: the seed
/// scheduler's observable idle behaviour (16 yield sweeps, then repeated
/// blind 200 µs naps, never woken by spawns) expressed as an
/// [`IdleConfig`]. `wake_threshold: usize::MAX` disables the spawn-path
/// wake entirely, exactly as the seed had no wake to send.
fn seed_emulation() -> IdleConfig {
    IdleConfig {
        spin_sweeps: 0,
        yield_sweeps: 16,
        steal_retries: 0,
        wake_threshold: usize::MAX,
        max_park: Duration::from_micros(200),
    }
}

/// One latency sample: park everyone, then time spawn → thief-runs-
/// continuation through one `join2`. `None` when the thief never arrived
/// before the child's deadline (counted as a miss).
fn one_sample(rt: &Runtime, workers: usize) -> Option<u64> {
    // Start from a fully-parked runtime so every sample exercises the
    // wake path (rather than racing a thief that is still mid-descent).
    let prime_deadline = Instant::now() + Duration::from_millis(50);
    while rt.snapshot().idle_workers < workers {
        if Instant::now() > prime_deadline {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let ns = rt.run(|| {
        let stolen_ns = AtomicU64::new(0);
        let t0 = Instant::now();
        api::join2(
            || {
                // Child, inline on the owner: keep this worker busy (so
                // the continuation cannot be satisfied by the owner's own
                // fast-path pop) but *yield the CPU* while waiting — on a
                // single-core box a spinning owner would starve the woken
                // thief and the sample would measure kernel preemption,
                // not the wake path.
                while stolen_ns.load(Ordering::Acquire) == 0 {
                    if t0.elapsed() > CHILD_DEADLINE {
                        return;
                    }
                    std::thread::yield_now();
                }
            },
            || {
                // Continuation: the first instruction executed after the
                // steal. (On a miss this runs on the owner instead, well
                // past the cutoff.)
                stolen_ns.store(t0.elapsed().as_nanos().max(1) as u64, Ordering::Release);
            },
        );
        stolen_ns.load(Ordering::Acquire)
    });
    (ns != 0 && ns < MISS_CUTOFF_NS).then_some(ns)
}

/// Total process CPU time in USER_HZ ticks (utime + stime from
/// `/proc/self/stat`; USER_HZ is fixed at 100 on Linux, i.e. 10 ms/tick).
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised comm: state is field 3 of the file,
    // utime field 14, stime field 15.
    let after = stat.rsplit_once(')').map(|(_, a)| a).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let utime: u64 = fields.get(11).and_then(|s| s.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.get(12).and_then(|s| s.parse().ok()).unwrap_or(0);
    utime + stime
}

/// CPU milliseconds burned per wall-clock second while the runtime idles.
fn idle_burn_ms_per_s(rt: &Runtime, window: Duration) -> f64 {
    // Quiesce: run a trivial root task, then give the workers time to
    // descend all the way into their deep-idle state.
    rt.run(|| ());
    std::thread::sleep(Duration::from_millis(20));
    let t0 = cpu_ticks();
    let wall = Instant::now();
    std::thread::sleep(window);
    let ticks = cpu_ticks().saturating_sub(t0);
    (ticks as f64 * 10.0) / wall.elapsed().as_secs_f64()
}

/// Measured numbers for one configuration.
struct Measurement {
    p50_ns: u64,
    p90_ns: u64,
    p99_ns: u64,
    max_ns: u64,
    misses: usize,
    samples: usize,
    idle_burn_ms_per_s: f64,
    parks: u64,
    wakes_issued: u64,
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn measure(workers: usize, idle: IdleConfig, iters: usize, burn_window: Duration) -> Measurement {
    let rt = Runtime::new(Config::with_workers(workers).idle(idle)).expect("runtime");
    let mut samples = Vec::with_capacity(iters);
    let mut misses = 0usize;
    for _ in 0..iters {
        match one_sample(&rt, workers) {
            Some(ns) => samples.push(ns),
            None => misses += 1,
        }
    }
    samples.sort_unstable();
    let burn = idle_burn_ms_per_s(&rt, burn_window);
    let stats = rt.stats();
    Measurement {
        p50_ns: quantile(&samples, 0.50),
        p90_ns: quantile(&samples, 0.90),
        p99_ns: quantile(&samples, 0.99),
        max_ns: samples.last().copied().unwrap_or(0),
        misses,
        samples: samples.len(),
        idle_burn_ms_per_s: burn,
        parks: stats.parks,
        wakes_issued: stats.wakes_issued,
    }
}

fn json_of(m: &Measurement) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("p50_ns".into(), Json::Num(m.p50_ns as f64));
    obj.insert("p90_ns".into(), Json::Num(m.p90_ns as f64));
    obj.insert("p99_ns".into(), Json::Num(m.p99_ns as f64));
    obj.insert("max_ns".into(), Json::Num(m.max_ns as f64));
    obj.insert("misses".into(), Json::Num(m.misses as f64));
    obj.insert("samples".into(), Json::Num(m.samples as f64));
    obj.insert("idle_burn_ms_per_s".into(), Json::Num(m.idle_burn_ms_per_s));
    obj.insert("parks".into(), Json::Num(m.parks as f64));
    obj.insert("wakes_issued".into(), Json::Num(m.wakes_issued as f64));
    Json::Obj(obj)
}

fn fmt_us(ns: u64) -> String {
    format!("{:.1} µs", ns as f64 / 1000.0)
}

/// Runs the wakeup-latency + idle-burn comparison and writes
/// `BENCH_wakeup.json`. `iters` is the latency sample count per config.
pub fn wakeup(workers: usize, iters: usize) -> Vec<Table> {
    let workers = workers.max(2); // a thief must exist
    let burn_window = Duration::from_millis(if iters >= 100 { 1000 } else { 500 });

    let engine = measure(workers, IdleConfig::default(), iters, burn_window);
    let baseline = measure(workers, seed_emulation(), iters, burn_window);

    let mut table = Table::new(
        format!("wakeup latency + idle burn — {workers} workers, {iters} iters"),
        &[
            "config",
            "p50",
            "p90",
            "p99",
            "max",
            "misses",
            "idle burn",
            "parks",
            "wakes",
        ],
    );
    for (name, m) in [("idle engine", &engine), ("seed emulation", &baseline)] {
        table.row(vec![
            name.into(),
            fmt_us(m.p50_ns),
            fmt_us(m.p90_ns),
            fmt_us(m.p99_ns),
            fmt_us(m.max_ns),
            format!("{}/{}", m.misses, m.misses + m.samples),
            format!("{:.1} ms/s", m.idle_burn_ms_per_s),
            m.parks.to_string(),
            m.wakes_issued.to_string(),
        ]);
    }

    let mut root = BTreeMap::new();
    root.insert("workers".into(), Json::Num(workers as f64));
    root.insert("iters".into(), Json::Num(iters as f64));
    root.insert("engine".into(), json_of(&engine));
    root.insert("baseline".into(), json_of(&baseline));
    crate::artifact::write(
        "BENCH_wakeup.json",
        &crate::artifact::envelope("nowa-bench-wakeup", root),
    );

    vec![table]
}
