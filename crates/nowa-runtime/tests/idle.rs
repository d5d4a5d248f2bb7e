//! Idle-engine integration tests: spawn bursts racing all-workers-parking.
//!
//! The hazardous interleaving is a producer pushing work concurrently with
//! every other worker descending into a futex park. A lost wakeup does not
//! corrupt anything — the bounded `max_park` timeout guarantees forward
//! progress — but it turns a microsecond handoff into a full `max_park`
//! nap. These tests therefore configure a `max_park` that is *orders of
//! magnitude* larger than the expected burst time and assert a wall-clock
//! bound far below it: a single lost wakeup anywhere in the run blows the
//! bound deterministically.

use std::time::{Duration, Instant};

use nowa_runtime::{api, Config, Flavor, IdleConfig, Runtime};

/// An idle config that parks as eagerly as possible (no spin, no yield
/// phase) with a `max_park` long enough that a lost wakeup is glaring.
fn eager_park() -> IdleConfig {
    IdleConfig {
        spin_sweeps: 0,
        yield_sweeps: 0,
        steal_retries: 2,
        max_park: Duration::from_secs(5),
    }
}

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = api::join2(|| fib(n - 1), || fib(n - 2));
    a + b
}

/// Repeated small bursts, letting every worker park between bursts. Each
/// burst must complete in a small fraction of `max_park`: the only way to
/// take longer is a worker sleeping through work it should have been woken
/// for.
fn burst_round_trip(flavor: Flavor, workers: usize) {
    let rt = Runtime::new(
        Config::with_workers(workers)
            .flavor(flavor)
            .idle(eager_park()),
    )
    .unwrap();
    for round in 0..40 {
        // With no spin/yield phase the workers reach announce/park within
        // a handful of sweeps; this sleep makes "everyone is parked or
        // parking" the common entry state for the next burst.
        std::thread::sleep(Duration::from_millis(1));
        let t0 = Instant::now();
        let got = rt.run(|| fib(16));
        assert_eq!(got, 987, "flavor {} round {round}", flavor.name());
        let took = t0.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "flavor {} round {round}: burst took {took:?} — a wakeup was \
             lost (max_park is 5s, a healthy burst is microseconds)",
            flavor.name()
        );
    }
    let stats = rt.stats();
    assert!(stats.parks > 0, "eager-park config never parked a worker");
}

#[test]
fn burst_races_parking_two_workers_all_flavors() {
    for flavor in Flavor::ALL {
        burst_round_trip(flavor, 2);
    }
}

#[test]
fn burst_races_parking_eight_workers_all_flavors() {
    for flavor in Flavor::ALL {
        burst_round_trip(flavor, 8);
    }
}

/// A sustained producer against eagerly parking thieves: one deep strand
/// keeps spawning while every other worker oscillates between stealing and
/// parking. Exercises the spawn-path conditional wake under contention.
#[test]
fn sustained_spawns_wake_parked_thieves() {
    for flavor in [Flavor::NOWA, Flavor::FIBRIL] {
        let rt = Runtime::new(Config::with_workers(4).flavor(flavor).idle(eager_park())).unwrap();
        let t0 = Instant::now();
        let total = rt.run(|| {
            let mut acc = 0u64;
            for _ in 0..200 {
                acc += fib(12);
            }
            acc
        });
        assert_eq!(total, 200 * 144, "flavor {}", flavor.name());
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "flavor {}: sustained run stalled — spawn-path wakes are not \
             reaching parked thieves",
            flavor.name()
        );
    }
}

/// One producer against eagerly parking thieves (§6g): a thief parks only
/// after reading the producer's public deque empty, and the first push
/// after that finds it empty too, promotes, and takes the wake path. The
/// loop keeps spawning — at least 2 000 leaves, then until a leaf has run
/// off the producer's worker, for at most 2 s — so the check waits for the
/// wake instead of racing the loop's end. A lost post-promotion wake
/// leaves the thieves in a 5 s `max_park` nap and the bound runs out.
#[test]
fn starved_thieves_feed_via_promotion_all_flavors() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let parallel = std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2;
    for flavor in Flavor::ALL {
        let rt = Runtime::new(Config::with_workers(4).flavor(flavor).idle(eager_park())).unwrap();
        let t0 = Instant::now();
        let total = AtomicU64::new(0);
        let migrated = AtomicBool::new(false);
        let spawned = rt.run(|| {
            let producer = api::worker_index();
            let region = api::Region::new();
            let (total, migrated) = (&total, &migrated);
            let mut spawned = 0u64;
            while spawned < 2_000
                || (!migrated.load(Ordering::Relaxed) && t0.elapsed() < Duration::from_secs(2))
            {
                // SAFETY: the atomics are Send and outlive the region; the
                // region syncs before drop.
                unsafe {
                    region.spawn(move || {
                        // ~5 µs of leaf, so the run outlasts a futex wake.
                        for _ in 0..2_500 {
                            std::hint::black_box(spawned);
                        }
                        // A stolen continuation runs the loop — and so
                        // every later leaf — on the thief's worker.
                        if api::worker_index() != producer {
                            migrated.store(true, Ordering::Relaxed);
                        }
                        total.fetch_add(1, Ordering::Relaxed);
                    })
                };
                spawned += 1;
            }
            region.sync();
            spawned
        });
        assert_eq!(total.into_inner(), spawned, "flavor {}", flavor.name());
        assert!(
            t0.elapsed() < Duration::from_secs(4),
            "flavor {}: starvation handoff stalled into a park nap \
             (max_park is 5s)",
            flavor.name()
        );
        let stats = rt.stats();
        assert_eq!(
            stats.spawns,
            stats.continuations_consumed(),
            "steal conservation violated, flavor {}",
            flavor.name()
        );
        if flavor != Flavor::FIBRIL {
            assert!(
                stats.promotions > 0,
                "pushes onto an empty public deque never promoted, \
                 flavor {}",
                flavor.name()
            );
        }
        if parallel {
            assert!(
                migrated.into_inner(),
                "no parked thief took the spawn loop in 2 s ({spawned} \
                 leaves), flavor {}",
                flavor.name()
            );
        }
    }
}

/// Parked workers must read as healthy: a runtime sitting idle for several
/// watchdog thresholds must produce zero stall reports.
#[test]
fn watchdog_classifies_parked_workers_healthy() {
    let rt = Runtime::new(
        Config::with_workers(2)
            .idle(eager_park())
            .watchdog(Duration::from_millis(50)),
    )
    .unwrap();
    assert_eq!(rt.run(|| fib(10)), 55);
    // All workers descend into parks; give the watchdog several full
    // thresholds to (wrongly) trip on their frozen progress counters.
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(
        rt.snapshot().watchdog_reports,
        0,
        "watchdog reported a stall for a healthily parked worker"
    );
    // And the runtime still wakes up fine afterwards.
    assert_eq!(rt.run(|| fib(10)), 55);
}

/// The same burst-vs-parking race with the chaos idle site armed:
/// spurious wakes, under the eager-park ladder that sends every backoff
/// straight to the park. The injection schedule is a pure function of the
/// seed, so the same seed must produce correct results on every replay.
#[cfg(feature = "chaos")]
#[test]
fn burst_survives_chaos_spurious_wakes() {
    use nowa_runtime::ChaosConfig;

    for flavor in Flavor::ALL {
        for workers in [2usize, 8] {
            for replay in 0..2 {
                let mut chaos = ChaosConfig::with_seed(0xC0FF_EE00 + workers as u64);
                chaos.spurious_wake = 16384; // 25% of parks return without waiting
                let rt = Runtime::new(
                    Config::with_workers(workers)
                        .flavor(flavor)
                        .idle(eager_park())
                        .chaos(chaos),
                )
                .unwrap();
                let t0 = Instant::now();
                for _ in 0..10 {
                    assert_eq!(
                        rt.run(|| fib(14)),
                        377,
                        "flavor {} workers {workers} replay {replay}",
                        flavor.name()
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
                assert!(
                    t0.elapsed() < Duration::from_secs(20),
                    "flavor {} workers {workers} replay {replay}: chaos idle \
                     faults caused a stall",
                    flavor.name()
                );
                let snap = rt.snapshot().chaos.expect("chaos configured");
                assert!(
                    snap.ticks.iter().sum::<u64>() > 0,
                    "chaos sites never visited"
                );
            }
        }
    }
}

/// Regression (PR 13): the spawn path must wake thieves for work it made
/// thief-visible on *every* flavor. FIBRIL's fused deque has no private
/// segment — every push is public at once — yet the wake used to be gated
/// on the split layer's promotion count, which FIBRIL always reports as 0,
/// so parked thieves sat out `max_park`. The child here waits for its own
/// continuation to be stolen; with a 30 s `max_park` only a spawn-path wake
/// can get a thief there inside the 2 s bound. With two workers the lone
/// idle worker is the reactor poller (woken by an eventfd kick); the third
/// worker is futex-parked and needs a targeted wake.
#[test]
fn spawn_wakes_parked_thieves_on_every_flavor() {
    use std::sync::atomic::{AtomicBool, Ordering};

    for flavor in Flavor::ALL {
        for workers in [2, 3] {
            let what = format!("flavor {} with {workers} workers", flavor.name());
            let idle = IdleConfig {
                max_park: Duration::from_secs(30),
                ..eager_park()
            };
            let rt = Runtime::new(Config::with_workers(workers).flavor(flavor).idle(idle)).unwrap();
            // Everyone asleep: one worker in `epoll_wait`, the rest on the
            // futex (the root submission below wakes one of those).
            let parked = Instant::now();
            while rt.snapshot().idle_workers < workers - 1 {
                assert!(
                    parked.elapsed() < Duration::from_secs(5),
                    "{what}: never parked"
                );
                std::thread::yield_now();
            }
            let stolen = AtomicBool::new(false);
            let saw_steal = rt.run(|| {
                let child = || {
                    let t0 = Instant::now();
                    while !stolen.load(Ordering::Acquire) && t0.elapsed() < Duration::from_secs(2) {
                        std::thread::yield_now();
                    }
                    stolen.load(Ordering::Acquire)
                };
                api::join2(child, || stolen.store(true, Ordering::Release)).0
            });
            let stats = rt.stats();
            assert!(saw_steal, "{what}: no thief woke for the spawn: {stats:?}");
            assert!(stats.steals >= 1, "{what}: {stats:?}");
            if workers == 3 {
                assert!(
                    stats.wakes_issued >= 1,
                    "{what}: no targeted wake: {stats:?}"
                );
            }
        }
    }
}
