//! Structured-cancellation, deadline and shutdown integration tests.
//!
//! The cancellation model under test (DESIGN.md §6f):
//!
//! * cancelling a region is a cooperative latch — running strands unwind
//!   with a typed [`Cancelled`] payload at their next checkpoint,
//!   not-yet-started children are skipped, and the first recorded reason
//!   wins (double-cancel is an idempotent no-op);
//! * a region suspended at `sync` is *aborted*, CQS-style: the last
//!   joiner's zero-crossing retires the suspension exactly once and wakes
//!   the continuation specifically to unwind — no worker ever blocks on a
//!   cancelled join;
//! * a real fault (a child panic that is not itself a `Cancelled` unwind)
//!   displaces a stored cancellation payload — cancellation must never
//!   mask the bug that raced with it;
//! * `Runtime::shutdown(timeout)` cancels the root scope, drains, and
//!   either joins every worker (`Ok`) or reports the stragglers in a typed
//!   [`ShutdownError`];
//! * forced cancellations at the steal / sync / suspend boundaries replay
//!   bit-identically for a fixed seed, and on four workers every run
//!   completes or unwinds and the runtime survives.

use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Once};
use std::time::{Duration, Instant};

use nowa_runtime::{api, CancelReason, Cancelled, Config, Flavor, Region, Runtime};

/// Silences the default panic hook for this suite's deliberate payloads
/// (cancellation unwinds, `Boom` test payloads, the "runtime is shut
/// down" rejection) so expected panics don't spray backtraces.
fn quiet_expected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            let expected = p.downcast_ref::<Cancelled>().is_some()
                || p.downcast_ref::<Boom>().is_some()
                || p.downcast_ref::<&str>()
                    .is_some_and(|s| s.contains("runtime is shut down"));
            if !expected {
                default(info);
            }
        }));
    });
}

/// Drop-counting panic payload (same idiom as `panics.rs`).
struct Boom {
    drops: &'static AtomicU32,
}

impl Drop for Boom {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

const BOTH_FLAVORS: [Flavor; 2] = [Flavor::NOWA, Flavor::FIBRIL];

/// Extracts the cancellation reason from a caught unwind payload.
fn reason_of(payload: &(dyn std::any::Any + Send)) -> Option<CancelReason> {
    payload.downcast_ref::<Cancelled>().map(|c| c.reason)
}

#[test]
fn token_cancel_unwinds_cooperative_loop() {
    quiet_expected_panics();
    for flavor in BOTH_FLAVORS {
        let rt = Runtime::new(Config::with_workers(2).flavor(flavor)).unwrap();
        let (tx, rx) = mpsc::channel();
        // An external canceller: the token is Send + Sync and outlives the
        // region (the scope cell is Arc'd).
        let canceller = std::thread::spawn(move || {
            let token: nowa_runtime::CancelToken = rx.recv().unwrap();
            std::thread::sleep(Duration::from_millis(20));
            let first = token.cancel();
            let second = token.cancel();
            (token, first, second)
        });
        let out = rt.run(move || {
            catch_unwind(AssertUnwindSafe(|| {
                let region = Region::cancellable();
                tx.send(
                    region
                        .cancel_token()
                        .expect("cancellable region has a token"),
                )
                .unwrap();
                loop {
                    region.checkpoint();
                    std::hint::spin_loop();
                }
            }))
        });
        let payload = out.expect_err("checkpoint loop must unwind");
        assert_eq!(
            reason_of(&*payload),
            Some(CancelReason::Token),
            "{}: wrong payload",
            flavor.name()
        );
        let (token, first, second) = canceller.join().unwrap();
        assert!(first, "first cancel latches the scope");
        assert!(!second, "second cancel is an idempotent no-op");
        assert!(token.is_cancelled());
        // The runtime survives a cancelled region.
        assert_eq!(rt.run(|| 42), 42);
        assert!(
            rt.stats().cancels >= 1,
            "{}: no cancel counted",
            flavor.name()
        );
    }
}

#[test]
fn deadline_cancels_at_checkpoint() {
    quiet_expected_panics();
    let rt = Runtime::new(Config::with_workers(2)).unwrap();
    let started = Instant::now();
    let out = rt.run(|| {
        catch_unwind(|| {
            let region = Region::with_deadline(Duration::from_millis(30));
            loop {
                region.checkpoint();
                std::hint::spin_loop();
            }
        })
    });
    let payload = out.expect_err("deadline must fire");
    assert_eq!(reason_of(&*payload), Some(CancelReason::Deadline));
    assert!(
        started.elapsed() >= Duration::from_millis(25),
        "deadline fired early: {:?}",
        started.elapsed()
    );
    assert_eq!(rt.run(|| 7), 7);
}

/// A deadline past what `Instant` can represent never fires, and arming it
/// does not panic.
#[test]
fn deadline_past_instant_range_never_fires() {
    let rt = Runtime::new(Config::with_workers(2)).unwrap();
    let out = rt.run(|| {
        let region = Region::with_deadline(Duration::MAX);
        std::thread::sleep(Duration::from_millis(20));
        region.checkpoint();
        api::join2(|| fib(15), || fib(16))
    });
    assert_eq!(out, (fib(15), fib(16)));
}

/// A region that completes removes its deadline entry at once: entries of
/// finished regions do not pile up until their deadlines come due.
#[test]
fn completed_regions_remove_their_deadlines() {
    let rt = Runtime::new(Config::with_workers(2)).unwrap();
    rt.run(|| {
        for _ in 0..1_000 {
            let region = Region::with_deadline(Duration::from_secs(60));
            region.checkpoint();
        }
    });
    assert_eq!(rt.snapshot().timers_pending, 0);
}

/// Cancelling a region whose main path is *suspended* at `sync` must not
/// block any worker: the last joiner retires the suspension and resumes
/// the continuation specifically to unwind (the abort path).
#[test]
fn cancel_during_suspended_sync_aborts() {
    quiet_expected_panics();
    for flavor in BOTH_FLAVORS {
        // The suspension needs the continuation stolen before the child
        // finishes; retry a few times in case a loaded machine delays the
        // thief.
        let mut aborted = false;
        for _ in 0..5 {
            let rt = Runtime::new(Config::with_workers(2).flavor(flavor)).unwrap();
            let (tx, rx) = mpsc::channel();
            let canceller = std::thread::spawn(move || {
                let token: nowa_runtime::CancelToken = rx.recv().unwrap();
                std::thread::sleep(Duration::from_millis(30));
                token.cancel();
            });
            let out = rt.run(move || {
                catch_unwind(AssertUnwindSafe(|| {
                    let region = Region::cancellable();
                    tx.send(region.cancel_token().unwrap()).unwrap();
                    // SAFETY: the region is not moved; nothing borrowed
                    // from the loop frame crosses the spawn.
                    unsafe {
                        region.spawn(|| std::thread::sleep(Duration::from_millis(100)));
                    }
                    // The thief steals this continuation, reaches the sync
                    // with the child still sleeping, and suspends. The
                    // cancel lands mid-suspension; the child's join then
                    // resumes us into the cancelled scope.
                    region.sync();
                }))
            });
            canceller.join().unwrap();
            let payload = out.expect_err("cancelled region must unwind");
            assert_eq!(
                reason_of(&*payload),
                Some(CancelReason::Token),
                "{}: wrong payload",
                flavor.name()
            );
            assert_eq!(rt.run(|| 1), 1, "{}: runtime wedged", flavor.name());
            let stats = rt.stats();
            if stats.suspensions >= 1 && stats.aborts >= 1 {
                aborted = true;
                break;
            }
        }
        assert!(
            aborted,
            "{}: no run ever aborted a suspended sync",
            flavor.name()
        );
    }
}

/// A real fault racing with cancellation must win: the stored `Cancelled`
/// payload is displaced by the child's organic panic.
#[test]
fn real_fault_displaces_cancellation_payload() {
    quiet_expected_panics();
    static DROPS: AtomicU32 = AtomicU32::new(0);
    for flavor in BOTH_FLAVORS {
        let before = DROPS.load(Ordering::SeqCst);
        let rt = Runtime::new(Config::with_workers(1).flavor(flavor)).unwrap();
        let (tx, rx) = mpsc::channel();
        let canceller = std::thread::spawn(move || {
            let token: nowa_runtime::CancelToken = rx.recv().unwrap();
            std::thread::sleep(Duration::from_millis(10));
            token.cancel();
        });
        let out = rt.run(move || {
            catch_unwind(AssertUnwindSafe(|| {
                let region = Region::cancellable();
                tx.send(region.cancel_token().unwrap()).unwrap();
                // SAFETY: region not moved; the payload is Send.
                unsafe {
                    region.spawn(|| {
                        // Outlive the cancel, then fault for real.
                        std::thread::sleep(Duration::from_millis(50));
                        panic_any(Boom { drops: &DROPS });
                    });
                }
                region.sync();
            }))
        });
        canceller.join().unwrap();
        let payload = out.expect_err("faulting region must unwind");
        assert!(
            payload.downcast_ref::<Boom>().is_some(),
            "{}: cancellation masked the real fault",
            flavor.name()
        );
        drop(payload);
        assert_eq!(
            DROPS.load(Ordering::SeqCst),
            before + 1,
            "{}: payload leaked or double-dropped",
            flavor.name()
        );
        assert_eq!(rt.run(|| 9), 9);
    }
}

/// An organic sibling panic latches the region scope: children not yet
/// started are skipped, and the token observes the cancellation.
#[test]
fn sibling_panic_cancels_region_and_skips_children() {
    quiet_expected_panics();
    static DROPS: AtomicU32 = AtomicU32::new(0);
    static SECOND_RAN: AtomicU32 = AtomicU32::new(0);
    let rt = Runtime::new(Config::with_workers(1)).unwrap();
    let (tx, rx) = mpsc::channel();
    let out = rt.run(move || {
        catch_unwind(AssertUnwindSafe(|| {
            let region = Region::cancellable();
            tx.send(region.cancel_token().unwrap()).unwrap();
            // SAFETY: region not moved; payload and counters are Send.
            unsafe {
                region.spawn(|| panic_any(Boom { drops: &DROPS }));
                // One worker: the panic above has already been recorded by
                // the time the continuation resumes, so this child must be
                // skipped, not started.
                region.spawn(|| {
                    SECOND_RAN.store(1, Ordering::SeqCst);
                });
            }
            region.sync();
        }))
    });
    let token: nowa_runtime::CancelToken = rx.recv().unwrap();
    let payload = out.expect_err("sibling panic must propagate");
    assert!(payload.downcast_ref::<Boom>().is_some());
    assert_eq!(
        SECOND_RAN.load(Ordering::SeqCst),
        0,
        "flagged frame spawned anyway"
    );
    assert!(
        token.is_cancelled(),
        "organic panic must cancel the enclosing region"
    );
}

/// The first recorded reason wins: a token cancel latched before the
/// deadline fires keeps `CancelReason::Token` even after the deadline
/// elapses.
#[test]
fn first_cancel_reason_wins() {
    quiet_expected_panics();
    let rt = Runtime::new(Config::with_workers(2)).unwrap();
    let out = rt.run(|| {
        catch_unwind(|| {
            let region = Region::with_deadline(Duration::from_millis(10));
            let token = region.cancel_token().unwrap();
            assert!(token.cancel(), "first cancel latches");
            assert!(!token.cancel(), "double cancel is a no-op");
            // Let the deadline expire too; it must not overwrite Token.
            std::thread::sleep(Duration::from_millis(40));
            region.checkpoint();
            unreachable!("checkpoint must raise");
        })
    });
    let payload = out.expect_err("cancelled region must unwind");
    assert_eq!(reason_of(&*payload), Some(CancelReason::Token));
}

#[test]
fn shutdown_drained_runtime_is_ok_and_idempotent() {
    quiet_expected_panics();
    let rt = Runtime::new(Config::with_workers(3)).unwrap();
    assert_eq!(rt.run(|| fib(16)), 987);
    assert_eq!(rt.shutdown(Duration::from_secs(5)), Ok(()));
    // Memoized: the second call reports the same verdict without re-joining.
    assert_eq!(rt.shutdown(Duration::from_secs(5)), Ok(()));
    // New work is rejected loudly, not queued into a dead runtime.
    let rejected = catch_unwind(AssertUnwindSafe(|| rt.run(|| 1)));
    let payload = rejected.expect_err("run after shutdown must panic");
    assert_eq!(
        payload.downcast_ref::<&str>().copied(),
        Some("runtime is shut down")
    );
}

/// Shutdown cancels in-flight cooperative work through the root scope:
/// every region (scoped or not) chains up to it.
#[test]
fn shutdown_cancels_cooperative_work() {
    quiet_expected_panics();
    let rt = Runtime::new(Config::with_workers(2)).unwrap();
    std::thread::scope(|s| {
        let handle = s.spawn(|| {
            rt.run(|| {
                catch_unwind(|| {
                    // A plain region adopts the ambient (root) scope —
                    // shutdown reaches it without any token plumbing.
                    let region = Region::new();
                    loop {
                        region.checkpoint();
                        std::hint::spin_loop();
                    }
                })
            })
        });
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(rt.shutdown(Duration::from_secs(5)), Ok(()));
        let payload = handle.join().unwrap().expect_err("loop must unwind");
        assert_eq!(reason_of(&*payload), Some(CancelReason::Shutdown));
    });
}

/// A worker stuck in uncancellable code past the deadline is reported in
/// the typed error, with a usable Display.
#[test]
fn shutdown_timeout_reports_stuck_workers() {
    quiet_expected_panics();
    let rt = Runtime::new(Config::with_workers(2)).unwrap();
    std::thread::scope(|s| {
        let handle = s.spawn(|| {
            // Uncancellable: a blocking sleep never checkpoints.
            rt.run(|| std::thread::sleep(Duration::from_millis(400)))
        });
        std::thread::sleep(Duration::from_millis(50));
        let err = rt
            .shutdown(Duration::from_millis(100))
            .expect_err("a sleeping worker cannot drain in 100ms");
        assert!(!err.stuck.is_empty(), "no stuck worker reported: {err:?}");
        let rendered = err.to_string();
        assert!(
            rendered.contains("shutdown incomplete"),
            "unhelpful display: {rendered}"
        );
        // The straggler finishes its task and exits; the run completes.
        handle.join().unwrap();
    });
}

/// Forced cancellations replay bit-identically: one worker makes the
/// schedule deterministic, so outcome and injection counters must match
/// across same-seed runs — and at least one seed must actually cancel.
#[test]
fn forced_cancellation_replays_deterministically() {
    quiet_expected_panics();
    fn fib(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = api::join2(|| fib(n - 1), || fib(n - 2));
        a + b
    }
    let run_once = |seed: u64| {
        let chaos = nowa_runtime::ChaosConfig {
            force_cancel: 4096,
            ..nowa_runtime::ChaosConfig::with_seed(seed)
        };
        let rt = Runtime::new(Config::with_workers(1).chaos(chaos)).unwrap();
        let outcome = rt.run(|| {
            catch_unwind(|| {
                let region = Region::cancellable();
                // The whole tree runs under the region's scope; a forced
                // cancellation at any sync boundary unwinds it.
                let n = fib(12);
                region.sync();
                n
            })
        });
        let outcome = match outcome {
            Ok(n) => Ok(n),
            Err(payload) => Err(reason_of(&*payload)),
        };
        (outcome, rt.snapshot().chaos.expect("chaos configured"))
    };
    let mut cancelled_somewhere = false;
    for seed in 0..6u64 {
        let first = run_once(seed);
        let second = run_once(seed);
        assert_eq!(first, second, "seed {seed} did not replay");
        match first.0 {
            Ok(n) => assert_eq!(n, 144, "seed {seed} corrupted the result"),
            Err(reason) => {
                assert_eq!(reason, Some(CancelReason::Token), "seed {seed}");
                cancelled_somewhere = true;
            }
        }
    }
    assert!(
        cancelled_somewhere,
        "no seed fired a forced cancellation at 1/16 per sync"
    );
}

/// Forced-cancellation soak on four workers: the `ForceCancel` site on
/// top of the aggressive profile latches the region at steal / sync /
/// suspend boundaries while stolen continuations race the join. Every run
/// either returns the serial result or unwinds to the `run` caller with
/// `Cancelled { reason: Token }`; the runtime then still runs work and
/// shuts down cleanly, and each flavor cancels at least once over the
/// sweep.
#[test]
fn forced_cancellation_soak_survives_on_four_workers() {
    quiet_expected_panics();
    for flavor in BOTH_FLAVORS {
        let mut cancelled = 0;
        for seed in 5..13u64 {
            let chaos = nowa_runtime::ChaosConfig {
                force_cancel: 4096, // 1/16 per boundary visit
                ..nowa_runtime::ChaosConfig::aggressive(seed)
            };
            let mut config = Config::with_workers(4)
                .flavor(flavor)
                .stack_size(256 * 1024)
                .chaos(chaos);
            config.stack_cache = 0; // all stacks via the pool: mmap faults bite
            let rt = Runtime::new(config).unwrap();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                rt.run(|| {
                    let region = Region::cancellable();
                    let n = fib(16);
                    region.sync();
                    n
                })
            }));
            let ctx = format!("{} seed {seed}", flavor.name());
            match outcome {
                Ok(n) => assert_eq!(n, 987, "{ctx}: result corrupted"),
                Err(payload) => {
                    assert_eq!(reason_of(&*payload), Some(CancelReason::Token), "{ctx}");
                    cancelled += 1;
                }
            }
            assert_eq!(rt.run(|| 7), 7, "{ctx}: runtime wedged after the run");
            rt.shutdown(Duration::from_secs(10))
                .unwrap_or_else(|e| panic!("{ctx}: shutdown failed: {e}"));
        }
        assert!(
            cancelled > 0,
            "no forced cancellation fired on {} over 8 seeds",
            flavor.name()
        );
    }
}

/// A worker busy unwinding cancelled regions is making progress — the
/// stall watchdog must stay silent (regression: cancels/aborts count
/// toward `WorkerStats::progress`).
#[test]
fn watchdog_quiet_while_unwinding_cancellations() {
    quiet_expected_panics();
    let rt = Runtime::new(Config::with_workers(1).watchdog(Duration::from_millis(40))).unwrap();
    rt.run(|| {
        let region = Region::cancellable();
        region.cancel_token().unwrap().cancel();
        let until = Instant::now() + Duration::from_millis(250);
        while Instant::now() < until {
            // Every checkpoint raises; every raise is progress.
            let out = catch_unwind(AssertUnwindSafe(|| region.checkpoint()));
            assert!(out.is_err());
        }
    });
    assert!(rt.stats().cancels > 0, "the loop never raised");
    assert_eq!(
        rt.snapshot().watchdog_reports,
        0,
        "watchdog flagged a worker that was unwinding cancellations"
    );
}

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = api::join2(|| fib(n - 1), || fib(n - 2));
    a + b
}
