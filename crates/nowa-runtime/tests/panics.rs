//! Panic-propagation and stall-watchdog hardening tests.
//!
//! The basic "one child panics" paths are covered in `runtime.rs`; this
//! suite exercises the nastier corners of the failure model:
//!
//! * two children of the *same* frame panic — exactly one payload is
//!   re-thrown, the other is dropped (not leaked, not aborted on);
//! * a panic captured before the parent suspends at sync crosses the
//!   suspension and is re-thrown when the join resumes the continuation,
//!   possibly on a different worker;
//! * the stall watchdog reports a worker that stops making progress and
//!   stays silent on a healthy run.
//!
//! Everything runs under both the NOWA (wait-free) and FIBRIL (locked)
//! join protocols — panic bookkeeping lives above the protocol layer and
//! must behave identically under both.

use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Once;
use std::time::Duration;

use nowa_runtime::{api, Config, Flavor, Runtime};

/// Silences the default panic hook for this suite's deliberate payloads so
/// the expected panics don't spray backtraces over the test output.
fn quiet_expected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<Boom>().is_none() {
                default(info);
            }
        }));
    });
}

/// Drop-counting panic payload: every `Boom` ever thrown must eventually be
/// dropped exactly once, whether it won the first-panic race or lost it.
struct Boom {
    tag: &'static str,
    drops: &'static AtomicU32,
}

impl Drop for Boom {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

const BOTH_FLAVORS: [Flavor; 2] = [Flavor::NOWA, Flavor::FIBRIL];

#[test]
fn both_children_panic_single_worker_first_wins() {
    quiet_expected_panics();
    static DROPS: AtomicU32 = AtomicU32::new(0);
    for flavor in BOTH_FLAVORS {
        let before = DROPS.load(Ordering::SeqCst);
        let rt = Runtime::new(Config::with_workers(1).flavor(flavor)).unwrap();
        let result = catch_unwind(AssertUnwindSafe(|| {
            rt.run(|| {
                api::join3(
                    || {
                        panic_any(Boom {
                            tag: "first",
                            drops: &DROPS,
                        })
                    },
                    || {
                        panic_any(Boom {
                            tag: "second",
                            drops: &DROPS,
                        })
                    },
                    || (),
                );
            })
        }));
        let payload = result.expect_err("both children panicked, none propagated");
        let boom = payload
            .downcast::<Boom>()
            .expect("payload must be the child's Boom, unmodified");
        // One worker executes the children in spawn order, so the winner of
        // the first-panic race is deterministic: the first child.
        assert_eq!(boom.tag, "first", "flavor {}", flavor.name());
        // The losing payload was dropped when its `set_panic` found the
        // slot taken; only the re-thrown one is still alive.
        assert_eq!(DROPS.load(Ordering::SeqCst) - before, 1);
        drop(boom);
        assert_eq!(DROPS.load(Ordering::SeqCst) - before, 2, "payload leaked");
        // The runtime survives.
        assert_eq!(rt.run(|| 21 * 2), 42);
    }
}

#[test]
fn both_children_panic_multi_worker_no_leak() {
    quiet_expected_panics();
    static DROPS: AtomicU32 = AtomicU32::new(0);
    for flavor in BOTH_FLAVORS {
        // With thieves around, either child may reach `set_panic` first;
        // the invariant is one payload out, one payload dropped, zero leaks.
        for _ in 0..20 {
            let before = DROPS.load(Ordering::SeqCst);
            let rt = Runtime::new(Config::with_workers(4).flavor(flavor)).unwrap();
            let result = catch_unwind(AssertUnwindSafe(|| {
                rt.run(|| {
                    api::join3(
                        || {
                            panic_any(Boom {
                                tag: "a",
                                drops: &DROPS,
                            })
                        },
                        || {
                            panic_any(Boom {
                                tag: "b",
                                drops: &DROPS,
                            })
                        },
                        || (),
                    );
                })
            }));
            let boom = result
                .expect_err("no panic propagated")
                .downcast::<Boom>()
                .expect("payload must be a Boom");
            assert!(boom.tag == "a" || boom.tag == "b");
            assert_eq!(DROPS.load(Ordering::SeqCst) - before, 1);
            drop(boom);
            assert_eq!(DROPS.load(Ordering::SeqCst) - before, 2, "payload leaked");
        }
    }
}

#[test]
fn panic_crosses_suspended_sync() {
    quiet_expected_panics();
    static DROPS: AtomicU32 = AtomicU32::new(0);
    for flavor in BOTH_FLAVORS {
        // The spawned child sleeps long enough for a thief to steal the
        // continuation, run `b`, and suspend at the sync with the child
        // still outstanding. The child then panics; its join is the last
        // arrival, so it resumes the suspended continuation (on whichever
        // worker ran the child) and `propagate` re-throws there.
        let rt = Runtime::new(Config::with_workers(2).flavor(flavor)).unwrap();
        let before = DROPS.load(Ordering::SeqCst);
        let result = catch_unwind(AssertUnwindSafe(|| {
            rt.run(|| {
                api::join2(
                    || {
                        std::thread::sleep(Duration::from_millis(50));
                        panic_any(Boom {
                            tag: "late child",
                            drops: &DROPS,
                        });
                    },
                    || (),
                );
            })
        }));
        let boom = result
            .expect_err("late child panic did not propagate")
            .downcast::<Boom>()
            .expect("payload must be the child's Boom");
        assert_eq!(boom.tag, "late child", "flavor {}", flavor.name());
        drop(boom);
        assert_eq!(DROPS.load(Ordering::SeqCst) - before, 1, "payload leaked");
        let stats = rt.stats();
        assert!(
            stats.suspensions >= 1,
            "sync never suspended — the panic did not cross a suspension: {stats:?}"
        );
        assert!(
            stats.sync_resumes >= 1,
            "suspended sync was never resumed by the last join: {stats:?}"
        );
        assert_eq!(rt.run(|| 21 * 2), 42);
    }
}

#[test]
fn watchdog_reports_stalled_worker() {
    // A root task that sleeps far past the threshold pins its worker
    // without bumping any progress counter — exactly a stall.
    let rt = Runtime::new(Config::with_workers(2).watchdog(Duration::from_millis(40))).unwrap();
    rt.run(|| std::thread::sleep(Duration::from_millis(250)));
    assert!(
        rt.snapshot().watchdog_reports >= 1,
        "watchdog missed a 250ms stall with a 40ms threshold"
    );
}

#[test]
fn watchdog_quiet_on_healthy_run() {
    fn fib(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = api::join2(|| fib(n - 1), || fib(n - 2));
        a + b
    }
    let rt = Runtime::new(Config::with_workers(2).watchdog(Duration::from_millis(500))).unwrap();
    assert_eq!(rt.run(|| fib(20)), 6765);
    // Idle workers tick their search loop, busy workers bump real
    // counters; nobody should look stalled.
    assert_eq!(
        rt.snapshot().watchdog_reports,
        0,
        "false-positive stall report"
    );
}
