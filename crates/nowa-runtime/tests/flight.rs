//! Flight-recorder integration tests.
//!
//! The flight recorder is the tail of each worker's overwrite-oldest event
//! ring (`Config::trace_ring`), kept even with tracing off: the last
//! moments of scheduler history, with no exporter thread. These tests
//! drive the four post-mortem paths end to end:
//!
//! * a child panic propagating out of [`Runtime::run`] leaves the final
//!   scheduler events in the rings (and dumps them to stderr on the way);
//! * a watchdog-detected stall counts a report and leaves the rings
//!   dumpable;
//! * a shutdown that times out dumps the rings before reporting the
//!   stragglers — the last thing a wedged runtime does is explain itself;
//! * the recorder works with full tracing *off* — it is the always-on
//!   half of the observability story.
//!
//! (The live-metrics surface is tested in `snapshot.rs`, which — like the
//! surface itself — needs no cargo feature.)

#![cfg(feature = "trace")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;
use std::time::Duration;

use nowa_runtime::{api, Config, Runtime};

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = api::join2(|| fib(n - 1), || fib(n - 2));
    a + b
}

/// Deliberate panic payload; the quiet hook below suppresses its backtrace.
struct Boom;

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

#[test]
fn child_panic_leaves_final_events_in_flight_ring() {
    quiet_expected_panics();
    let rt = Runtime::new(Config::with_workers(2).trace_ring(4096)).unwrap();
    let result = catch_unwind(AssertUnwindSafe(|| {
        rt.run(|| {
            let (_a, _b) = api::join2(|| fib(10), || -> u64 { std::panic::panic_any(Boom) });
        })
    }));
    assert!(result.is_err(), "the child panic must propagate");
    let dump = rt.flight_dump().expect("flight recorder configured");
    assert!(
        dump.contains("flight recorder: last"),
        "dump must have the merged header:\n{dump}"
    );
    // Capacity is far above the event count of fib(10), so the full
    // history — root pickup through the last spawns before the panic —
    // must be retained.
    assert!(dump.contains(" root "), "root pickup retained:\n{dump}");
    assert!(dump.contains(" spawn "), "spawns retained:\n{dump}");
}

#[test]
fn watchdog_stall_counts_report_with_flight_recorder_armed() {
    // A root task that sleeps past the threshold pins its worker without
    // bumping progress counters: the watchdog must report it, and the
    // stall report path dumps the flight rings (visible on stderr; here
    // we assert the report fired and the rings are dumpable).
    let rt = Runtime::new(
        Config::with_workers(2)
            .trace_ring(1024)
            .watchdog(Duration::from_millis(40)),
    )
    .unwrap();
    rt.run(|| {
        let _ = fib(10);
        std::thread::sleep(Duration::from_millis(250));
    });
    assert!(
        rt.snapshot().watchdog_reports >= 1,
        "watchdog missed a 250ms stall with a 40ms threshold"
    );
    let dump = rt.flight_dump().expect("flight recorder configured");
    assert!(
        dump.contains(" spawn "),
        "scheduler history retained:\n{dump}"
    );
}

/// The fourth post-mortem leg: a shutdown that times out dumps the rings
/// (to stderr) before returning the typed error, and leaves them dumpable
/// for post-mortem inspection.
#[test]
fn shutdown_timeout_drains_flight_recorder() {
    let rt = Runtime::new(Config::with_workers(2).trace_ring(2048)).unwrap();
    std::thread::scope(|s| {
        let handle = s.spawn(|| {
            rt.run(|| {
                let _ = fib(10);
                // Uncancellable straggler: pins a worker past the deadline.
                std::thread::sleep(Duration::from_millis(400));
            })
        });
        std::thread::sleep(Duration::from_millis(50));
        let err = rt
            .shutdown(Duration::from_millis(100))
            .expect_err("a sleeping worker cannot drain in 100ms");
        assert!(!err.stuck.is_empty(), "{err:?}");
        // The timeout path dumped the rings on the way out; the history
        // that explains the wedge is still retrievable afterwards.
        let dump = rt.flight_dump().expect("flight recorder configured");
        assert!(dump.contains(" spawn "), "history retained:\n{dump}");
        handle.join().unwrap();
    });
}

#[test]
fn flight_recorder_works_without_tracing() {
    let rt = Runtime::new(Config::with_workers(2).trace_ring(64)).unwrap();
    assert!(rt.trace_report().is_none(), "tracing was not requested");
    assert_eq!(rt.run(|| fib(14)), 377);
    let dump = rt.flight_dump().expect("flight recorder configured");
    assert!(dump.contains("flight recorder: last"), "{dump}");
    // Bounded: each worker retains at most capacity − 1 events no matter
    // how much history the run produced.
    let events = dump.lines().count() - 1;
    assert!(
        events <= 2 * 63,
        "dump exceeded ring bounds: {events} events"
    );
}

#[test]
fn flight_dump_absent_when_not_configured() {
    let rt = Runtime::new(Config::with_workers(1)).unwrap();
    assert_eq!(rt.run(|| 21 * 2), 42);
    assert!(rt.flight_dump().is_none());
}
