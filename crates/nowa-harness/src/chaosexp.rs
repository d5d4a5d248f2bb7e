//! Chaos stress mode: seeded fault injection over the real kernels.
//!
//! `nowa-bench chaos --seed N --iters K` runs a kernel subset under the
//! [`ChaosConfig::aggressive`] profile — forced steal failures, forced
//! suspensions, spurious pre-push yields, injected stack-`mmap` failures —
//! on both the NOWA and FIBRIL flavors, verifying every result against a
//! serial reference run. A separate phase injects child panics (rate
//! `u16::MAX`, i.e. the first spawned child panics) and checks the payload
//! propagates to the caller as a recognisable
//! [`nowa_runtime::chaos::ChaosPanic`]. A final determinism
//! check replays one seed twice on a single worker and compares the
//! injection counters, which must match exactly.
//!
//! The point is not performance (injections make everything slower) but
//! surviving hostile interleavings: every run must still produce correct
//! results, and the injected-fault counters prove the rare paths actually
//! executed.
//!
//! `nowa-bench cancel-soak` is the cancellation sibling: the `ForceCancel`
//! site latches regions at the steal / sync / suspend boundaries across a
//! sweep of seeds, and every run must either complete correctly or unwind
//! with the typed `Cancelled` payload, survive, and shut down cleanly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use nowa_kernels::{BenchId, Size};
use nowa_runtime::chaos::{ChaosPanic, ChaosSite};
use nowa_runtime::{CancelReason, Cancelled, ChaosConfig, Config, Flavor, Region, Runtime};

use crate::stats::Table;

/// Kernels exercised per iteration: integer-exact results (comparable
/// against a serial run bit-for-bit) plus one floating kernel with a
/// schedule-independent reduction tree.
const KERNELS: [BenchId; 4] = [
    BenchId::Fib,
    BenchId::Nqueens,
    BenchId::Quicksort,
    BenchId::Integrate,
];

fn chaos_runtime(flavor: Flavor, chaos: ChaosConfig, workers: usize) -> Runtime {
    let mut config = Config::with_workers(workers)
        .flavor(flavor)
        .stack_size(256 * 1024)
        .chaos(chaos);
    // No per-worker stack cache: every spawn goes through the pool, so the
    // injected map failures are actually consumed by the retry path.
    config.stack_cache = 0;
    Runtime::new(config).expect("chaos runtime")
}

/// Runs the seeded chaos stress; panics (with context) on any divergence,
/// which makes it usable as a CI gate.
pub fn chaos_stress(seed: u64, iters: usize, workers: usize) -> Vec<Table> {
    let mut results = Table::new(
        format!("chaos stress — seed {seed}, {iters} iters, {workers} workers"),
        &["flavor", "iter", "kernels", "injected (site=fired/visits)"],
    );

    let mut total_injected = [0u64; nowa_runtime::chaos::SITES];
    for flavor in [Flavor::NOWA, Flavor::FIBRIL] {
        for iter in 0..iters {
            let chaos = ChaosConfig::aggressive(seed.wrapping_add(iter as u64));
            let rt = chaos_runtime(flavor, chaos, workers);
            let mut checked = 0;
            for bench in KERNELS {
                let reference = bench.run(Size::Tiny); // serial elision
                let got = rt.run(|| bench.run(Size::Tiny));
                assert!(
                    got == reference,
                    "chaos run diverged: {} under {flavor:?} seed {} got {got}, serial {reference}",
                    bench.name(),
                    chaos.seed,
                );
                checked += 1;
            }
            let snap = rt.snapshot().chaos.expect("chaos configured");
            for (total, fired) in total_injected.iter_mut().zip(snap.injected) {
                *total += fired;
            }
            results.row(vec![
                format!("{flavor:?}"),
                iter.to_string(),
                format!("{checked} ok"),
                format!("{snap}"),
            ]);
        }
    }

    // Every non-destructive fault kind must actually have fired across the
    // sweep — otherwise the "stress" exercised nothing.
    for site in [
        ChaosSite::StealFail,
        ChaosSite::ForceSuspend,
        ChaosSite::SpuriousYield,
        ChaosSite::MmapFail,
    ] {
        assert!(
            total_injected[site as usize] > 0,
            "no {site:?} injection fired over the whole sweep; rates or hook wiring broken"
        );
    }

    let mut hardening = Table::new("chaos hardening checks", &["check", "flavor", "outcome"]);
    for flavor in [Flavor::NOWA, Flavor::FIBRIL] {
        hardening.row(vec![
            "child panic propagates".into(),
            format!("{flavor:?}"),
            panic_injection_check(flavor, seed, workers),
        ]);
    }
    hardening.row(vec![
        "same seed, same injections".into(),
        "NOWA".into(),
        determinism_check(seed),
    ]);

    vec![results, hardening]
}

/// Cancellation soak: `nowa-bench cancel-soak --seed N --iters K`.
///
/// Arms the `ForceCancel` chaos site on top of the aggressive profile, so
/// regions are latched at the steal / sync / suspend boundaries — the
/// three places a cancellation racing the join protocol is most delicate —
/// across `iters` seeds and both flavors. Every run must either complete
/// with the correct result or unwind with the typed [`Cancelled`] payload,
/// the runtime must survive the unwind and then shut down cleanly, and a
/// single-worker replay must reproduce one seed's forced-cancel sequence
/// exactly. Panics (with context) on any violation — a CI gate.
pub fn cancel_soak(seed: u64, iters: usize, workers: usize) -> Vec<Table> {
    quiet_chaos_panics();
    let mut results = Table::new(
        format!("cancel soak — base seed {seed}, {iters} seeds, {workers} workers"),
        &["flavor", "seed", "outcome", "cancels", "aborts", "shutdown"],
    );

    let reference = BenchId::Fib.run(Size::Tiny); // serial elision
    let mut cancelled_runs = 0u64;
    for flavor in [Flavor::NOWA, Flavor::FIBRIL] {
        for iter in 0..iters {
            let s = seed.wrapping_add(iter as u64);
            let mut chaos = ChaosConfig::aggressive(s);
            chaos.force_cancel = 4096; // 1/16 per boundary visit
            let rt = chaos_runtime(flavor, chaos, workers);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                rt.run(|| {
                    // The whole kernel runs under a cancellable region, so
                    // a forced cancellation anywhere in the tree latches
                    // this scope and unwinds cooperatively.
                    let region = Region::cancellable();
                    let got = BenchId::Fib.run(Size::Tiny);
                    region.sync();
                    got
                })
            }));
            let outcome = match outcome {
                Ok(got) => {
                    assert!(
                        got == reference,
                        "cancel soak diverged: fib under {flavor:?} seed {s} \
                         got {got}, serial {reference}"
                    );
                    "completed"
                }
                Err(payload) => match payload.downcast_ref::<Cancelled>() {
                    Some(c) => {
                        assert!(
                            c.reason == CancelReason::Token,
                            "forced cancellation carried the wrong reason: {:?}",
                            c.reason
                        );
                        cancelled_runs += 1;
                        "cancelled"
                    }
                    None => panic!(
                        "cancel soak unwound with a non-Cancelled payload \
                         under {flavor:?} seed {s}"
                    ),
                },
            };
            // The runtime must survive the unwind...
            assert!(
                rt.run(|| 7) == 7,
                "runtime wedged after a cancelled run ({flavor:?} seed {s})"
            );
            let stats = rt.stats();
            // ...and drain cleanly on shutdown.
            let shutdown = match rt.shutdown(Duration::from_secs(10)) {
                Ok(()) => "ok".to_string(),
                Err(e) => panic!("shutdown failed after cancel soak ({flavor:?} seed {s}): {e}"),
            };
            results.row(vec![
                format!("{flavor:?}"),
                s.to_string(),
                outcome.into(),
                stats.cancels.to_string(),
                stats.aborts.to_string(),
                shutdown,
            ]);
        }
    }
    assert!(
        cancelled_runs > 0,
        "no forced cancellation fired across {iters} seeds — rates or hook wiring broken"
    );

    let mut hardening = Table::new("cancel determinism", &["check", "flavor", "outcome"]);
    hardening.row(vec![
        "same seed, same forced cancels".into(),
        "NOWA".into(),
        cancel_determinism_check(seed),
    ]);
    vec![results, hardening]
}

/// Replays one force-cancel seed twice on a single worker; outcome kind
/// and injection counters must match exactly.
fn cancel_determinism_check(seed: u64) -> String {
    let run = || {
        let mut chaos = ChaosConfig::with_seed(seed);
        chaos.force_cancel = 4096;
        let rt = chaos_runtime(Flavor::NOWA, chaos, 1);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            rt.run(|| {
                let region = Region::cancellable();
                let got = BenchId::Fib.run(Size::Tiny);
                region.sync();
                got
            })
        }));
        let kind = match &outcome {
            Ok(v) => format!("completed({v})"),
            Err(p) => format!(
                "cancelled({:?})",
                p.downcast_ref::<Cancelled>().map(|c| c.reason)
            ),
        };
        (kind, rt.snapshot().chaos.expect("chaos configured"))
    };
    let first = run();
    let second = run();
    assert!(
        first == second,
        "same seed produced different cancellation behaviour: {first:?} vs {second:?}"
    );
    format!("ok ({} — {})", first.0, first.1)
}

/// Silences the default panic hook for injected [`ChaosPanic`] payloads
/// and cooperative [`Cancelled`] unwinds so the expected panics below
/// don't spray backtraces over the report.
fn quiet_chaos_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.downcast_ref::<ChaosPanic>().is_none() && p.downcast_ref::<Cancelled>().is_none() {
                default(info);
            }
        }));
    });
}

/// Injects a panic into the first spawned child and verifies the payload
/// reaches the `Runtime::run` caller intact.
fn panic_injection_check(flavor: Flavor, seed: u64, workers: usize) -> String {
    quiet_chaos_panics();
    let mut chaos = ChaosConfig::with_seed(seed);
    chaos.child_panic = u16::MAX; // every child panics
    let rt = chaos_runtime(flavor, chaos, workers);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        rt.run(|| {
            let (a, b) = nowa_runtime::api::join2(|| 1, || 2);
            a + b
        })
    }));
    match outcome {
        Err(payload) => match payload.downcast_ref::<ChaosPanic>() {
            Some(p) => format!("ok (ChaosPanic from worker {})", p.worker),
            None => panic!("panic propagated but payload was not ChaosPanic"),
        },
        Ok(v) => panic!("injected child panic did not propagate (got {v})"),
    }
}

/// Replays one seed twice on a single worker; the injection counters must
/// match exactly (single-worker schedules are deterministic).
fn determinism_check(seed: u64) -> String {
    let run = || {
        let rt = chaos_runtime(Flavor::NOWA, ChaosConfig::aggressive(seed), 1);
        let _ = rt.run(|| BenchId::Fib.run(Size::Tiny));
        rt.snapshot().chaos.expect("chaos configured")
    };
    let first = run();
    let second = run();
    assert_eq!(
        first, second,
        "same seed produced different injection sequences"
    );
    format!("ok ({first})")
}
