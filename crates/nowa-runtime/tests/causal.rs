//! End-to-end causal-profile tests: real scheduler runs, reconstructed DAG.
//!
//! The trace events carry causal identity (frame ids, steal provenance),
//! so [`nowa_trace::CausalProfile`] can replay the per-worker deques and
//! rebuild the fork/join DAG. Against a live runtime the reconstruction
//! must be *complete* (no drops, every steal matched to its spawn edge)
//! and must agree with the scheduler's own counters — the same
//! conservation laws `runtime.rs` asserts on [`StatsSnapshot`], but now
//! derived independently from the event stream.

#![cfg(feature = "trace")]

use nowa_runtime::{api, Config, Runtime};
use nowa_trace::CausalProfile;

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = api::join2(|| fib(n - 1), || fib(n - 2));
    a + b
}

/// Runs `f` under tracing with a ring big enough to hold every event, and
/// returns the reconstructed profile plus the scheduler's own counters.
fn profiled<R: Send>(
    workers: usize,
    config: Config,
    f: impl FnOnce() -> R + Send,
) -> (R, CausalProfile, nowa_runtime::StatsSnapshot) {
    let rt = Runtime::new(config.tracing(true).trace_ring(1 << 18)).unwrap();
    assert_eq!(rt.workers(), workers);
    let out = rt.run(f);
    let stats = rt.stats();
    let report = rt.trace_report().expect("tracing configured");
    let profile = CausalProfile::from_workers(&report.workers);
    (out, profile, stats)
}

#[test]
fn reconstruction_is_complete_and_matches_scheduler_counters() {
    let (out, profile, stats) = profiled(4, Config::with_workers(4), || fib(20));
    assert_eq!(out, 6765);
    assert_eq!(profile.dropped, 0, "ring sized to hold the full run");
    assert!(
        profile.complete(),
        "no unmatched pops/steals on a lossless trace: {profile:?}"
    );
    // The event stream and the relaxed counters are independent records of
    // the same run; they must tell the same story.
    assert_eq!(profile.spawns, stats.spawns);
    assert_eq!(profile.steals, stats.steals);
    assert_eq!(profile.fast_pops, stats.fast_pops);
    assert_eq!(profile.own_takes, stats.own_takes);
    assert_eq!(profile.joins, stats.joins);
    assert_eq!(profile.suspensions, stats.suspensions);
    // Conservation: every steal event paired with exactly one spawn edge.
    assert_eq!(profile.matched_steals, profile.steals);
    assert_eq!(profile.unmatched_steals, 0);
    assert_eq!(
        profile.spawns,
        profile.fast_pops + profile.steals + profile.own_takes,
        "every offered continuation consumed exactly once"
    );
    // The work/span laws: T∞ ≤ T1, parallelism ≥ 1.
    assert!(profile.t1_ns > 0);
    assert!(profile.span_ns > 0 && profile.span_ns <= profile.t1_ns);
    assert!(profile.parallelism() >= 1.0 - 1e-9);
    assert_eq!(profile.critical.span_ns, profile.span_ns);
    // Steal-edge statistics exist iff steals happened.
    assert_eq!(profile.steal_edges.len() as u64, profile.matched_steals);
    assert_eq!(profile.time_in_deque.count, profile.matched_steals);
}

#[test]
fn single_worker_run_has_no_steal_edges() {
    let (out, profile, stats) = profiled(1, Config::with_workers(1), || fib(16));
    assert_eq!(out, 987);
    assert_eq!(profile.dropped, 0);
    assert!(profile.complete(), "{profile:?}");
    assert_eq!(profile.steals, 0);
    assert!(profile.steal_edges.is_empty());
    assert_eq!(profile.spawns, stats.spawns);
    // T1/T∞ is the *program's* inherent parallelism (Cilkview-style), not
    // the achieved speedup: even on one worker, fib's wide DAG must show
    // parallelism well above 1.
    assert!(profile.parallelism() > 1.0, "{profile:?}");
    // And no steal edge can sit on the critical path of a 1-worker run.
    assert_eq!(profile.critical.steal_edges, 0);
}

/// What tracing *does* per spawn is bounded (how long that takes on a
/// shared host is not gated anywhere). On one worker a `join2` records
/// `Spawn`, `FastPop` and `SyncInline`, plus an `Occupancy` sample every
/// 64th spawn; the root and the idle descent after the run add a handful.
/// So 4 events per spawn holds with room to spare and breaks as soon as
/// the spawn path emits one more — and a ring that holds the run drops
/// nothing.
#[test]
fn tracing_records_a_bounded_number_of_events_per_spawn() {
    let rt = Runtime::new(Config::with_workers(1).tracing(true).trace_ring(1 << 18)).unwrap();
    assert_eq!(rt.run(|| fib(20)), 6765);
    let spawns = rt.stats().spawns;
    let report = rt.trace_report().expect("tracing configured");
    let events: u64 = report.counts.iter().sum();
    assert_eq!(report.dropped_total, 0, "ring sized to hold the full run");
    assert!(
        events <= 4 * spawns,
        "{events} events for {spawns} spawns: {:?}",
        report.counts
    );
}

/// Forced steal failures (chaos) perturb *which* steals succeed, not the
/// conservation law: every successful steal still pairs with exactly one
/// spawn edge in the reconstruction.
#[cfg(feature = "chaos")]
#[test]
fn steal_conservation_holds_under_forced_steal_failures() {
    use nowa_runtime::ChaosConfig;
    for seed in [0xBEEF_u64, 0xCAFE, 0x5EED] {
        let mut chaos = ChaosConfig::with_seed(seed);
        chaos.steal_fail = 16384; // 25% of steal attempts forced to fail
        let (out, profile, stats) = profiled(4, Config::with_workers(4).chaos(chaos), || fib(18));
        assert_eq!(out, 2584);
        assert_eq!(profile.dropped, 0, "seed {seed:#x}");
        assert_eq!(profile.unmatched_steals, 0, "seed {seed:#x}: {profile:?}");
        assert_eq!(profile.matched_steals, profile.steals, "seed {seed:#x}");
        assert_eq!(profile.steals, stats.steals, "seed {seed:#x}");
        assert_eq!(
            profile.spawns,
            profile.fast_pops + profile.steals + profile.own_takes,
            "seed {seed:#x}: conservation"
        );
    }
}
