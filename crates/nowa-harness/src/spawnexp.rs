//! `nowa-bench spawn` — spawn fast-path microbenchmark (DESIGN.md §6g).
//!
//! The split-deque work (§6g) claims the common spawn no longer pays for
//! thief-safety: with the private segment enabled, a spawn whose
//! continuation is popped back by its own worker touches no shared atomic
//! at all. This experiment measures that claim directly, per flavor, with
//! the split layer on and off:
//!
//! 1. **Fast path** — one worker (no thief can exist), a tight `join2`
//!    loop run as the child of one outer spawn. The outer continuation is
//!    the deque's one public item, so the loop is where every spawn of a
//!    recursion below its outermost spine is: each iteration is exactly
//!    one spawn, one owner pop of the just-pushed continuation, and one
//!    trivially-satisfied sync. Reported as nanoseconds and TSC cycles
//!    per iteration, best-of-`reps` (minimum — the run least disturbed by
//!    the host).
//! 2. **Steal path** — two workers running `fib`, where a fraction of
//!    continuations is stolen and must cross the promotion path. Reported
//!    per spawn over the whole run, plus the steal/promotion counters that
//!    show the path was actually exercised.
//!
//! Results are printed as a table and written to `BENCH_spawn.json` in the
//! versioned [`crate::artifact`] envelope. The return value is the CI
//! gate: with the split layer on, the one-worker fast path must not be
//! slower than with it off by more than [`GATE_SLACK`] (the whole point of
//! the layer is that it makes this path *cheaper*; the slack absorbs host
//! noise, not a regression).

use std::collections::BTreeMap;
use std::time::Instant;

use nowa_runtime::{api, Config, Flavor, Runtime, SplitConfig};
use nowa_trace::json::Json;

use crate::stats::Table;

/// Gate: split-on fast-path ns/spawn ≤ split-off × this factor.
pub const GATE_SLACK: f64 = 1.15;

/// Serial-cycle timestamp: the TSC on x86-64, 0 elsewhere (the ns column
/// is always measured; the cycles column then reads 0.0).
fn tsc() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: RDTSC has no preconditions; it only reads the time-stamp
    // counter.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    0
}

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = api::join2(|| fib(n - 1), || fib(n - 2));
    a + b
}

/// The measured loop: one spawn + one fast-path pop + one sync per
/// iteration, below an outer spawn that holds the public slot (§6g: a push
/// onto an empty public deque is published, and that is not the path
/// measured here).
fn join_loop(iters: u64) -> u64 {
    let inner = || {
        let mut acc = 0u64;
        for _ in 0..iters {
            let (a, b) = api::join2(|| 1u64, || 0u64);
            acc += a + b;
        }
        acc
    };
    api::join2(inner, || ()).0
}

fn split_config(enabled: bool) -> SplitConfig {
    if enabled {
        SplitConfig::default()
    } else {
        SplitConfig::disabled()
    }
}

/// One measured configuration.
struct Sample {
    flavor: Flavor,
    path: &'static str,
    split: bool,
    ns_per_spawn: f64,
    cycles_per_spawn: f64,
    spawns: u64,
    steals: u64,
    promotions: u64,
    private_pops: u64,
}

/// One worker, tight `join2` loop: the pure spawn/sync round trip.
fn measure_fast(flavor: Flavor, split: bool, iters: u64, reps: usize) -> Sample {
    let rt = Runtime::new(
        Config::with_workers(1)
            .flavor(flavor)
            .split(split_config(split)),
    )
    .expect("runtime");
    assert_eq!(rt.run(|| join_loop(1_000)), 1_000); // warm-up
    let mut best_ns = f64::INFINITY;
    let mut best_cycles = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let c0 = tsc();
        let got = rt.run(|| join_loop(iters));
        let cycles = tsc().wrapping_sub(c0);
        let ns = t0.elapsed().as_nanos() as f64;
        assert_eq!(got, iters);
        best_ns = best_ns.min(ns / iters as f64);
        best_cycles = best_cycles.min(cycles as f64 / iters as f64);
    }
    let s = rt.stats();
    Sample {
        flavor,
        path: "fast",
        split,
        ns_per_spawn: best_ns,
        cycles_per_spawn: best_cycles,
        spawns: s.spawns,
        steals: s.steals,
        promotions: s.promotions,
        private_pops: s.private_pops,
    }
}

/// Two workers, `fib`: spawns whose continuations thieves fight over.
fn measure_steal(flavor: Flavor, split: bool, n: u64, reps: usize) -> Sample {
    let rt = Runtime::new(
        Config::with_workers(2)
            .flavor(flavor)
            .split(split_config(split)),
    )
    .expect("runtime");
    let expected = fib_serial(n);
    assert_eq!(rt.run(|| fib(n)), expected); // warm-up
    let before = rt.stats();
    let mut best_ns_total = f64::INFINITY;
    let mut best_cycles_total = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let c0 = tsc();
        assert_eq!(rt.run(|| fib(n)), expected);
        best_cycles_total = best_cycles_total.min(tsc().wrapping_sub(c0) as f64);
        best_ns_total = best_ns_total.min(t0.elapsed().as_nanos() as f64);
    }
    let after = rt.stats();
    let spawns = (after.spawns - before.spawns) / reps as u64;
    let per = spawns.max(1) as f64;
    Sample {
        flavor,
        path: "steal",
        split,
        ns_per_spawn: best_ns_total / per,
        cycles_per_spawn: best_cycles_total / per,
        spawns: after.spawns,
        steals: after.steals,
        promotions: after.promotions,
        private_pops: after.private_pops,
    }
}

fn fib_serial(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib_serial(n - 1) + fib_serial(n - 2)
    }
}

fn json_of(s: &Sample) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("flavor".into(), Json::Str(s.flavor.name().into()));
    obj.insert("path".into(), Json::Str(s.path.into()));
    obj.insert("split".into(), Json::Bool(s.split));
    obj.insert("ns_per_spawn".into(), Json::Num(s.ns_per_spawn));
    obj.insert("cycles_per_spawn".into(), Json::Num(s.cycles_per_spawn));
    obj.insert("spawns".into(), Json::Num(s.spawns as f64));
    obj.insert("steals".into(), Json::Num(s.steals as f64));
    obj.insert("promotions".into(), Json::Num(s.promotions as f64));
    obj.insert("private_pops".into(), Json::Num(s.private_pops as f64));
    Json::Obj(obj)
}

/// Runs the spawn microbenchmark, prints the table, writes
/// `BENCH_spawn.json`, and returns the CI gate verdict (`false` = the
/// split-on fast path regressed past [`GATE_SLACK`]).
pub fn spawn_bench(quick: bool) -> bool {
    let (iters, reps, steal_n) = if quick {
        (100_000u64, 3usize, 16u64)
    } else {
        (1_000_000, 5, 20)
    };

    let mut samples = Vec::new();
    for flavor in Flavor::ALL {
        // The fused Fibril deque has no split layer: measure it once, as
        // the lock-based baseline both columns compare against.
        let splits: &[bool] = if flavor == Flavor::FIBRIL {
            &[false]
        } else {
            &[true, false]
        };
        for &split in splits {
            samples.push(measure_fast(flavor, split, iters, reps));
        }
        for &split in splits {
            samples.push(measure_steal(flavor, split, steal_n, reps));
        }
    }

    let mut table = Table::new(
        format!(
            "Spawn fast path (§6g): per-spawn cost, split on vs off \
             ({iters} iters, best of {reps})"
        ),
        &[
            "flavor",
            "path",
            "split",
            "ns/spawn",
            "cycles/spawn",
            "steals",
            "promotions",
            "priv-pops",
        ],
    );
    for s in &samples {
        table.row(vec![
            s.flavor.name().into(),
            s.path.into(),
            if s.flavor == Flavor::FIBRIL {
                "—".into()
            } else if s.split {
                "on".into()
            } else {
                "off".into()
            },
            format!("{:.1}", s.ns_per_spawn),
            format!("{:.0}", s.cycles_per_spawn),
            s.steals.to_string(),
            s.promotions.to_string(),
            s.private_pops.to_string(),
        ]);
    }
    crate::print_tables(&[table]);

    let find = |flavor: Flavor, path: &str, split: bool| {
        samples
            .iter()
            .find(|s| s.flavor == flavor && s.path == path && s.split == split)
            .expect("sample present")
    };
    let on = find(Flavor::NOWA, "fast", true).ns_per_spawn;
    let off = find(Flavor::NOWA, "fast", false).ns_per_spawn;
    let pass = on <= off * GATE_SLACK;

    let mut gate = BTreeMap::new();
    gate.insert("fast_on_ns".into(), Json::Num(on));
    gate.insert("fast_off_ns".into(), Json::Num(off));
    gate.insert("limit_ratio".into(), Json::Num(GATE_SLACK));
    gate.insert("pass".into(), Json::Bool(pass));

    let mut root = BTreeMap::new();
    root.insert("iters".into(), Json::Num(iters as f64));
    root.insert("reps".into(), Json::Num(reps as f64));
    root.insert("steal_fib_n".into(), Json::Num(steal_n as f64));
    root.insert(
        "samples".into(),
        Json::Arr(samples.iter().map(json_of).collect()),
    );
    root.insert("gate".into(), Json::Obj(gate));
    crate::artifact::write(
        "BENCH_spawn.json",
        &crate::artifact::envelope("nowa-bench-spawn", root),
    );

    if pass {
        println!(
            "spawn gate OK: split-on fast path {on:.1} ns/spawn vs \
             split-off {off:.1} ns/spawn (limit ×{GATE_SLACK})"
        );
    } else {
        eprintln!(
            "spawn gate FAILED: split-on fast path {on:.1} ns/spawn vs \
             split-off {off:.1} ns/spawn exceeds limit ×{GATE_SLACK}"
        );
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_path_sample_is_private_when_split_on() {
        let s = measure_fast(Flavor::NOWA, true, 2_000, 1);
        assert!(s.ns_per_spawn > 0.0);
        assert_eq!(s.steals, 0, "one worker cannot steal");
        assert!(
            s.private_pops > 0,
            "split-on single-worker pops must be private"
        );
    }

    #[test]
    fn fast_path_sample_has_no_private_pops_when_split_off() {
        let s = measure_fast(Flavor::NOWA, false, 2_000, 1);
        assert_eq!(s.private_pops, 0, "split off: no private segment");
    }

    #[test]
    fn steal_path_sample_counts_spawns() {
        let s = measure_steal(Flavor::NOWA, true, 10, 1);
        assert!(s.spawns > 0);
        assert!(s.ns_per_spawn > 0.0);
    }
}
