//! Real-runtime measurements on this host: wall-clock comparisons of the
//! actual implementations (Nowa flavors, baseline pools, serial elision)
//! and the Table II RSS experiment.
//!
//! Note: speedup beyond the host's CPU count is physically impossible; on
//! the reproduction host these runs validate correctness and *overhead*
//! (single-worker slowdown vs serial), while the 1–256-thread scalability
//! shapes come from the simulator (`simexp`).

use std::time::Instant;

use nowa_baselines::{BaselineKind, BaselinePool};
use nowa_context::sys::rss_kib;
use nowa_kernels::{BenchId, Size};
use nowa_runtime::{Config, Flavor, MadvisePolicy, Runtime, StatsSnapshot};

use crate::stats::{mean, sig3, std_dev, Table};

/// A real runtime system under measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RealRuntime {
    /// The serial elision (no runtime).
    Serial,
    /// The Nowa runtime in a given flavor with a madvise policy.
    Nowa(Flavor, MadvisePolicy),
    /// One of the baseline pools.
    Baseline(BaselineKind),
}

impl RealRuntime {
    /// Report name.
    pub fn name(&self) -> String {
        match self {
            RealRuntime::Serial => "serial".into(),
            RealRuntime::Nowa(f, MadvisePolicy::Keep) => f.name().into(),
            RealRuntime::Nowa(f, policy) => format!("{}+{:?}", f.name(), policy),
            RealRuntime::Baseline(k) => k.name().into(),
        }
    }
}

/// One measurement run: per-rep wall-clock seconds, plus the scheduler
/// counters of the runtime that executed them (`None` for serial and
/// baseline systems, which have no Nowa scheduler).
pub struct Measurement {
    /// Per-rep wall-clock seconds (warm-up excluded).
    pub times: Vec<f64>,
    /// Aggregated scheduler counters over warm-up + all reps.
    pub stats: Option<StatsSnapshot>,
}

/// Measures `bench` at `size` on `runtime` with `workers` workers,
/// `reps` repetitions after one warm-up (the paper's methodology, §V,
/// scaled down from 50+1). Returns per-rep seconds and, when the system
/// under test is a Nowa flavor, the runtime's [`StatsSnapshot`].
pub fn measure_detailed(
    runtime: RealRuntime,
    bench: BenchId,
    size: Size,
    workers: usize,
    reps: usize,
) -> Measurement {
    let mut times = Vec::with_capacity(reps);
    let mut stats = None;
    let mut run_reps = |run: &mut dyn FnMut() -> f64| {
        let _warmup = run();
        for _ in 0..reps {
            times.push(run());
        }
    };
    match runtime {
        RealRuntime::Serial => {
            run_reps(&mut || {
                let start = Instant::now();
                let checksum = bench.run(size);
                let dt = start.elapsed().as_secs_f64();
                assert!(checksum.is_finite());
                dt
            });
        }
        RealRuntime::Nowa(flavor, policy) => {
            let rt = Runtime::new(Config::with_workers(workers).flavor(flavor).madvise(policy))
                .expect("runtime");
            run_reps(&mut || {
                let start = Instant::now();
                let checksum = rt.run(|| bench.run(size));
                let dt = start.elapsed().as_secs_f64();
                assert!(checksum.is_finite());
                dt
            });
            stats = Some(rt.stats());
        }
        RealRuntime::Baseline(kind) => {
            let pool = BaselinePool::new(kind, workers);
            run_reps(&mut || {
                let start = Instant::now();
                let checksum = pool.run(|| bench.run(size));
                let dt = start.elapsed().as_secs_f64();
                assert!(checksum.is_finite());
                dt
            });
        }
    }
    Measurement { times, stats }
}

/// Renders aggregated scheduler counters: one line per counter and ratio
/// of the runtime's event table, one column per Nowa system.
fn scheduler_stats_table(title: String, systems: &[(String, StatsSnapshot)]) -> Table {
    let mut header = vec!["counter".to_string()];
    header.extend(systems.iter().map(|(name, _)| name.clone()));
    let columns: Vec<StatsSnapshot> = systems.iter().map(|(_, s)| *s).collect();
    Table {
        title,
        header,
        rows: StatsSnapshot::table_rows(&columns),
    }
}

/// Wall-clock comparison of the real runtime systems on this host, and a
/// second table aggregating each Nowa system's scheduler counters over
/// all benchmarks (serial and baselines have none).
pub fn measured_comparison(size: Size, workers: usize, reps: usize) -> Vec<Table> {
    let systems = [
        RealRuntime::Serial,
        RealRuntime::Nowa(Flavor::NOWA, MadvisePolicy::Keep),
        RealRuntime::Nowa(Flavor::NOWA_THE, MadvisePolicy::Keep),
        RealRuntime::Nowa(Flavor::FIBRIL, MadvisePolicy::Keep),
        RealRuntime::Baseline(BaselineKind::ChildStealTbb),
        RealRuntime::Baseline(BaselineKind::WsTasksOmp { tied: false }),
        RealRuntime::Baseline(BaselineKind::WsTasksOmp { tied: true }),
        RealRuntime::Baseline(BaselineKind::GlobalQueueGomp),
    ];
    let mut header = vec!["benchmark".to_string()];
    header.extend(systems.iter().map(|s| s.name()));
    let mut table = Table {
        title: format!(
            "Measured wall-clock [s], {workers} workers, size {size:?}, {reps} reps (host-limited)"
        ),
        header,
        rows: Vec::new(),
    };
    let mut totals: Vec<StatsSnapshot> = vec![StatsSnapshot::default(); systems.len()];
    for bench in BenchId::ALL {
        let mut row = vec![bench.name().to_string()];
        for (i, system) in systems.into_iter().enumerate() {
            let m = measure_detailed(system, bench, size, workers, reps);
            row.push(format!(
                "{}±{}",
                sig3(mean(&m.times)),
                sig3(std_dev(&m.times))
            ));
            if let Some(s) = m.stats {
                totals[i].merge(&s);
            }
        }
        table.row(row);
    }
    let rows: Vec<(String, StatsSnapshot)> = systems
        .iter()
        .zip(&totals)
        .filter(|(s, _)| matches!(s, RealRuntime::Nowa(..)))
        .map(|(s, t)| (s.name(), *t))
        .collect();
    let stats = scheduler_stats_table(
        format!("Scheduler statistics, aggregated over all benchmarks ({workers} workers)"),
        &rows,
    );
    vec![table, stats]
}

/// Single-worker overhead of each Nowa flavor relative to the serial
/// elision — the price of the runtime mechanisms themselves — and a
/// second table aggregating each flavor's scheduler counters over all
/// benchmarks.
pub fn overhead_table(size: Size, reps: usize) -> Vec<Table> {
    let flavors = [Flavor::NOWA, Flavor::NOWA_THE, Flavor::FIBRIL];
    let mut table = Table::new(
        format!("Runtime overhead: T_1 / T_serial at size {size:?} (1 worker)"),
        &["benchmark", "serial [s]", "nowa", "nowa-the", "fibril"],
    );
    let mut totals: Vec<StatsSnapshot> = vec![StatsSnapshot::default(); flavors.len()];
    for bench in BenchId::ALL {
        let serial = mean(&measure_detailed(RealRuntime::Serial, bench, size, 1, reps).times);
        let mut row = vec![bench.name().to_string(), sig3(serial)];
        for (i, flavor) in flavors.into_iter().enumerate() {
            let m = measure_detailed(
                RealRuntime::Nowa(flavor, MadvisePolicy::Keep),
                bench,
                size,
                1,
                reps,
            );
            row.push(format!("{:.2}", mean(&m.times) / serial));
            if let Some(s) = m.stats {
                totals[i].merge(&s);
            }
        }
        table.row(row);
    }
    let rows: Vec<(String, StatsSnapshot)> = flavors
        .iter()
        .zip(&totals)
        .map(|(f, t)| (f.name().to_string(), *t))
        .collect();
    let stats = scheduler_stats_table(
        "Scheduler statistics, aggregated over all benchmarks (1 worker)".to_string(),
        &rows,
    );
    vec![table, stats]
}

/// Child-process probe for Table II: runs one benchmark under one madvise
/// policy and prints `VmHWM` (peak RSS) in KiB. Executed via self-exec so
/// each measurement starts from a fresh address space.
pub fn rss_probe(bench: BenchId, policy: MadvisePolicy, size: Size, workers: usize) -> u64 {
    let rt = Runtime::new(Config::with_workers(workers).madvise(policy)).expect("runtime");
    let checksum = rt.run(|| bench.run(size));
    assert!(checksum.is_finite());
    drop(rt);
    rss_kib().map(|(_, hwm)| hwm).unwrap_or(0)
}

/// Table II: max RSS with and without `madvise()`, via self-exec probes.
pub fn table2(size: Size, workers: usize) -> Vec<Table> {
    let exe = std::env::current_exe().expect("current exe");
    let probe = |bench: BenchId, policy: &str| -> Option<u64> {
        let out = std::process::Command::new(&exe)
            .args([
                "rss-probe",
                bench.name(),
                policy,
                match size {
                    Size::Tiny => "tiny",
                    Size::Quick => "quick",
                    Size::Medium => "medium",
                    Size::Paper => "paper",
                },
                &workers.to_string(),
            ])
            .output()
            .ok()?;
        String::from_utf8_lossy(&out.stdout).trim().parse().ok()
    };
    let mut table = Table::new(
        format!("Table II: peak RSS [MiB] wrt the use of madvise() (size {size:?})"),
        &["benchmark", "madvise off", "madvise on", "delta"],
    );
    for bench in BenchId::ALL {
        let off = probe(bench, "keep");
        let on = probe(bench, "free");
        match (off, on) {
            (Some(off), Some(on)) => {
                table.row(vec![
                    bench.name().to_string(),
                    format!("{:.1}", off as f64 / 1024.0),
                    format!("{:.1}", on as f64 / 1024.0),
                    format!("{:+.1}", (on as f64 - off as f64) / 1024.0),
                ]);
            }
            _ => {
                table.row(vec![
                    bench.name().to_string(),
                    "?".into(),
                    "?".into(),
                    "?".into(),
                ]);
            }
        }
    }
    vec![table]
}

/// Ablation (§V-A): the global stack pool under stress. `cholesky`
/// recirculates stacks heavily; disabling the per-worker caches and
/// varying the pool's stripe count exposes (and dampens) the single-pool
/// bottleneck the paper describes.
pub fn pool_ablation(size: Size, workers: usize, reps: usize) -> Vec<Table> {
    let mut table = Table::new(
        format!(
            "Ablation: stack-pool configuration on cholesky (size {size:?}, {workers} workers)"
        ),
        &[
            "configuration",
            "time [s]",
            "pool gets",
            "pool puts",
            "mmaps",
        ],
    );
    // The cached rows use the shipped default, so they measure what ships.
    let shipped = Config::with_workers(workers).stack_cache;
    for (label, cache, stripes) in [
        ("per-worker cache + 1 stripe (paper)", shipped, 1usize),
        ("no cache, 1 stripe (worst)", 0, 1),
        ("no cache, 8 stripes (improved pool)", 0, 8),
        ("cache + 8 stripes", shipped, 8),
    ] {
        let mut config = Config::with_workers(workers);
        config.stack_cache = cache;
        config.pool_stripes = stripes;
        let rt = Runtime::new(config).expect("runtime");
        let mut times = Vec::new();
        let _ = rt.run(|| BenchId::Cholesky.run(size)); // warm-up
        for _ in 0..reps {
            let start = Instant::now();
            let checksum = rt.run(|| BenchId::Cholesky.run(size));
            times.push(start.elapsed().as_secs_f64());
            assert!(checksum.is_finite());
        }
        let (gets, puts, maps) = rt.pool_stats();
        table.row(vec![
            label.to_string(),
            format!("{}±{}", sig3(mean(&times)), sig3(std_dev(&times))),
            gets.to_string(),
            puts.to_string(),
            maps.to_string(),
        ]);
    }
    vec![table]
}

/// The §V-A knapsack spawn-order experiment: branch-and-bound work depends
/// on execution order, so continuation- and child-stealing runtimes prefer
/// opposite spawn orders.
pub fn knapsack_order(workers: usize, reps: usize) -> Vec<Table> {
    use nowa_kernels::knapsack::{knapsack, random_items, SpawnOrder};
    let (items, capacity) = random_items(23, 9);
    let expected = nowa_kernels::knapsack::knapsack_reference(&items, capacity);
    let mut table = Table::new(
        "Knapsack spawn order (§V-A): time [s] per runtime and order",
        &[
            "runtime",
            "take-first (paper's default)",
            "skip-first (switched)",
        ],
    );
    let bench = |run: &mut dyn FnMut(SpawnOrder) -> i64| -> (String, String) {
        let mut cell = |order: SpawnOrder| -> String {
            let mut times = Vec::new();
            let _ = run(order);
            for _ in 0..reps {
                let start = Instant::now();
                let got = run(order);
                times.push(start.elapsed().as_secs_f64());
                assert_eq!(got, expected, "knapsack result mismatch");
            }
            format!("{}±{}", sig3(mean(&times)), sig3(std_dev(&times)))
        };
        (cell(SpawnOrder::TakeFirst), cell(SpawnOrder::SkipFirst))
    };
    {
        let rt = Runtime::new(Config::with_workers(workers)).expect("runtime");
        let (a, b) = bench(&mut |order| rt.run(|| knapsack(&items, capacity, order)));
        table.row(vec!["nowa".into(), a, b]);
    }
    {
        let pool = BaselinePool::new(BaselineKind::ChildStealTbb, workers);
        let (a, b) = bench(&mut |order| pool.run(|| knapsack(&items, capacity, order)));
        table.row(vec!["tbb-like (child stealing)".into(), a, b]);
    }
    vec![table]
}

/// Table I: the benchmark inventory.
pub fn table1() -> Vec<Table> {
    let mut table = Table::new(
        "Table I: description of the 12 benchmarks",
        &["benchmark", "paper input", "description", "paper SLOC"],
    );
    for bench in BenchId::ALL {
        table.row(vec![
            bench.name().to_string(),
            bench.paper_input().to_string(),
            bench.description().to_string(),
            bench.paper_sloc().to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_measurement_returns_reps() {
        let m = measure_detailed(RealRuntime::Serial, BenchId::Fib, Size::Tiny, 1, 3);
        assert_eq!(m.times.len(), 3);
        assert!(m.times.iter().all(|t| *t >= 0.0));
    }

    #[test]
    fn nowa_measurement_works() {
        let m = measure_detailed(
            RealRuntime::Nowa(Flavor::NOWA, MadvisePolicy::Keep),
            BenchId::Nqueens,
            Size::Tiny,
            2,
            2,
        );
        assert_eq!(m.times.len(), 2);
    }

    #[test]
    fn baseline_measurement_works() {
        let m = measure_detailed(
            RealRuntime::Baseline(BaselineKind::ChildStealTbb),
            BenchId::Fib,
            Size::Tiny,
            2,
            2,
        );
        assert_eq!(m.times.len(), 2);
    }

    #[test]
    fn detailed_measurement_reports_stats_for_nowa_only() {
        let m = measure_detailed(
            RealRuntime::Nowa(Flavor::NOWA, MadvisePolicy::Keep),
            BenchId::Fib,
            Size::Tiny,
            2,
            1,
        );
        let stats = m.stats.expect("nowa runs report scheduler stats");
        assert!(stats.spawns > 0);
        assert_eq!(stats.spawns, stats.continuations_consumed());
        let serial = measure_detailed(RealRuntime::Serial, BenchId::Fib, Size::Tiny, 1, 1);
        assert!(serial.stats.is_none());
    }

    #[test]
    fn stats_table_has_one_column_per_system() {
        let s = StatsSnapshot {
            parks: 10,
            wakes_issued: 7,
            wakes_spurious: 3,
            spawns: 100,
            promoted_items: 25,
            ..Default::default()
        };
        let systems = [("nowa".to_string(), s), ("fibril".to_string(), s)];
        let text = scheduler_stats_table("t".to_string(), &systems).render();
        for line in [
            "parks",
            "wakes_issued",
            "targeted_wake_ratio",
            "promotion_ratio",
        ] {
            assert_eq!(
                text.lines()
                    .filter(|l| l.trim_start().starts_with(line))
                    .count(),
                1,
                "{line} missing or repeated:\n{text}"
            );
        }
        assert!(
            text.contains("0.7000  0.7000"),
            "wake ratio per system:\n{text}"
        );
        assert!(
            text.contains("0.2500  0.2500"),
            "promotion ratio per system:\n{text}"
        );
    }

    #[test]
    fn table1_lists_all_benchmarks() {
        let t = table1();
        assert_eq!(t[0].rows.len(), 12);
    }

    #[test]
    fn rss_probe_reports_positive() {
        let hwm = rss_probe(BenchId::Fib, MadvisePolicy::Keep, Size::Tiny, 2);
        assert!(hwm > 0);
    }
}
