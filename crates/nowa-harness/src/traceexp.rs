//! Traced real-runtime experiments: `nowa-bench trace <experiment>`.
//!
//! Re-runs a real experiment with scheduler tracing enabled
//! ([`Config::tracing`]) and reports what the scheduler actually did —
//! steal rates and latencies, suspension latencies, idle time, deque
//! occupancy — instead of (only) how long it took. With `--trace-out FILE`
//! the raw per-worker event streams are written as Chrome `trace_event`
//! JSON (one track per worker), loadable in Perfetto or `chrome://tracing`.

use nowa_kernels::{BenchId, Size};
use nowa_runtime::{Config, Flavor, Runtime, StatsSnapshot};
use nowa_trace::{EventKind, TraceReport};

use crate::stats::Table;

/// One traced configuration: its label, the merged report, and the
/// scheduler counters of the same run window.
struct TracedRun {
    label: String,
    report: TraceReport,
    stats: StatsSnapshot,
}

/// Runs `work` once per rep on a freshly built traced runtime and collects
/// the trace.
fn run_traced(
    label: impl Into<String>,
    config: Config,
    reps: usize,
    work: impl Fn(&Runtime),
) -> TracedRun {
    let rt = Runtime::new(config.tracing(true)).expect("runtime");
    for _ in 0..reps.max(1) {
        work(&rt);
    }
    let report = rt.trace_report().expect("tracing was enabled");
    let stats = rt.stats();
    TracedRun {
        label: label.into(),
        report,
        stats,
    }
}

fn fmt_us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1_000.0)
}

fn ratio(x: f64) -> String {
    format!("{:.3}", x)
}

/// A metric-per-row comparison table over the traced configurations.
fn trace_table(title: String, runs: &[TracedRun]) -> Table {
    let mut header = vec!["metric".to_string()];
    header.extend(runs.iter().map(|r| r.label.clone()));
    let mut table = Table {
        title,
        header,
        rows: Vec::new(),
    };
    let mut metric = |name: &str, f: &dyn Fn(&TracedRun) -> String| {
        let mut row = vec![name.to_string()];
        row.extend(runs.iter().map(f));
        table.row(row);
    };
    metric("spawns", &|r| r.stats.spawns.to_string());
    metric("continuations consumed", &|r| {
        r.stats.continuations_consumed().to_string()
    });
    metric("fast-path ratio", &|r| ratio(r.stats.fast_path_ratio()));
    metric("steals", &|r| r.stats.steals.to_string());
    metric("steal attempts", &|r| r.stats.steal_attempts().to_string());
    metric("steal success ratio", &|r| {
        ratio(r.stats.steal_success_ratio())
    });
    metric("suspensions", &|r| r.stats.suspensions.to_string());
    metric("steal→poll p50 [µs] ≤", &|r| {
        fmt_us(r.report.steal_latency.quantile_upper_bound(0.5))
    });
    metric("steal→poll p99 [µs] ≤", &|r| {
        fmt_us(r.report.steal_latency.quantile_upper_bound(0.99))
    });
    metric("suspend→resume p50 [µs] ≤", &|r| {
        fmt_us(r.report.suspend_latency.quantile_upper_bound(0.5))
    });
    metric("suspend→resume p99 [µs] ≤", &|r| {
        fmt_us(r.report.suspend_latency.quantile_upper_bound(0.99))
    });
    metric("idle spins", &|r| r.report.idle_spin.count.to_string());
    metric("idle p99 [µs] ≤", &|r| {
        fmt_us(r.report.idle_spin.quantile_upper_bound(0.99))
    });
    metric("deque occupancy p50 ≤", &|r| {
        r.report.occupancy.quantile_upper_bound(0.5).to_string()
    });
    metric("deque occupancy max", &|r| {
        r.report.occupancy.max.to_string()
    });
    metric("events retained", &|r| r.report.total_events().to_string());
    metric("events dropped", &|r| r.report.dropped_total.to_string());
    table
}

/// Runs the traced variant of `experiment` (one of `measured`,
/// `ablation-pool`, `knapsack-order`, `fig9`) and returns comparison
/// tables. When `trace_out` is given, the Chrome trace of the first traced
/// configuration is written there.
pub fn trace_experiment(
    experiment: &str,
    size: Size,
    workers: usize,
    reps: usize,
    trace_out: Option<&str>,
) -> Vec<Table> {
    let runs = match experiment {
        "measured" => measured(size, workers, reps),
        "ablation-pool" => ablation_pool(size, workers, reps),
        "knapsack-order" => knapsack_order(workers, reps),
        "fig9" => fig9(size, workers, reps),
        other => {
            eprintln!(
                "trace mode supports: measured, ablation-pool, knapsack-order, fig9 (got {other})"
            );
            std::process::exit(2);
        }
    };

    if let Some(path) = trace_out {
        let chrome = runs[0].report.chrome_trace();
        match std::fs::write(path, &chrome) {
            Ok(()) => eprintln!(
                "wrote Chrome trace ({} events, {} workers) to {path}",
                runs[0].report.total_events(),
                runs[0].report.workers.len(),
            ),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }

    let mut tables = vec![trace_table(
        format!("Traced `{experiment}` (size {size:?}, {workers} workers, {reps} reps)"),
        &runs,
    )];
    tables.push(event_count_table(&runs));
    tables
}

/// Event counts by kind across configurations.
fn event_count_table(runs: &[TracedRun]) -> Table {
    let mut header = vec!["event".to_string()];
    header.extend(runs.iter().map(|r| r.label.clone()));
    let mut table = Table {
        title: "Trace event counts (ring-retained)".to_string(),
        header,
        rows: Vec::new(),
    };
    for kind in EventKind::ALL {
        if runs.iter().all(|r| r.report.count(kind) == 0) {
            continue;
        }
        let mut row = vec![kind.name().to_string()];
        row.extend(runs.iter().map(|r| r.report.count(kind).to_string()));
        table.row(row);
    }
    table
}

/// All 12 kernels on the default Nowa flavor, one traced runtime.
fn measured(size: Size, workers: usize, reps: usize) -> Vec<TracedRun> {
    vec![run_traced(
        "nowa (all kernels)",
        Config::with_workers(workers),
        1,
        |rt| {
            for bench in BenchId::ALL {
                for _ in 0..reps.max(1) {
                    let checksum = rt.run(|| bench.run(size));
                    assert!(checksum.is_finite());
                }
            }
        },
    )]
}

/// The stack-pool ablation configurations under tracing (cholesky).
fn ablation_pool(size: Size, workers: usize, reps: usize) -> Vec<TracedRun> {
    let shipped = Config::with_workers(workers).stack_cache;
    [
        ("cache+1stripe", shipped, 1usize),
        ("nocache+1stripe", 0, 1),
        ("nocache+8stripes", 0, 8),
        ("cache+8stripes", shipped, 8),
    ]
    .into_iter()
    .map(|(label, cache, stripes)| {
        let mut config = Config::with_workers(workers);
        config.stack_cache = cache;
        config.pool_stripes = stripes;
        run_traced(label, config, reps, |rt| {
            let checksum = rt.run(|| BenchId::Cholesky.run(size));
            assert!(checksum.is_finite());
        })
    })
    .collect()
}

/// Knapsack under both spawn orders (§V-A) — the traced view shows *why*
/// the orders differ: steal counts and deque occupancy shift.
fn knapsack_order(workers: usize, reps: usize) -> Vec<TracedRun> {
    use nowa_kernels::knapsack::{knapsack, random_items, SpawnOrder};
    let (items, capacity) = random_items(23, 9);
    let expected = nowa_kernels::knapsack::knapsack_reference(&items, capacity);
    [
        ("take-first", SpawnOrder::TakeFirst),
        ("skip-first", SpawnOrder::SkipFirst),
    ]
    .into_iter()
    .map(|(label, order)| {
        let items = items.clone();
        run_traced(label, Config::with_workers(workers), reps, move |rt| {
            let got = rt.run(|| knapsack(&items, capacity, order));
            assert_eq!(got, expected, "knapsack result mismatch");
        })
    })
    .collect()
}

/// Fig 9's axis (CL vs THE work-stealing queue), traced on the real
/// runtime: same protocol, different deque, compared by steal behaviour.
fn fig9(size: Size, workers: usize, reps: usize) -> Vec<TracedRun> {
    [("nowa (CL)", Flavor::NOWA), ("nowa-the", Flavor::NOWA_THE)]
        .into_iter()
        .map(|(label, flavor)| {
            run_traced(
                label,
                Config::with_workers(workers).flavor(flavor),
                reps,
                |rt| {
                    let checksum = rt.run(|| BenchId::Nqueens.run(size));
                    assert!(checksum.is_finite());
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nowa_trace::json::Json;

    #[test]
    fn traced_run_records_scheduler_activity() {
        let run = run_traced("t", Config::with_workers(2), 1, |rt| {
            let checksum = rt.run(|| BenchId::Fib.run(Size::Tiny));
            assert!(checksum.is_finite());
        });
        assert!(run.stats.spawns > 0);
        assert!(run.report.count(EventKind::Spawn) > 0);
        assert!(run.report.count(EventKind::Root) >= 1);
    }

    #[test]
    fn chrome_export_has_one_track_per_worker() {
        let run = run_traced("t", Config::with_workers(3), 1, |rt| {
            let checksum = rt.run(|| BenchId::Fib.run(Size::Tiny));
            assert!(checksum.is_finite());
        });
        let parsed = Json::parse(&run.report.chrome_trace()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        let tracks: std::collections::BTreeSet<u64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .map(|e| e.get("tid").unwrap().as_num().unwrap() as u64)
            .collect();
        assert_eq!(tracks.len(), 3, "one thread_name track per worker");
    }
}
