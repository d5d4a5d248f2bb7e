//! `nowa-bench profile <kernel>` — the one traced run of the harness.
//!
//! `profile` runs one kernel under scheduler tracing with a ring sized to
//! hold the whole run, reconstructs the fork/join DAG from the causal
//! event stream ([`CausalProfile`]), and reports work T1, span T∞,
//! parallelism T1/T∞, steal-edge statistics, and the per-phase composition
//! of the critical path, followed by the trace summary (event counts per
//! kind and worker, latency histograms — [`nowa_trace::TraceReport::summary_table`]).
//! The profile is also written as a versioned JSON artifact (default
//! `BENCH_profile.json`, `--out` to override) wrapped in the
//! [`crate::artifact`] envelope; `--trace-out FILE` also writes the raw
//! per-worker event streams as Chrome `trace_event` JSON (one track per
//! worker), loadable in Perfetto or `chrome://tracing`.

use std::collections::BTreeMap;
use std::time::Instant;

use nowa_kernels::{BenchId, Size};
use nowa_runtime::{Config, Runtime};
use nowa_trace::json::Json;
use nowa_trace::CausalProfile;

use crate::artifact;
use crate::stats::Table;

/// Ring capacity (events per worker) for profiling runs: sized to hold
/// every event of the supported kernel sizes so the reconstruction is
/// exact, not best-effort. 2^20 events × 16 B = 16 MiB per worker —
/// a profiling-session price, never paid by plain tracing (which keeps
/// the [`nowa_runtime::Config::trace_ring`] default).
const PROFILE_RING: usize = 1 << 20;

/// Runs `kernel` once under tracing and returns the rendered report:
/// the reconstructed profile tables and the trace summary. Writes the
/// enveloped JSON artifact to `out` and, given `trace_out`, the Chrome
/// trace there.
pub fn profile(
    kernel: &str,
    size: Size,
    workers: usize,
    out: &str,
    trace_out: Option<&str>,
) -> String {
    let Some(bench) = BenchId::parse(kernel) else {
        eprintln!("unknown kernel {kernel} (one of the 12 benchmark names, e.g. fib, nqueens)");
        std::process::exit(2);
    };
    let rt = Runtime::new(
        Config::with_workers(workers)
            .tracing(true)
            .trace_ring(PROFILE_RING),
    )
    .expect("runtime");
    let start = Instant::now();
    let checksum = rt.run(|| bench.run(size));
    let wall_s = start.elapsed().as_secs_f64();
    assert!(checksum.is_finite());
    let stats = rt.stats();
    let report = rt.trace_report().expect("tracing was enabled");
    let profile = CausalProfile::from_workers(&report.workers);

    if !profile.complete() {
        eprintln!(
            "warning: reconstruction incomplete ({} dropped, {} unmatched steals, {} unmatched \
             pops) — numbers are best-effort; re-run with fewer workers or a smaller size",
            profile.dropped, profile.unmatched_steals, profile.unmatched_pops
        );
    }

    let mut body = BTreeMap::new();
    body.insert("kernel".to_string(), Json::Str(bench.name().to_string()));
    body.insert(
        "size".to_string(),
        Json::Str(format!("{size:?}").to_lowercase()),
    );
    body.insert("workers".to_string(), Json::Num(workers as f64));
    body.insert("wall_s".to_string(), Json::Num(wall_s));
    body.insert("profile".to_string(), profile.to_json());
    // The scheduler's own relaxed counters, for cross-checking the
    // event-derived numbers above.
    let sched = stats
        .fields()
        .into_iter()
        .map(|(name, _, v)| (name.to_string(), Json::Num(v as f64)))
        .collect();
    body.insert("scheduler_stats".to_string(), Json::Obj(sched));
    artifact::write(out, &artifact::envelope("nowa-bench-profile", body));

    if let Some(path) = trace_out {
        match std::fs::write(path, report.chrome_trace()) {
            Ok(()) => println!(
                "wrote {path} (Chrome trace: {} events, {} workers)",
                report.total_events(),
                report.workers.len()
            ),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }

    let mut tables = vec![headline_table(kernel, size, workers, wall_s, &profile)];
    tables.push(phase_table(&profile));
    if !profile.steal_edges.is_empty() {
        tables.push(steal_table(&profile));
    }
    let mut rendered: String = tables.iter().map(|t| t.render() + "\n").collect();
    rendered.push_str(&report.summary_table());
    rendered
}

fn fmt_ns(ns: u64) -> String {
    if ns < 1_000_000 {
        format!("{:.1} µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.3} s", ns as f64 / 1_000_000_000.0)
    }
}

/// The Cilkview-style headline numbers as a metric/value table.
fn headline_table(
    kernel: &str,
    size: Size,
    workers: usize,
    wall_s: f64,
    p: &CausalProfile,
) -> Table {
    let mut table = Table::new(
        format!("Causal profile: {kernel} (size {size:?}, {workers} workers, wall {wall_s:.4} s)"),
        &["metric", "value"],
    );
    let mut row = |name: &str, value: String| table.row(vec![name.to_string(), value]);
    row("work T1", fmt_ns(p.t1_ns));
    row("span T∞", fmt_ns(p.span_ns));
    row("parallelism T1/T∞", format!("{:.2}", p.parallelism()));
    row("complete", p.complete().to_string());
    row("spawns", p.spawns.to_string());
    row("fast-path pops", p.fast_pops.to_string());
    row("own-deque takes", p.own_takes.to_string());
    row(
        "steal edges",
        format!("{} ({} matched)", p.steals, p.matched_steals),
    );
    row("joins", p.joins.to_string());
    row("suspensions", p.suspensions.to_string());
    if p.time_in_deque.count > 0 {
        row(
            "time-in-deque p50/p99 ≤",
            format!(
                "{} / {}",
                fmt_ns(p.time_in_deque.quantile_upper_bound(0.5)),
                fmt_ns(p.time_in_deque.quantile_upper_bound(0.99)),
            ),
        );
        row(
            "steal distance mean/max",
            format!("{:.1} / {}", p.steal_distance.mean(), p.steal_distance.max),
        );
    }
    if p.suspend_wait.count > 0 {
        row(
            "suspend wait p50/p99 ≤",
            format!(
                "{} / {}",
                fmt_ns(p.suspend_wait.quantile_upper_bound(0.5)),
                fmt_ns(p.suspend_wait.quantile_upper_bound(0.99)),
            ),
        );
    }
    table
}

/// Per-phase attribution of the critical path, largest share first.
fn phase_table(p: &CausalProfile) -> Table {
    let mut table = Table::new(
        format!(
            "Critical path: {} over {} segments, {} steal edges, deque-wait {}, suspend-wait {}",
            fmt_ns(p.critical.span_ns),
            p.critical.segments,
            p.critical.steal_edges,
            fmt_ns(p.critical.deque_wait_ns),
            fmt_ns(p.critical.suspend_wait_ns),
        ),
        &["phase", "span share", "%"],
    );
    for (phase, ns) in &p.critical.phases {
        let pct = if p.span_ns > 0 {
            *ns as f64 * 100.0 / p.span_ns as f64
        } else {
            0.0
        };
        table.row(vec![phase.to_string(), fmt_ns(*ns), format!("{pct:.1}")]);
    }
    table
}

/// Steal-edge counts by (victim → thief) pair — where work migrated.
fn steal_table(p: &CausalProfile) -> Table {
    let mut pairs: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for e in &p.steal_edges {
        *pairs.entry((e.victim, e.thief)).or_insert(0) += 1;
    }
    let mut table = Table::new(
        format!("Steal edges ({} total)", p.steal_edges.len()),
        &["victim → thief", "steals"],
    );
    let mut rows: Vec<((usize, usize), u64)> = pairs.into_iter().collect();
    rows.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    for ((victim, thief), n) in rows {
        table.row(vec![format!("w{victim} → w{thief}"), n.to_string()]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_writes_versioned_artifact_and_reports_headline_numbers() {
        let dir = std::env::temp_dir().join(format!("nowa_profile_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("BENCH_profile.json");
        let out_str = out.to_str().unwrap().to_string();
        let rendered = profile("fib", Size::Tiny, 2, &out_str, None);
        assert!(rendered.contains("work T1"), "{rendered}");
        assert!(rendered.contains("span T∞"), "{rendered}");
        assert!(rendered.contains("parallelism T1/T∞"), "{rendered}");
        assert!(rendered.contains("steal edges"), "{rendered}");
        assert!(rendered.contains("## Critical path"), "{rendered}");
        // The trace summary follows the tables: scheduler activity was
        // recorded (a root pickup and its spawns), with latency lines.
        let summary = &rendered[rendered.find("\ntrace: 2 workers, ").expect(&rendered)..];
        assert!(summary.contains("steal→first-poll"), "{summary}");
        let count = |kind: &str| -> u64 {
            let line = summary
                .lines()
                .find(|l| l.split_whitespace().next() == Some(kind))
                .unwrap_or_else(|| panic!("no {kind} line:\n{summary}"));
            line.split_whitespace().nth(1).unwrap().parse().unwrap()
        };
        assert!(count("root") >= 1, "{summary}");
        assert!(count("spawn") > 0, "{summary}");

        let json = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some("nowa-bench-profile")
        );
        assert_eq!(
            json.get("schema_version").and_then(Json::as_num),
            Some(artifact::SCHEMA_VERSION as f64)
        );
        assert_eq!(json.get("kernel").and_then(Json::as_str), Some("fib"));
        let p = json.get("profile").expect("profile body");
        assert!(p.get("t1_ns").and_then(Json::as_num).unwrap() > 0.0);
        assert!(p.get("t_inf_ns").and_then(Json::as_num).unwrap() > 0.0);
        assert!(p.get("parallelism").and_then(Json::as_num).unwrap() >= 1.0);
        assert!(p
            .get("critical_path")
            .and_then(|c| c.get("phases_ns"))
            .is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chrome_export_has_one_track_per_worker() {
        let dir = std::env::temp_dir().join(format!("nowa_chrome_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (out, trace) = (dir.join("p.json"), dir.join("t.json"));
        profile(
            "fib",
            Size::Tiny,
            3,
            out.to_str().unwrap(),
            Some(trace.to_str().unwrap()),
        );
        let parsed = Json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        let tracks: std::collections::BTreeSet<u64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .map(|e| e.get("tid").unwrap().as_num().unwrap() as u64)
            .collect();
        assert_eq!(tracks.len(), 3, "one thread_name track per worker");
        assert!(events.len() > 3, "events beyond the track metadata");
        std::fs::remove_dir_all(&dir).ok();
    }
}
