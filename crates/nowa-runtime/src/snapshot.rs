//! [`Runtime::snapshot`](crate::Runtime::snapshot): one typed tree of
//! everything the runtime can say about itself, and the three renderers —
//! text table, Prometheus text exposition, JSON — that every reporting
//! surface uses (the harness's scheduler tables, the profile artifact,
//! and the post-mortem every failure report prints).
//!
//! Pull-based: a snapshot re-reads the relaxed counters — no background
//! thread, no hot-path cost — and the renderers are compiled in every
//! build. All three walk the same definitions: `Snapshot::globals` for
//! the runtime-wide scalars and, for the scheduler counters, the event
//! table's [`StatsSnapshot::fields`] and [`StatsSnapshot::ratios`], so a
//! counter added to the table appears everywhere with no further edit.

use std::fmt::{Display, Write as _};

use crate::flavor::Flavor;
use crate::stats::StatsSnapshot;
use crate::sync::Ordering;
use crate::worker::Shared;

/// Global stack-pool activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Stacks handed out by the global pool.
    pub gets: u64,
    /// Stacks returned to the global pool.
    pub puts: u64,
    /// Stacks mapped from the OS because the pool was empty.
    pub maps: u64,
    /// Map attempts that failed (real `ENOMEM` or injected via the `chaos`
    /// feature) and were absorbed by the bounded-retry path.
    pub map_failures: u64,
}

/// A point-in-time view of one runtime. Racy by nature (workers keep
/// running while it is taken) but internally consistent where it matters:
/// `scheduler` is exactly the sum of `workers`.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The flavor the runtime was built with.
    pub flavor: Flavor,
    /// Scheduler counters summed over all workers.
    pub scheduler: StatsSnapshot,
    /// Scheduler counters per worker, indexed by worker.
    pub workers: Vec<StatsSnapshot>,
    /// Global stack-pool activity.
    pub pool: PoolSnapshot,
    /// Workers currently announced to the idle engine (parked in a futex
    /// or in the final validation step before parking) — useful for
    /// benchmarks that want to start from a fully-parked runtime.
    pub idle_workers: usize,
    /// Stall reports emitted by the watchdog since startup (0 when the
    /// watchdog is disabled or every worker kept making progress).
    pub watchdog_reports: u64,
    /// Fds registered with the reactor (live `AsyncFd`s). While it is
    /// non-zero, idle workers busy-poll the reactor before they park.
    pub reactor_sources: usize,
    /// Entries in the deadline map, of both kinds: `sleep`/`timeout`
    /// timers not yet fired or dropped, and deadlines of
    /// `Region::with_deadline` regions not yet fired or completed.
    pub timers_pending: usize,
    /// Fault-injection counters (site visits and injections fired),
    /// aggregated over workers; `None` unless the runtime was configured
    /// with [`Config::chaos`](crate::Config::chaos).
    #[cfg(feature = "chaos")]
    pub chaos: Option<crate::chaos::ChaosSnapshot>,
}

impl Shared {
    /// Reads the whole tree.
    pub fn snapshot(&self) -> Snapshot {
        // Summed from the per-worker copies, not re-read: the aggregate is
        // exactly the sum of `workers` even while counters move.
        let workers: Vec<StatsSnapshot> = self.stats.iter().map(|w| w.snapshot()).collect();
        let mut scheduler = StatsSnapshot::default();
        for w in &workers {
            scheduler.merge(w);
        }
        let (gets, puts, maps) = self.pool.stats().snapshot();
        Snapshot {
            flavor: self.config.flavor,
            scheduler,
            workers,
            pool: PoolSnapshot {
                gets,
                puts,
                maps,
                map_failures: self.pool.stats().map_failures(),
            },
            idle_workers: self.idle.sleepers() as usize,
            watchdog_reports: self.watchdog_reports.load(Ordering::Relaxed),
            reactor_sources: self.reactor.sources(),
            timers_pending: self.reactor.deadlines.len(),
            #[cfg(feature = "chaos")]
            chaos: self
                .chaos
                .as_deref()
                .map(crate::chaos::ChaosSnapshot::aggregate),
        }
    }

    /// The post-mortem each failure report prints — the guard-page crash
    /// hook, a task panic leaving `Runtime::run`, a watchdog stall and a
    /// shutdown timeout: the [`Snapshot::render_table`] table, then, when
    /// the runtime has event rings, their merged tail, each ring's fill
    /// and drop count, and (with tracing on) the latency histograms. Each
    /// section opens with `"{who}: <section> at {at}:"`.
    ///
    /// It only reads (relaxed counter and histogram snapshots, the rings'
    /// non-destructive snapshot) and never drains a ring: they have one
    /// consumer, `Runtime::trace_report`, which a failure report must
    /// neither race nor rob of events.
    pub(crate) fn postmortem(&self, who: &str, at: &str) -> String {
        let out = format!(
            "{who}: scheduler counters at {at}:\n{}",
            self.snapshot().render_table()
        );
        #[cfg(feature = "trace")]
        let out = match self.trace.as_deref() {
            Some(buffers) => format!(
                "{out}{who}: event rings at {at}:\n{}",
                nowa_trace::ring_summary(buffers, self.config.tracing)
            ),
            None => out,
        };
        out
    }
}

/// Appends one Prometheus sample, preceded by its family's `# HELP` /
/// `# TYPE` header unless `family` (the last header written) already names
/// it — so samples of one family must be appended back to back.
fn prom_sample(
    out: &mut String,
    family: &mut String,
    (name, help, counter): (&str, &str, bool),
    label: Option<(&str, &str)>,
    value: impl Display,
) {
    let name = format!("nowa_{name}{}", if counter { "_total" } else { "" });
    if *family != name {
        let kind = if counter { "counter" } else { "gauge" };
        let help = help.replace('\\', "\\\\").replace('\n', "\\n");
        let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
        family.clone_from(&name);
    }
    let _ = match label {
        Some((key, v)) => {
            let v = v
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n");
            writeln!(out, "{name}{{{key}=\"{v}\"}} {value}")
        }
        None => writeln!(out, "{name} {value}"),
    };
}

/// Appends `{"name":value,…}` for one set of scheduler counters and ratios.
fn json_stats(out: &mut String, s: &StatsSnapshot) {
    out.push('{');
    for (name, _, v) in s.fields() {
        let _ = write!(out, "\"{name}\":{v},");
    }
    for (name, _, v) in s.ratios() {
        let _ = write!(out, "\"{name}\":{v:.4},");
    }
    out.pop();
    out.push('}');
}

impl Snapshot {
    /// The runtime-wide scalars as `(name, help, is_counter, value)`.
    fn globals(&self) -> [(&'static str, &'static str, bool, u64); 9] {
        let pool = &self.pool;
        [
            (
                "workers",
                "Worker threads in this runtime.",
                false,
                self.workers.len() as u64,
            ),
            (
                "idle_workers",
                "Workers currently announced to the idle engine.",
                false,
                self.idle_workers as u64,
            ),
            (
                "watchdog_reports",
                "Stall reports emitted by the watchdog.",
                true,
                self.watchdog_reports,
            ),
            (
                "reactor_sources",
                "Fds registered with the reactor.",
                false,
                self.reactor_sources as u64,
            ),
            (
                "timers_pending",
                "Entries in the deadline map: timers and region deadlines.",
                false,
                self.timers_pending as u64,
            ),
            (
                "stack_pool_gets",
                "Global stack-pool gets.",
                true,
                pool.gets,
            ),
            (
                "stack_pool_puts",
                "Global stack-pool puts.",
                true,
                pool.puts,
            ),
            (
                "stack_pool_maps",
                "Stacks mapped from the OS.",
                true,
                pool.maps,
            ),
            (
                "stack_pool_map_failures",
                "Stack-map attempts absorbed by the bounded-retry path.",
                true,
                pool.map_failures,
            ),
        ]
    }

    /// Human-readable text: the globals on one line each, then one table
    /// line per scheduler counter and ratio with a `total` column and one
    /// column per worker. What the harness's scheduler tables and every
    /// post-mortem print.
    pub fn render_table(&self) -> String {
        let mut out = format!("flavor {}\n", self.flavor.name());
        for (name, _, _, v) in self.globals() {
            let _ = writeln!(out, "{name} {v}");
        }
        let columns: Vec<StatsSnapshot> = core::iter::once(self.scheduler)
            .chain(self.workers.iter().copied())
            .collect();
        let mut header = vec!["counter".to_string(), "total".to_string()];
        header.extend((0..self.workers.len()).map(|i| format!("w{i}")));
        let rows = StatsSnapshot::table_rows(&columns);
        let width = |i: usize| {
            rows.iter()
                .chain([&header])
                .map(|r| r[i].len())
                .max()
                .unwrap_or(0)
        };
        let widths: Vec<usize> = (0..header.len()).map(width).collect();
        for row in core::iter::once(&header).chain(&rows) {
            let _ = write!(out, "{:<w$}", row[0], w = widths[0]);
            for (cell, w) in row.iter().zip(&widths).skip(1) {
                let _ = write!(out, "  {cell:>w$}");
            }
            out.push('\n');
        }
        #[cfg(feature = "chaos")]
        if let Some(chaos) = &self.chaos {
            let _ = writeln!(out, "chaos (injected/visits) {chaos}");
        }
        out
    }

    /// The Prometheus text exposition format (version 0.0.4): globals and
    /// `nowa_build_info{flavor}`, every scheduler counter as
    /// `nowa_<name>_total`, the ratios as gauges, every counter again per
    /// worker as `nowa_worker_<name>_total{worker="i"}`, and — when
    /// compiled and configured — `nowa_chaos_*_total{site}`.
    pub fn render_prometheus(&self) -> String {
        let (mut out, mut family) = (String::new(), String::new());
        let build = ("build_info", "Runtime build information (always 1).", false);
        let flavor = ("flavor", self.flavor.name());
        prom_sample(&mut out, &mut family, build, Some(flavor), 1);
        for (name, help, counter, v) in self.globals() {
            prom_sample(&mut out, &mut family, (name, help, counter), None, v);
        }
        for (name, help, v) in self.scheduler.fields() {
            prom_sample(&mut out, &mut family, (name, help, true), None, v);
        }
        for (name, help, v) in self.scheduler.ratios() {
            let value = format!("{v:.4}");
            prom_sample(&mut out, &mut family, (name, help, false), None, value);
        }
        let per_worker: Vec<_> = self.workers.iter().map(StatsSnapshot::fields).collect();
        for (i, (name, help, _)) in self.scheduler.fields().into_iter().enumerate() {
            let name = format!("worker_{name}");
            for (w, fields) in per_worker.iter().enumerate() {
                let label = ("worker", &*w.to_string());
                let v = fields[i].2;
                prom_sample(&mut out, &mut family, (&name, help, true), Some(label), v);
            }
        }
        #[cfg(feature = "chaos")]
        if let Some(chaos) = &self.chaos {
            let injected = ("chaos_injected", "Faults injected, per site.", true);
            let visits = ("chaos_visits", "Injection-site visits, per site.", true);
            for (site, n, _) in chaos.sites() {
                prom_sample(&mut out, &mut family, injected, Some(("site", site)), n);
            }
            for (site, _, n) in chaos.sites() {
                prom_sample(&mut out, &mut family, visits, Some(("site", site)), n);
            }
        }
        out
    }

    /// JSON: `{"flavor":…, <globals>, "scheduler":{…}, "per_worker":[{…}],
    /// "chaos":{site:{"injected":…,"visits":…}}}`; counters and ratios are
    /// keyed by their table names.
    pub fn render_json(&self) -> String {
        let mut out = format!("{{\"flavor\":\"{}\",", self.flavor.name());
        for (name, _, _, v) in self.globals() {
            let _ = write!(out, "\"{name}\":{v},");
        }
        out.push_str("\"scheduler\":");
        json_stats(&mut out, &self.scheduler);
        out.push_str(",\"per_worker\":[");
        for w in &self.workers {
            json_stats(&mut out, w);
            out.push(',');
        }
        out.pop();
        out.push(']');
        #[cfg(feature = "chaos")]
        if let Some(chaos) = &self.chaos {
            out.push_str(",\"chaos\":{");
            for (site, injected, visits) in chaos.sites() {
                let _ = write!(
                    out,
                    "\"{site}\":{{\"injected\":{injected},\"visits\":{visits}}},"
                );
            }
            out.pop();
            out.push('}');
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_headers_once_per_family_and_escaped() {
        let (mut out, mut family) = (String::new(), String::new());
        let steals = ("steals", "multi\nline \\ help", true);
        prom_sample(&mut out, &mut family, steals, Some(("worker", "0")), 3);
        prom_sample(&mut out, &mut family, steals, Some(("worker", "1")), 5);
        let gauge = ("wake_ratio", "Hit ratio.", false);
        prom_sample(
            &mut out,
            &mut family,
            gauge,
            Some(("path", "a\"b\\c\nd")),
            0.75,
        );
        assert_eq!(out.matches("# TYPE nowa_steals_total counter").count(), 1);
        assert_eq!(out.matches("# HELP nowa_steals_total").count(), 1);
        assert!(out.contains("# HELP nowa_steals_total multi\\nline \\\\ help\n"));
        assert!(out.contains("nowa_steals_total{worker=\"0\"} 3\n"));
        assert!(out.contains("nowa_steals_total{worker=\"1\"} 5\n"));
        assert!(out.contains("# TYPE nowa_wake_ratio gauge\n"));
        assert!(out.contains("nowa_wake_ratio{path=\"a\\\"b\\\\c\\nd\"} 0.75\n"));
    }

    fn fib(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = crate::api::join2(|| fib(n - 1), || fib(n - 2));
        a + b
    }

    /// Every failure report prints this: the counter table always, the
    /// ring section exactly when the runtime has rings (histograms only
    /// with tracing) — and rendering takes no event from the rings' one
    /// consumer.
    #[test]
    fn postmortem_shows_what_is_configured_and_consumes_nothing() {
        let compiled = cfg!(feature = "trace");
        for (tracing, ring) in [(false, false), (true, false), (false, true), (true, true)] {
            let mut config = crate::Config::with_workers(2).tracing(tracing);
            if ring {
                config = config.trace_ring(1 << 14);
            }
            let rt = crate::Runtime::new(config).unwrap();
            assert_eq!(rt.run(|| fib(12)), 144);
            for _ in 0..2 {
                let text = rt.shared().postmortem("nowa", "test");
                assert!(
                    text.starts_with("nowa: scheduler counters at test:\nflavor nowa-cl\n"),
                    "{text}"
                );
                assert!(text.contains("\nspawns "), "{text}");
                let rings = compiled && (tracing || ring);
                assert_eq!(
                    text.contains("nowa: event rings at test:\nflight recorder: last "),
                    rings,
                    "{text}"
                );
                assert_eq!(
                    text.contains("steal→first-poll"),
                    compiled && tracing,
                    "{text}"
                );
                if compiled && tracing {
                    assert!(text.contains("events buffered, 0 dropped"), "{text}");
                }
            }
            #[cfg(feature = "trace")]
            if tracing {
                let report = rt.trace_report().unwrap();
                assert_eq!(report.dropped_total, 0);
                assert_eq!(
                    report.count(nowa_trace::EventKind::Spawn),
                    rt.stats().spawns,
                    "every spawn event still reaches trace_report"
                );
            }
        }
    }
}
