//! Merging per-worker trace state into a report, and exporting it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::buffer::TraceBuffer;
use crate::event::{Event, EventKind, NUM_KINDS};
use crate::hist::{bucket_bounds, HistSnapshot, BUCKETS};
use crate::json::Json;

/// One worker's drained event stream.
#[derive(Debug, Clone)]
pub struct WorkerTrace {
    /// Worker index.
    pub index: usize,
    /// Events in publication order.
    pub events: Vec<Event>,
    /// Events this worker dropped on ring overflow.
    pub dropped: u64,
}

/// The merged observability picture of a runtime (or one run window).
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Per-worker event streams.
    pub workers: Vec<WorkerTrace>,
    /// Event counts by kind, summed over workers.
    pub counts: [u64; NUM_KINDS],
    /// Steal-to-first-poll latency (ns), merged over workers.
    pub steal_latency: HistSnapshot,
    /// Suspend-to-resume latency (ns), derived by pairing
    /// `SyncSuspend`/`SyncResume` events across workers.
    pub suspend_latency: HistSnapshot,
    /// Idle-spin durations (ns), merged over workers.
    pub idle_spin: HistSnapshot,
    /// Owner-deque occupancy samples, merged over workers.
    pub occupancy: HistSnapshot,
    /// Futex-park durations (ns), merged over workers.
    pub parked: HistSnapshot,
    /// Total events dropped on ring overflow.
    pub dropped_total: u64,
    /// Span from the first to the last retained event (ns).
    pub span_ns: u64,
}

impl TraceReport {
    /// Drains every worker's ring and merges histograms into one report.
    ///
    /// Suspend-to-resume latency is computed here: `SyncSuspend` and
    /// `SyncResume` events carry a frame id, and each resume is paired
    /// with the latest unmatched suspend of the same id in global
    /// timestamp order (a suspended frame is resumed exactly once per
    /// region, so ids pair 1:1 modulo ring overflow).
    pub fn collect(buffers: &[TraceBuffer]) -> TraceReport {
        let mut workers = Vec::with_capacity(buffers.len());
        let mut counts = [0u64; NUM_KINDS];
        let mut steal_latency = HistSnapshot::default();
        let mut idle_spin = HistSnapshot::default();
        let mut occupancy = HistSnapshot::default();
        let mut parked = HistSnapshot::default();
        let mut dropped_total = 0;

        for (index, buf) in buffers.iter().enumerate() {
            let mut events = Vec::new();
            buf.ring.drain_into(&mut events);
            for ev in &events {
                counts[ev.kind as usize] += 1;
            }
            steal_latency.merge(&buf.steal_latency.snapshot());
            idle_spin.merge(&buf.idle_spin.snapshot());
            occupancy.merge(&buf.occupancy.snapshot());
            parked.merge(&buf.parked.snapshot());
            let dropped = buf.ring.dropped();
            dropped_total += dropped;
            workers.push(WorkerTrace {
                index,
                events,
                dropped,
            });
        }

        // Pair suspends with resumes across workers, in timestamp order.
        let mut sync_events: Vec<&Event> = workers
            .iter()
            .flat_map(|w| w.events.iter())
            .filter(|e| matches!(e.kind, EventKind::SyncSuspend | EventKind::SyncResume))
            .collect();
        sync_events.sort_by_key(|e| e.ts_ns);
        let mut open: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut suspend_latency = HistSnapshot::default();
        for ev in sync_events {
            match ev.kind {
                EventKind::SyncSuspend => open.entry(ev.arg).or_default().push(ev.ts_ns),
                EventKind::SyncResume => {
                    if let Some(stack) = open.get_mut(&ev.arg) {
                        if let Some(started) = stack.pop() {
                            suspend_latency.record(ev.ts_ns.saturating_sub(started));
                        }
                    }
                }
                _ => unreachable!(),
            }
        }

        let first = workers
            .iter()
            .filter_map(|w| w.events.first())
            .map(|e| e.ts_ns)
            .min();
        let last = workers
            .iter()
            .filter_map(|w| w.events.last())
            .map(|e| e.ts_ns)
            .max();
        let span_ns = match (first, last) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => 0,
        };

        TraceReport {
            workers,
            counts,
            steal_latency,
            suspend_latency,
            idle_spin,
            occupancy,
            parked,
            dropped_total,
            span_ns,
        }
    }

    /// Count of events of `kind` across workers.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Total events retained across workers.
    pub fn total_events(&self) -> usize {
        self.workers.iter().map(|w| w.events.len()).sum()
    }

    /// A human-readable summary: event counts per kind and the latency
    /// histograms (mean / p50 / p99 upper bounds / max).
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} workers, {} events, {} dropped, span {}",
            self.workers.len(),
            self.total_events(),
            self.dropped_total,
            fmt_ns(self.span_ns),
        );
        let _ = writeln!(out, "  {:<14} {:>12}   per-worker", "event", "count");
        for kind in EventKind::ALL {
            let n = self.count(kind);
            if n == 0 {
                continue;
            }
            let per: Vec<String> = self
                .workers
                .iter()
                .map(|w| {
                    w.events
                        .iter()
                        .filter(|e| e.kind == kind)
                        .count()
                        .to_string()
                })
                .collect();
            let _ = writeln!(out, "  {:<14} {:>12}   [{}]", kind.name(), n, per.join(" "));
        }
        for (name, h) in [
            ("steal→first-poll", &self.steal_latency),
            ("suspend→resume", &self.suspend_latency),
            ("idle spin", &self.idle_spin),
            ("parked", &self.parked),
        ] {
            let _ = writeln!(out, "  {}", fmt_hist_line(name, h, fmt_ns));
        }
        let _ = writeln!(
            out,
            "  {}",
            fmt_hist_line("deque occupancy", &self.occupancy, |v| v.to_string())
        );
        out
    }

    /// The report as a JSON document (counts, histograms, per-worker event
    /// totals — not the raw event streams; use [`TraceReport::
    /// chrome_trace`] for those).
    pub fn to_json(&self) -> String {
        let mut root = BTreeMap::new();
        root.insert("workers".to_string(), Json::Num(self.workers.len() as f64));
        root.insert("dropped".to_string(), Json::Num(self.dropped_total as f64));
        root.insert("span_ns".to_string(), Json::Num(self.span_ns as f64));
        let mut counts = BTreeMap::new();
        for kind in EventKind::ALL {
            counts.insert(kind.name().to_string(), Json::Num(self.count(kind) as f64));
        }
        root.insert("counts".to_string(), Json::Obj(counts));
        for (key, h) in [
            ("steal_latency_ns", &self.steal_latency),
            ("suspend_latency_ns", &self.suspend_latency),
            ("idle_spin_ns", &self.idle_spin),
            ("deque_occupancy", &self.occupancy),
            ("parked_ns", &self.parked),
        ] {
            root.insert(key.to_string(), hist_json(h));
        }
        Json::Obj(root).render()
    }

    /// The full event streams in Chrome `trace_event` JSON (the
    /// "JSON Array Format" with a `traceEvents` wrapper), one track
    /// (`tid`) per worker. Loadable in Perfetto / `chrome://tracing`.
    ///
    /// Mapping: every worker gets a `thread_name` metadata event; `Idle`
    /// events become duration (`"X"`) slices spanning the idle period;
    /// everything else becomes a thread-scoped instant (`"i"`) with its
    /// argument attached.
    pub fn chrome_trace(&self) -> String {
        let mut events = Vec::new();
        for w in &self.workers {
            let mut meta = BTreeMap::new();
            meta.insert("name".to_string(), Json::Str("thread_name".into()));
            meta.insert("ph".to_string(), Json::Str("M".into()));
            meta.insert("pid".to_string(), Json::Num(1.0));
            meta.insert("tid".to_string(), Json::Num(w.index as f64));
            let mut args = BTreeMap::new();
            args.insert("name".to_string(), Json::Str(format!("worker {}", w.index)));
            meta.insert("args".to_string(), Json::Obj(args));
            events.push(Json::Obj(meta));

            for ev in &w.events {
                let mut obj = BTreeMap::new();
                obj.insert("name".to_string(), Json::Str(ev.kind.name().into()));
                obj.insert("pid".to_string(), Json::Num(1.0));
                obj.insert("tid".to_string(), Json::Num(w.index as f64));
                obj.insert("ts".to_string(), Json::Num(ev.ts_ns as f64 / 1_000.0));
                match ev.kind {
                    EventKind::Idle | EventKind::Unpark => {
                        obj.insert("ph".to_string(), Json::Str("X".into()));
                        obj.insert("dur".to_string(), Json::Num(ev.arg as f64 / 1_000.0));
                    }
                    _ => {
                        obj.insert("ph".to_string(), Json::Str("i".into()));
                        obj.insert("s".to_string(), Json::Str("t".into()));
                    }
                }
                if ev.arg != 0 && !matches!(ev.kind, EventKind::Idle | EventKind::Unpark) {
                    let mut args = BTreeMap::new();
                    match ev.kind {
                        // Steal args pack victim + stolen frame id.
                        EventKind::Steal => {
                            args.insert(
                                "victim".to_string(),
                                Json::Num(crate::event::steal_victim(ev.arg) as f64),
                            );
                            args.insert(
                                "frame".to_string(),
                                Json::Num(crate::event::steal_frame(ev.arg) as f64),
                            );
                        }
                        EventKind::StealEmpty | EventKind::StealRetry => {
                            args.insert("victim".to_string(), Json::Num(ev.arg as f64));
                        }
                        EventKind::Spawn
                        | EventKind::FastPop
                        | EventKind::OwnTake
                        | EventKind::Join
                        | EventKind::SyncInline
                        | EventKind::SyncSuspend
                        | EventKind::SyncResume => {
                            args.insert("frame".to_string(), Json::Num(ev.arg as f64));
                        }
                        EventKind::Occupancy => {
                            args.insert("len".to_string(), Json::Num(ev.arg as f64));
                        }
                        EventKind::Wake => {
                            args.insert("target".to_string(), Json::Num(ev.arg as f64));
                        }
                        _ => {
                            args.insert("arg".to_string(), Json::Num(ev.arg as f64));
                        }
                    }
                    obj.insert("args".to_string(), Json::Obj(args));
                }
                events.push(Json::Obj(obj));
            }
        }
        let mut root = BTreeMap::new();
        root.insert("traceEvents".to_string(), Json::Arr(events));
        root.insert("displayTimeUnit".to_string(), Json::Str("ns".into()));
        Json::Obj(root).render()
    }
}

fn hist_json(h: &HistSnapshot) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("count".to_string(), Json::Num(h.count as f64));
    obj.insert("sum".to_string(), Json::Num(h.sum as f64));
    obj.insert("max".to_string(), Json::Num(h.max as f64));
    obj.insert("mean".to_string(), Json::Num(h.mean()));
    obj.insert(
        "p50_ub".to_string(),
        Json::Num(h.quantile_upper_bound(0.5) as f64),
    );
    obj.insert(
        "p99_ub".to_string(),
        Json::Num(h.quantile_upper_bound(0.99) as f64),
    );
    // Sparse buckets: [[lo, count], ...].
    let buckets: Vec<Json> = (0..BUCKETS)
        .filter(|&i| h.buckets[i] != 0)
        .map(|i| {
            Json::Arr(vec![
                Json::Num(bucket_bounds(i).0 as f64),
                Json::Num(h.buckets[i] as f64),
            ])
        })
        .collect();
    obj.insert("buckets".to_string(), Json::Arr(buckets));
    Json::Obj(obj)
}

fn fmt_hist_line(name: &str, h: &HistSnapshot, unit: impl Fn(u64) -> String) -> String {
    if h.count == 0 {
        return format!("{name:<18} (no samples)");
    }
    format!(
        "{name:<18} n={} mean={} p50≤{} p99≤{} max={}",
        h.count,
        unit(h.mean() as u64),
        unit(h.quantile_upper_bound(0.5)),
        unit(h.quantile_upper_bound(0.99)),
        unit(h.max),
    )
}

fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_buffers() -> Vec<TraceBuffer> {
        let bufs = vec![TraceBuffer::new(256), TraceBuffer::new(256)];
        let frame = 0x100;
        // Worker 0: spawns + a suspend.
        bufs[0].spawn(frame, || 2);
        bufs[0].event(EventKind::FastPop, frame);
        bufs[0].event(EventKind::SyncSuspend, frame);
        // Worker 1: steals and resumes the suspended frame.
        bufs[1].steal_success(0, frame);
        bufs[1].resume_finished();
        bufs[1].event(EventKind::SyncResume, frame);
        bufs[1].idle_enter();
        bufs[1].idle_exit();
        // Worker 1 parks once and is woken by worker 0.
        bufs[1].park_begin();
        bufs[1].park_end();
        bufs[0].event(EventKind::Wake, 1);
        bufs
    }

    #[test]
    fn collect_merges_counts_and_pairs_syncs() {
        let bufs = sample_buffers();
        let report = TraceReport::collect(&bufs);
        assert_eq!(report.workers.len(), 2);
        assert_eq!(report.count(EventKind::Spawn), 1);
        assert_eq!(report.count(EventKind::Steal), 1);
        assert_eq!(report.count(EventKind::Idle), 1);
        assert_eq!(report.count(EventKind::Park), 1);
        assert_eq!(report.count(EventKind::Unpark), 1);
        assert_eq!(report.count(EventKind::Wake), 1);
        assert_eq!(report.parked.count, 1);
        assert_eq!(
            report.suspend_latency.count, 1,
            "suspend paired with resume"
        );
        assert_eq!(report.steal_latency.count, 1);
        assert_eq!(report.dropped_total, 0);
        // collect() drains: a second collect sees no events but keeps
        // histogram state (histograms are cumulative).
        let again = TraceReport::collect(&bufs);
        assert_eq!(again.total_events(), 0);
        assert_eq!(again.steal_latency.count, 1);
    }

    #[test]
    fn unmatched_resume_ignored() {
        let bufs = vec![TraceBuffer::new(64)];
        bufs[0].event(EventKind::SyncResume, 77);
        let report = TraceReport::collect(&bufs);
        assert_eq!(report.suspend_latency.count, 0);
    }

    #[test]
    fn summary_mentions_all_recorded_kinds() {
        let report = TraceReport::collect(&sample_buffers());
        let summary = report.summary_table();
        for kind in [EventKind::Spawn, EventKind::Steal, EventKind::Idle] {
            assert!(summary.contains(kind.name()), "missing {}", kind.name());
        }
        assert!(summary.contains("steal→first-poll"));
    }

    #[test]
    fn json_export_parses_back() {
        let report = TraceReport::collect(&sample_buffers());
        let parsed = Json::parse(&report.to_json()).unwrap();
        assert_eq!(parsed.get("workers").unwrap().as_num(), Some(2.0));
        let counts = parsed.get("counts").unwrap();
        assert_eq!(counts.get("steal").unwrap().as_num(), Some(1.0));
        assert!(parsed
            .get("steal_latency_ns")
            .unwrap()
            .get("count")
            .is_some());
    }

    #[test]
    fn chrome_trace_structure() {
        let report = TraceReport::collect(&sample_buffers());
        let parsed = Json::parse(&report.chrome_trace()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        // One thread_name metadata record per worker.
        let meta: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .collect();
        assert_eq!(meta.len(), 2);
        let tids: Vec<f64> = meta
            .iter()
            .map(|e| e.get("tid").unwrap().as_num().unwrap())
            .collect();
        assert_eq!(tids, [0.0, 1.0]);
        // The idle event is a duration slice with a dur field.
        let idle = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("idle"))
            .unwrap();
        assert_eq!(idle.get("ph").unwrap().as_str(), Some("X"));
        assert!(idle.get("dur").unwrap().as_num().unwrap() >= 0.0);
        // Instants carry the thread scope.
        let steal = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("steal"))
            .unwrap();
        assert_eq!(steal.get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(steal.get("s").unwrap().as_str(), Some("t"));
        // Packed steal args decode to victim + frame provenance.
        let steal_args = steal.get("args").unwrap();
        assert_eq!(steal_args.get("victim").unwrap().as_num(), Some(0.0));
        assert!(steal_args.get("frame").unwrap().as_num().unwrap() > 0.0);
        // A park renders as an unpark duration slice plus a park instant.
        let unpark = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("unpark"))
            .unwrap();
        assert_eq!(unpark.get("ph").unwrap().as_str(), Some("X"));
        // A wake instant names its target worker.
        let wake = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("wake"))
            .unwrap();
        assert_eq!(
            wake.get("args").unwrap().get("target").unwrap().as_num(),
            Some(1.0)
        );
    }
}
