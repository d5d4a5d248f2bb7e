//! Merging per-worker trace state into a report, and exporting it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::buffer::TraceBuffer;
use crate::event::{steal_frame, steal_victim, Event, EventKind, NUM_KINDS};
use crate::hist::HistSnapshot;
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
        write_hists(
            &mut out,
            &[
                ("steal→first-poll", &self.steal_latency),
                ("suspend→resume", &self.suspend_latency),
                ("idle spin", &self.idle_spin),
                ("parked", &self.parked),
            ],
            &self.occupancy,
        );
        out
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

/// The newest events each worker's ring holds, merged by timestamp, one
/// line per event, oldest first: the flight recorder's view. Consumes
/// nothing.
pub fn tail(buffers: &[TraceBuffer]) -> String {
    let mut merged: Vec<(usize, Event)> = Vec::new();
    for (w, buf) in buffers.iter().enumerate() {
        merged.extend(buf.ring.snapshot().into_iter().map(|ev| (w, ev)));
    }
    merged.sort_by_key(|(w, ev)| (ev.ts_ns, *w));
    if merged.is_empty() {
        return "flight recorder: no events\n".to_string();
    }
    let recorded: u64 = buffers.iter().map(|b| b.ring.recorded()).sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flight recorder: last {} of {} events ({} workers)",
        merged.len(),
        recorded,
        buffers.len()
    );
    for (w, ev) in &merged {
        let arg = match ev.kind {
            EventKind::Steal => format!(
                "victim={} frame={:#x}",
                steal_victim(ev.arg),
                steal_frame(ev.arg)
            ),
            EventKind::Idle | EventKind::Unpark => format!("dur={}ns", ev.arg),
            _ => format!("arg={:#x}", ev.arg),
        };
        let ts = ev.ts_ns;
        let _ = writeln!(out, "  [{ts:>12}ns] w{w} {:<12} {}", ev.kind.name(), arg);
    }
    out
}

/// What a post-mortem prints of the rings, consuming none of it: the
/// merged [`tail`], each ring's fill (the events a drain would deliver,
/// of its capacity) and drops, and — with `histograms` — the latency
/// histograms merged over workers. Made for dumps taken from any thread
/// while the run goes on; [`TraceReport::collect`] drains the rings and
/// belongs to their one consumer. Suspend-to-resume latency is absent:
/// it is derived from the events at collection.
pub fn ring_summary(buffers: &[TraceBuffer], histograms: bool) -> String {
    let mut out = tail(buffers);
    for (i, buf) in buffers.iter().enumerate() {
        let _ = writeln!(
            out,
            "  w{i} {} of {} events buffered, {} dropped",
            buf.ring.len(),
            buf.ring.capacity(),
            buf.ring.dropped(),
        );
    }
    if histograms {
        let [mut steal, mut idle, mut parked, mut occupancy] = [HistSnapshot::default(); 4];
        for buf in buffers {
            steal.merge(&buf.steal_latency.snapshot());
            idle.merge(&buf.idle_spin.snapshot());
            parked.merge(&buf.parked.snapshot());
            occupancy.merge(&buf.occupancy.snapshot());
        }
        write_hists(
            &mut out,
            &[
                ("steal→first-poll", &steal),
                ("idle spin", &idle),
                ("parked", &parked),
            ],
            &occupancy,
        );
    }
    out
}

/// One line per histogram: the nanosecond ones, then deque occupancy.
fn write_hists(out: &mut String, ns: &[(&str, &HistSnapshot)], occupancy: &HistSnapshot) {
    for (name, h) in ns {
        let _ = writeln!(out, "  {}", fmt_hist_line(name, h, fmt_ns));
    }
    let _ = writeln!(
        out,
        "  {}",
        fmt_hist_line("deque occupancy", occupancy, |v| v.to_string())
    );
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
    use crate::event::pack_steal_arg;

    fn sample_buffers() -> Vec<TraceBuffer> {
        let bufs = vec![TraceBuffer::new(256), TraceBuffer::new(256)];
        let frame = 0x100;
        let ev = |ts, kind, arg| Event::new(ts, kind, arg);
        // Worker 0: spawns + a suspend.
        bufs[0].spawn(ev(10, EventKind::Spawn, frame), || 2);
        bufs[0].record(ev(11, EventKind::FastPop, frame));
        bufs[0].record(ev(12, EventKind::SyncSuspend, frame));
        // Worker 1: steals and resumes the suspended frame.
        bufs[1].steal_success(ev(20, EventKind::Steal, pack_steal_arg(0, frame)));
        bufs[1].resume_finished(|| 25);
        bufs[1].record(ev(30, EventKind::SyncResume, frame));
        bufs[1].idle_enter(|| 31);
        bufs[1].idle_exit(40);
        // Worker 1 parks once and is woken by worker 0.
        bufs[1].record(ev(41, EventKind::Park, 0));
        bufs[1].unpark(ev(41, EventKind::Unpark, 9));
        bufs[0].record(ev(50, EventKind::Wake, 1));
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
    fn ring_summary_consumes_nothing() {
        let bufs = sample_buffers();
        let held: Vec<usize> = bufs.iter().map(|b| b.ring.len()).collect();
        let summary = ring_summary(&bufs, true);
        assert_eq!(
            ring_summary(&bufs, true),
            summary,
            "reading twice reads the same"
        );
        assert!(
            summary.starts_with("flight recorder: last 10 of 10 events (2 workers)\n"),
            "{summary}"
        );
        assert!(
            summary.contains("w0 5 of 256 events buffered, 0 dropped"),
            "{summary}"
        );
        assert!(summary.contains("steal→first-poll   n=1"), "{summary}");
        assert!(summary.contains("parked             n=1"), "{summary}");
        let bare = ring_summary(&bufs, false);
        assert!(
            bare.contains("events buffered") && !bare.contains("n=1"),
            "{bare}"
        );
        assert_eq!(bufs.iter().map(|b| b.ring.len()).collect::<Vec<_>>(), held);
        assert_eq!(
            TraceReport::collect(&bufs).total_events(),
            held.iter().sum()
        );
        assert!(summary.starts_with(&tail(&bufs)), "a drain leaves the tail");
    }

    #[test]
    fn tail_merges_workers_in_time_order() {
        assert!(tail(&[TraceBuffer::new(16)]).contains("no events"));
        let text = tail(&sample_buffers());
        let at = |needle: &str| {
            text.find(needle)
                .unwrap_or_else(|| panic!("{needle}:\n{text}"))
        };
        assert!(at("w0 spawn") < at("w1 steal") && at("w1 steal") < at("w0 wake"));
        assert!(text.contains("victim=0 frame=0x100"), "{text}");
        assert!(text.contains("w1 unpark       dur=9ns"), "{text}");
    }

    #[test]
    fn unmatched_resume_ignored() {
        let bufs = vec![TraceBuffer::new(64)];
        bufs[0].record(Event::new(1, EventKind::SyncResume, 77));
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
