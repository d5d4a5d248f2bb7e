//! In-memory spans recorded by the benchmark's own code around its calls
//! into each layer. Recording is off in an untraced run; a traced run
//! writes the spans out when the workload ends.

use std::collections::BTreeMap;
use std::time::Instant;

use nowa_trace::json::Json;

/// One timed interval and the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans relative to one epoch. Disabled, every call is a no-op
/// returning a dummy id.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Records an interval measured elsewhere (inside a runtime task, or by
    /// the load generator) as a child of the innermost open span, or of
    /// `parent` when given. Returns the new span's id.
    pub fn add(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: parent.or(self.open.last().copied()),
            name: name.to_owned(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Json {
        let selfs = self_times(&self.spans);
        Json::Arr(
            self.spans
                .iter()
                .zip(selfs)
                .map(|(s, self_ns)| {
                    let mut o = BTreeMap::new();
                    o.insert("id".to_owned(), Json::Num(s.id as f64));
                    o.insert(
                        "parent".to_owned(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    );
                    o.insert("name".to_owned(), Json::Str(s.name.clone()));
                    o.insert("start_ns".to_owned(), Json::Num(s.start_ns as f64));
                    o.insert("end_ns".to_owned(), Json::Num(s.end_ns as f64));
                    o.insert("self_ns".to_owned(), Json::Num(self_ns as f64));
                    Json::Obj(o)
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),  // overlaps span 1: union is 10..50
            span(3, Some(0), 90, 140), // sticks out of the parent: clamped
            span(4, Some(1), 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 30, 50, 6]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("a", |r| r.span("b", |_| 7)), 7);
        rec.add("c", None, Instant::now(), Instant::now());
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents() {
        let mut rec = Recorder::new(true);
        rec.span("rep", |r| {
            r.span("kernel", |_| ());
            let now = Instant::now();
            r.add("inner", None, now, now);
        });
        let parents: Vec<_> = rec.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0)]);
        assert!(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);
    }
}
