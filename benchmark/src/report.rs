//! What one run produces: named, unit-carrying metrics with sample count
//! and quartiles, the guards that make them trustworthy, and their JSON
//! forms — the full result file and the one-line summary the last line of
//! standard output carries.

use std::collections::BTreeMap;

use nowa_trace::json::Json;

use crate::metrics::{self, obj, Class};
use crate::stats::{self, Summary};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: String,
    pub unit: String,
    pub summary: Summary,
    /// Why the number must not be read as a measurement (too few samples
    /// beyond a percentile, a late load generator); `None` when it can.
    pub unresolved: Option<String>,
}

/// The metrics of one workload run, in emission order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet(pub Vec<Measured>);

impl MetricSet {
    /// Records `summary` under `name`, which must be in the catalogue.
    pub fn put(&mut self, name: &str, summary: Summary) {
        let def = metrics::find(name).unwrap_or_else(|| panic!("metric {name} not in catalogue"));
        assert!(
            self.get(name).is_none(),
            "metric {name} reported twice in one run"
        );
        self.0.push(Measured {
            name: name.to_owned(),
            unit: def.unit.to_owned(),
            summary,
            unresolved: None,
        });
    }

    /// Median and quartiles of `samples` under `name`.
    pub fn put_samples(&mut self, name: &str, samples: &[f64]) {
        let summary =
            stats::summarize(samples).unwrap_or_else(|| panic!("metric {name} has no samples"));
        self.put(name, summary);
    }

    /// A single observation (a count, a peak).
    pub fn put_value(&mut self, name: &str, value: f64) {
        self.put(name, Summary::single(value));
    }

    /// Marks `name` as not to be trusted, keeping the number for the record.
    pub fn mark_unresolved(&mut self, name: &str, reason: String) {
        let m = self
            .0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} not reported"));
        m.unresolved = Some(reason);
    }

    pub fn get(&self, name: &str) -> Option<&Measured> {
        self.0.iter().find(|m| m.name == name)
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.get(name).map(|m| m.summary.median)
    }
}

/// One workload's run: its metrics and the guards recorded with them.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub workload: String,
    pub traced: bool,
    pub seed: u64,
    pub seconds: u64,
    /// Verified operations (reps and requests) and how many were wrong.
    pub attempted: u64,
    pub failed: u64,
    pub nproc: usize,
    /// Workers of the fork/join configurations and of the server.
    pub p: usize,
    pub p_serve: usize,
    pub connections: usize,
    pub git_commit: String,
    pub rustc: String,
    pub loadavg_before: f64,
    pub loadavg_after: f64,
    /// Share of the CPU time the run wanted that the hypervisor gave away.
    pub steal_ratio: f64,
    pub wall_s: f64,
    pub metrics: MetricSet,
}

fn num(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("missing number `{key}`"))
}

fn text(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string `{key}`"))
}

impl Measured {
    fn to_json(&self) -> Json {
        obj(vec![
            ("value", Json::Num(self.summary.median)),
            ("unit", Json::Str(self.unit.clone())),
            ("n", Json::Num(self.summary.n as f64)),
            ("q1", Json::Num(self.summary.q1)),
            ("q3", Json::Num(self.summary.q3)),
            (
                "unresolved",
                self.unresolved.clone().map_or(Json::Null, Json::Str),
            ),
        ])
    }

    fn from_json(name: &str, v: &Json) -> Result<Measured, String> {
        Ok(Measured {
            name: name.to_owned(),
            unit: text(v, "unit")?,
            summary: Summary {
                n: num(v, "n")? as usize,
                median: num(v, "value")?,
                q1: num(v, "q1")?,
                q3: num(v, "q3")?,
            },
            unresolved: v
                .get("unresolved")
                .and_then(Json::as_str)
                .map(str::to_owned),
        })
    }
}

impl WorkloadResult {
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn to_json(&self) -> Json {
        // Emission order is kept in `order`: objects sort their keys.
        let order = self.metrics.0.iter().map(|m| Json::Str(m.name.clone()));
        let by_name = self
            .metrics
            .0
            .iter()
            .map(|m| (m.name.clone(), m.to_json()))
            .collect::<BTreeMap<_, _>>();
        obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("traced", Json::Bool(self.traced)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("nproc", Json::Num(self.nproc as f64)),
            ("p", Json::Num(self.p as f64)),
            ("p_serve", Json::Num(self.p_serve as f64)),
            ("connections", Json::Num(self.connections as f64)),
            ("git_commit", Json::Str(self.git_commit.clone())),
            ("rustc", Json::Str(self.rustc.clone())),
            ("loadavg_before", Json::Num(self.loadavg_before)),
            ("loadavg_after", Json::Num(self.loadavg_after)),
            ("steal_ratio", Json::Num(self.steal_ratio)),
            ("wall_s", Json::Num(self.wall_s)),
            ("order", Json::Arr(order.collect())),
            ("metrics", Json::Obj(by_name)),
        ])
    }

    pub fn from_json(v: &Json) -> Result<WorkloadResult, String> {
        let by_name = v.get("metrics").ok_or("missing `metrics`")?;
        let order = v
            .get("order")
            .and_then(Json::as_arr)
            .ok_or("missing `order`")?;
        let mut set = MetricSet::default();
        for name in order {
            let name = name.as_str().ok_or("`order` holds a non-string")?;
            let m = by_name
                .get(name)
                .ok_or_else(|| format!("metric `{name}` listed but absent"))?;
            set.0.push(Measured::from_json(name, m)?);
        }
        Ok(WorkloadResult {
            workload: text(v, "workload")?,
            traced: matches!(v.get("traced"), Some(Json::Bool(true))),
            seed: num(v, "seed")? as u64,
            seconds: num(v, "seconds")? as u64,
            attempted: num(v, "attempted")? as u64,
            failed: num(v, "failed")? as u64,
            nproc: num(v, "nproc")? as usize,
            p: num(v, "p")? as usize,
            p_serve: num(v, "p_serve")? as usize,
            connections: num(v, "connections")? as usize,
            git_commit: text(v, "git_commit")?,
            rustc: text(v, "rustc")?,
            loadavg_before: num(v, "loadavg_before")?,
            loadavg_after: num(v, "loadavg_after")?,
            steal_ratio: num(v, "steal_ratio")?,
            wall_s: num(v, "wall_s")?,
            metrics: set,
        })
    }

    /// The one-line summary: exactly the metrics `BENCHMARK.json` declares
    /// for this mode, each with value and unit.
    pub fn summary_line(&self) -> String {
        let class = if self.traced {
            Class::PerLayer
        } else {
            Class::EndToEnd
        };
        let declared = metrics::names_of(class)
            .map(|name| {
                let m = self.metrics.get(name).unwrap_or_else(|| {
                    panic!("{}: declared metric {name} not measured", self.workload)
                });
                (
                    name.to_owned(),
                    obj(vec![
                        ("value", Json::Num(m.summary.median)),
                        ("unit", Json::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect::<BTreeMap<_, _>>();
        obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(declared)),
        ])
        .render()
    }

    /// Every metric by name with unit, sample count and quartiles.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} ({}) seed {} · nproc {} · P {} · P_serve {} · {} connections · load {:.2}→{:.2} · stolen {:.1} % · {:.1} s\n",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.seed,
            self.nproc,
            self.p,
            self.p_serve,
            self.connections,
            self.loadavg_before,
            self.loadavg_after,
            self.steal_ratio * 100.0,
            self.wall_s,
        );
        out.push_str(&format!(
            "{:<36} {:>14} {:<6} {:>6} {:>14} {:>14}  {}\n",
            "metric", "median", "unit", "n", "q1", "q3", "bound"
        ));
        for m in &self.metrics.0 {
            let bound = metrics::find(&m.name)
                .and_then(|d| d.bound)
                .map_or(String::new(), |b| format!("{:.0} %", b * 100.0));
            let note = m
                .unresolved
                .as_ref()
                .map_or(String::new(), |r| format!("  UNRESOLVED: {r}"));
            out.push_str(&format!(
                "{:<36} {:>14} {:<6} {:>6} {:>14} {:>14}  {}{}\n",
                m.name,
                fmt_num(m.summary.median),
                m.unit,
                m.summary.n,
                fmt_num(m.summary.q1),
                fmt_num(m.summary.q3),
                bound,
                note,
            ));
        }
        out.push_str(&format!(
            "verified {} operations, {} failed (fail_ratio {})\n",
            self.attempted,
            self.failed,
            self.fail_ratio()
        ));
        out
    }
}

/// Six significant digits, no exponent for the magnitudes seen here.
pub fn fmt_num(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.digits$}")
}

/// A result file: one entry per workload run, keyed `<workload>` or
/// `<workload>+traced`.
pub fn file_to_json(results: &[WorkloadResult]) -> Json {
    let runs = results
        .iter()
        .map(|r| {
            let key = if r.traced {
                format!("{}+traced", r.workload)
            } else {
                r.workload.clone()
            };
            (key, r.to_json())
        })
        .collect::<BTreeMap<_, _>>();
    obj(vec![
        ("schema", Json::Str("nowa-benchmark".to_owned())),
        ("schema_version", Json::Num(1.0)),
        ("runs", Json::Obj(runs)),
    ])
}

pub fn file_from_json(v: &Json) -> Result<Vec<WorkloadResult>, String> {
    if v.get("schema").and_then(Json::as_str) != Some("nowa-benchmark") {
        return Err("not a nowa-benchmark result file".to_owned());
    }
    match v.get("runs") {
        Some(Json::Obj(runs)) => runs.values().map(WorkloadResult::from_json).collect(),
        _ => Err("missing `runs`".to_owned()),
    }
}

pub fn read_file(path: &str) -> Result<Vec<WorkloadResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    file_from_json(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))
}

pub fn write_file(path: &std::path::Path, results: &[WorkloadResult]) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, file_to_json(results).render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
pub(crate) fn sample_result(traced: bool) -> WorkloadResult {
    let mut metrics = MetricSet::default();
    let class = if traced {
        Class::PerLayer
    } else {
        Class::EndToEnd
    };
    for (i, name) in metrics::names_of(class).enumerate() {
        metrics.put_samples(name, &[1.0 + i as f64, 2.5, 4.0]);
    }
    if !traced {
        metrics.put_samples("t1_s", &[1.0, 1.01, 1.02]);
        metrics.put_samples("tp_s", &[0.5, 0.51, 0.52]);
        metrics.put_value("fail_ratio", 0.0);
        metrics.mark_unresolved("tp_s", "spread \"wide\"".to_owned());
    }
    WorkloadResult {
        workload: "fj-spawn".to_owned(),
        traced,
        seed: 7,
        seconds: 20,
        attempted: 12,
        failed: 0,
        nproc: 2,
        p: 2,
        p_serve: 1,
        connections: 2,
        git_commit: "unknown".to_owned(),
        rustc: "rustc 1.95.0".to_owned(),
        loadavg_before: 0.25,
        loadavg_after: 1.5,
        steal_ratio: 0.015625,
        wall_s: 24.125,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_file_round_trips() {
        let results = vec![sample_result(false), sample_result(true)];
        let text = file_to_json(&results).render();
        let back = file_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, results);
        assert!(file_from_json(&Json::parse("{\"schema\":\"x\"}").unwrap()).is_err());
    }

    #[test]
    fn summary_line_has_exactly_the_declared_metrics() {
        for traced in [false, true] {
            let line = sample_result(traced).summary_line();
            assert!(!line.contains('\n'));
            let v = Json::parse(&line).unwrap();
            let Json::Obj(top) = &v else { panic!("object") };
            let keys: Vec<_> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
            let Some(Json::Obj(ms)) = v.get("metrics") else {
                panic!("metrics")
            };
            let class = if traced {
                Class::PerLayer
            } else {
                Class::EndToEnd
            };
            let mut want: Vec<_> = metrics::names_of(class).collect();
            want.sort_unstable();
            assert_eq!(ms.keys().map(String::as_str).collect::<Vec<_>>(), want);
            for (name, m) in ms {
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(metrics::find(name).unwrap().unit)
                );
                assert!(m.get("value").and_then(Json::as_num).is_some());
            }
        }
    }

    #[test]
    fn numbers_print_with_six_significant_digits() {
        assert_eq!(fmt_num(1234.5678), "1234.57");
        assert_eq!(fmt_num(0.00123456789), "0.00123457");
        assert_eq!(fmt_num(11463531.0), "11463531");
        assert_eq!(fmt_num(0.0), "0");
    }
}
