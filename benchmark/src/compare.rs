//! `compare A.json B.json`: one row per (workload, metric) with both
//! medians and quartiles and a verdict against the metric's bound.

use crate::metrics::{self, Better};
use crate::report::{fmt_num, Measured, WorkloadResult};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the baseline by more than the bound.
    Ok,
    /// Worse than the baseline by more than the bound.
    Regressed,
    /// The spread of either side is wider than the bound (or a guard
    /// flagged the number): the runs cannot tell.
    Unresolved,
    /// A per-layer number: it has no bound and explains, it does not gate.
    Info,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let diff = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if diff > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        diff / a.abs()
    }
}

pub fn verdict(a: &Measured, b: &Measured) -> Verdict {
    let Some(def) = metrics::find(&a.name) else {
        return Verdict::Info;
    };
    let Some(bound) = def.bound else {
        return Verdict::Info;
    };
    let noisy = |m: &Measured| m.unresolved.is_some() || m.summary.spread() > bound;
    if bound > 0.0 && (noisy(a) || noisy(b)) {
        Verdict::Unresolved
    } else if worsening(a.summary.median, b.summary.median, def.better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

pub struct Report {
    pub text: String,
    pub regressed: usize,
}

pub fn compare(a: &[WorkloadResult], b: &[WorkloadResult]) -> Report {
    let mut text = format!(
        "{:<10} {:<34} {:>12} {:>25} {:>12} {:>25} {:>8}  {}\n",
        "workload",
        "metric",
        "A median",
        "A [q1, q3]",
        "B median",
        "B [q1, q3]",
        "change",
        "verdict"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for ra in a {
        let Some(rb) = b
            .iter()
            .find(|r| r.workload == ra.workload && r.traced == ra.traced)
        else {
            text.push_str(&format!("{:<10} only in A\n", ra.workload));
            continue;
        };
        for ma in &ra.metrics.0 {
            let Some(mb) = rb.metrics.get(&ma.name) else {
                continue;
            };
            let v = verdict(ma, mb);
            regressed += usize::from(v == Verdict::Regressed);
            unresolved += usize::from(v == Verdict::Unresolved);
            let quartiles =
                |m: &Measured| format!("[{}, {}]", fmt_num(m.summary.q1), fmt_num(m.summary.q3));
            let change = if ma.summary.median == 0.0 {
                "n/a".to_owned()
            } else {
                format!(
                    "{:+.1} %",
                    (mb.summary.median - ma.summary.median) / ma.summary.median.abs() * 100.0
                )
            };
            text.push_str(&format!(
                "{:<10} {:<34} {:>12} {:>25} {:>12} {:>25} {:>8}  {}\n",
                ra.workload,
                ma.name,
                fmt_num(ma.summary.median),
                quartiles(ma),
                fmt_num(mb.summary.median),
                quartiles(mb),
                change,
                v.as_str(),
            ));
        }
    }
    text.push_str(&format!(
        "{regressed} regressed, {unresolved} unresolved (spread wider than the bound)\n"
    ));
    Report { text, regressed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::sample_result;
    use crate::stats::Summary;

    fn with(result: &WorkloadResult, name: &str, s: Summary) -> WorkloadResult {
        let mut r = result.clone();
        let m = r.metrics.0.iter_mut().find(|m| m.name == name).unwrap();
        m.summary = s;
        m.unresolved = None;
        r
    }

    fn tight(median: f64) -> Summary {
        Summary {
            n: 7,
            median,
            q1: median * 0.995,
            q3: median * 1.005,
        }
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let base = with(&sample_result(false), "t1_s", tight(1.0));
        let bound = metrics::find("t1_s").unwrap().bound.unwrap();
        let get = |r: &WorkloadResult| r.metrics.get("t1_s").unwrap().clone();
        let slower = with(&base, "t1_s", tight(1.0 + bound * 1.5));
        let same = with(&base, "t1_s", tight(1.0 + bound * 0.5));
        let faster = with(&base, "t1_s", tight(0.5));
        let noisy = with(
            &base,
            "t1_s",
            Summary {
                n: 7,
                median: 1.0,
                q1: 0.8,
                q3: 1.3,
            },
        );
        assert_eq!(verdict(&get(&base), &get(&slower)), Verdict::Regressed);
        assert_eq!(verdict(&get(&base), &get(&same)), Verdict::Ok);
        assert_eq!(verdict(&get(&base), &get(&faster)), Verdict::Ok);
        assert_eq!(verdict(&get(&base), &get(&noisy)), Verdict::Unresolved);

        let report = compare(std::slice::from_ref(&base), &[slower]);
        assert_eq!(report.regressed, 1);
        assert!(report.text.contains("regressed"));
        // tp_s carries a guard flag in the sample: never a clean verdict.
        let flagged = compare(&[sample_result(false)], &[sample_result(false)]);
        let row = flagged
            .text
            .lines()
            .find(|l| l.contains(" tp_s "))
            .expect("tp_s row");
        assert!(row.ends_with("unresolved"), "{row}");
    }

    #[test]
    fn direction_and_zero_baselines() {
        assert!(worsening(100.0, 90.0, Better::Higher) > 0.09);
        assert!(worsening(100.0, 90.0, Better::Lower) < 0.0);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worsening(0.0, 0.1, Better::Lower), f64::INFINITY);
        // fail_ratio has bound 0: any failure after none is a regression.
        let clean = sample_result(false);
        let failing = with(&clean, "fail_ratio", Summary::single(0.01));
        let get = |r: &WorkloadResult| r.metrics.get("fail_ratio").unwrap().clone();
        assert_eq!(verdict(&get(&clean), &get(&failing)), Verdict::Regressed);
        assert_eq!(verdict(&get(&clean), &get(&clean)), Verdict::Ok);
    }
}
