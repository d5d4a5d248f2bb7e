//! The catalogue: every workload and every metric the benchmark can emit,
//! with unit, direction and regression bound. `BENCHMARK.json` at the
//! repository root is `manifest()` rendered; a unit test keeps them equal.

use nowa_trace::json::Json;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "fj-spawn",
        why: "fib+integrate+nqueens: leaves of a few ns, so the spawn path (frame, record, context capture, owner push/pop) does nearly all the work and steals are ~1e-5 of spawns",
    },
    WorkloadDef {
        name: "fj-coarse",
        why: "matmul+lu+cholesky+fft+quicksort+heat: kernel compute and memory do nearly all the work, so a spawn-path change predicts no change here",
    },
    WorkloadDef {
        name: "fj-loop",
        why: "loop of 64 spawns over 10 us leaves: every continuation should be stolen, so steals, suspensions, promotion and thief wake-ups dominate instead of owner push/pop",
    },
    WorkloadDef {
        name: "serve",
        why: "echo over AsyncFd with a small join2 DAG per request: reactor, tasks, timers and the idle engine do the work, kernels and the spawn path do little",
    },
];

/// Seconds one run measures when `--seconds` is not given (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a metric is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Defined on every workload, never zero, bounded: listed under
    /// `end_to_end` in `BENCHMARK.json` and printed by every untraced run.
    EndToEnd,
    /// Defined on every workload: listed under `per_layer` and printed by
    /// every traced run.
    PerLayer,
    /// An end-to-end number only some workloads define (or one that is
    /// zero when all is well): in result files and `compare`, not in
    /// `BENCHMARK.json`, whose metrics every workload must print.
    ExtraEndToEnd,
    /// A per-layer number only some workloads define.
    ExtraPerLayer,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub class: Class,
    /// Share of the baseline median by which the metric may get worse.
    /// Per-layer metrics have none.
    pub bound: Option<f64>,
    /// Workloads that define it; empty means all.
    pub only: &'static [&'static str],
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        class: Class::EndToEnd,
        bound: Some(bound),
        only: &[],
    }
}

const fn extra_e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    only: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        class: Class::ExtraEndToEnd,
        bound: Some(bound),
        only,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        class: Class::PerLayer,
        bound: None,
        only: &[],
    }
}

const fn extra_layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    only: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        class: Class::ExtraPerLayer,
        bound: None,
        only,
    }
}

use Better::{Higher, Lower};

const SERVE: &[&str] = &["serve"];
const SPAWN: &[&str] = &["fj-spawn"];
const COARSE: &[&str] = &["fj-coarse"];
const LOOP: &[&str] = &["fj-loop"];

pub const CATALOG: &[MetricDef] = &[
    // ---- end to end, every workload ----
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.15),
    e2e("overhead_ratio", "ratio", Lower, 0.15),
    e2e("speedup_ratio", "ratio", Higher, 0.15),
    // ---- end to end, not in BENCHMARK.json ----
    // Absolute pass times: on the reference host they drift by more than
    // any admissible bound between runs minutes apart (see README), so
    // the driver gates on the two ratios above, whose passes take turns.
    extra_e2e("serial_s", "s", Lower, 0.25, &[]),
    extra_e2e("t1_s", "s", Lower, 0.25, &[]),
    extra_e2e("tp_s", "s", Lower, 0.25, &[]),
    extra_e2e("fail_ratio", "ratio", Lower, 0.0, &[]),
    extra_e2e("lat_low_p50_us", "us", Lower, 0.10, SERVE),
    extra_e2e("lat_low_p99_us", "us", Lower, 0.10, SERVE),
    extra_e2e("lat_high_p50_us", "us", Lower, 0.10, SERVE),
    extra_e2e("lat_high_p99_us", "us", Lower, 0.10, SERVE),
    extra_e2e("sat_rps", "1/s", Higher, 0.25, SERVE),
    extra_e2e("cpu_us_per_req_low", "us", Lower, 0.10, SERVE),
    // ---- per layer: probes, the same procedure in every traced run ----
    layer("context.capture_resume_ns", "ns", Lower),
    layer("context.switch_ns", "ns", Lower),
    layer("stack.cache_getput_ns", "ns", Lower),
    layer("stack.pool_getput_ns", "ns", Lower),
    layer("stack.map_unmap_us", "us", Lower),
    layer("stack.madvise_release_us", "us", Lower),
    layer("deque.cl_pushpop_ns", "ns", Lower),
    layer("deque.the_pushpop_ns", "ns", Lower),
    layer("deque.split_pushpop_ns", "ns", Lower),
    layer("deque.cl_steal_ns", "ns", Lower),
    layer("deque.the_steal_ns", "ns", Lower),
    layer("deque.split_steal_ns", "ns", Lower),
    layer("deque.cl_steal_success_ratio", "ratio", Higher),
    layer("deque.split_steal_success_ratio", "ratio", Higher),
    layer("deque.split_publish_lag_us", "us", Lower),
    layer("spawn.join2_ns", "ns", Lower),
    layer("spawn.for_each_item_ns", "ns", Lower),
    layer("spawn.join2_contended_ns", "ns", Lower),
    layer("flavor.the_join2_ns", "ns", Lower),
    layer("flavor.fibril_join2_ns", "ns", Lower),
    layer("flavor.nosplit_join2_ns", "ns", Lower),
    layer("cancel.checkpoint_ns", "ns", Lower),
    layer("cancel.region_ns", "ns", Lower),
    layer("cancel.join2_delta_ns", "ns", Lower),
    layer("idle.wake_rtt_p50_us", "us", Lower),
    layer("idle.wake_rtt_p99_us", "us", Lower),
    layer("idle.cpu_ratio", "ratio", Lower),
    layer("injector.run_rtt_ns", "ns", Lower),
    layer("runtime.new_ms", "ms", Lower),
    layer("runtime.shutdown_ms", "ms", Lower),
    layer("task.block_on_ready_ns", "ns", Lower),
    layer("task.spawn_async_join_ns", "ns", Lower),
    layer("task.wake_resume_us", "us", Lower),
    layer("reactor.echo_rtt_p50_us", "us", Lower),
    layer("reactor.echo_rtt_p99_us", "us", Lower),
    layer("timer.sleep_1ms_overshoot_p50_us", "us", Lower),
    layer("timer.sleep_1ms_overshoot_p99_us", "us", Lower),
    layer("timer.sleep_10ms_overshoot_p50_us", "us", Lower),
    layer("timer.timeout_ready_ns", "ns", Lower),
    layer("serve.handler_dag_us", "us", Lower),
    layer("sim.events_per_s", "1/s", Higher),
    layer("sim.fib_speedup_64_nowa", "ratio", Higher),
    layer("sim.fib_speedup_64_fibril", "ratio", Higher),
    layer("trace.ring_push_ns", "ns", Lower),
    layer("trace.hist_record_ns", "ns", Lower),
    // ---- per layer: counts around this workload's timed work ----
    layer("stack.pool_gets", "count", Lower),
    layer("stack.pool_puts", "count", Lower),
    layer("stack.maps", "count", Lower),
    layer("sched.spawns", "count", Lower),
    layer("sched.steals", "count", Lower),
    layer("sched.steals_p1", "count", Lower),
    layer("sched.steal_empty", "count", Lower),
    layer("sched.steal_retry", "count", Lower),
    layer("sched.suspensions", "count", Lower),
    layer("sched.sync_resumes", "count", Lower),
    layer("sched.promotions", "count", Lower),
    layer("sched.promoted_items", "count", Lower),
    layer("sched.private_pops", "count", Higher),
    layer("sched.steal_success_ratio", "ratio", Higher),
    layer("sched.fast_path_ratio", "ratio", Higher),
    layer("idle.parks", "count", Lower),
    layer("idle.wakes_issued", "count", Lower),
    layer("idle.wakes_spurious", "count", Lower),
    layer("idle.parked_frac", "ratio", Lower),
    layer("reactor.polls", "count", Lower),
    layer("reactor.events", "count", Lower),
    layer("reactor.async_parks", "count", Lower),
    layer("reactor.timer_fires", "count", Lower),
    layer("bench.trace_overhead_ratio", "ratio", Lower),
    // ---- per layer, some workloads ----
    extra_layer("spawn.explained_ratio", "ratio", Lower, SPAWN),
    extra_layer("flavor.the_loop_tp_s", "s", Lower, LOOP),
    extra_layer("flavor.fibril_loop_tp_s", "s", Lower, LOOP),
    extra_layer("flavor.nosplit_loop_tp_s", "s", Lower, LOOP),
    extra_layer("reactor.polls_per_req_low", "ratio", Lower, SERVE),
    extra_layer("reactor.polls_per_req_high", "ratio", Lower, SERVE),
    extra_layer("reactor.events_per_req_low", "ratio", Lower, SERVE),
    extra_layer("reactor.events_per_req_high", "ratio", Lower, SERVE),
    extra_layer("reactor.async_parks_per_req_low", "ratio", Lower, SERVE),
    extra_layer("reactor.async_parks_per_req_high", "ratio", Lower, SERVE),
    extra_layer("serve.gen_late_p99_us_low", "us", Lower, SERVE),
    extra_layer("serve.gen_late_p99_us_high", "us", Lower, SERVE),
    extra_layer("serve.within_limit_ratio_low", "ratio", Higher, SERVE),
    extra_layer("serve.within_limit_ratio_high", "ratio", Higher, SERVE),
    extra_layer("kernel.fib_serial_s", "s", Lower, SPAWN),
    extra_layer("kernel.fib_t1_s", "s", Lower, SPAWN),
    extra_layer("kernel.fib_tp_s", "s", Lower, SPAWN),
    extra_layer("kernel.integrate_serial_s", "s", Lower, SPAWN),
    extra_layer("kernel.integrate_t1_s", "s", Lower, SPAWN),
    extra_layer("kernel.integrate_tp_s", "s", Lower, SPAWN),
    extra_layer("kernel.nqueens_serial_s", "s", Lower, SPAWN),
    extra_layer("kernel.nqueens_t1_s", "s", Lower, SPAWN),
    extra_layer("kernel.nqueens_tp_s", "s", Lower, SPAWN),
    extra_layer("kernel.matmul_serial_s", "s", Lower, COARSE),
    extra_layer("kernel.matmul_t1_s", "s", Lower, COARSE),
    extra_layer("kernel.matmul_tp_s", "s", Lower, COARSE),
    extra_layer("kernel.lu_serial_s", "s", Lower, COARSE),
    extra_layer("kernel.lu_t1_s", "s", Lower, COARSE),
    extra_layer("kernel.lu_tp_s", "s", Lower, COARSE),
    extra_layer("kernel.cholesky_serial_s", "s", Lower, COARSE),
    extra_layer("kernel.cholesky_t1_s", "s", Lower, COARSE),
    extra_layer("kernel.cholesky_tp_s", "s", Lower, COARSE),
    extra_layer("kernel.fft_serial_s", "s", Lower, COARSE),
    extra_layer("kernel.fft_t1_s", "s", Lower, COARSE),
    extra_layer("kernel.fft_tp_s", "s", Lower, COARSE),
    extra_layer("kernel.quicksort_serial_s", "s", Lower, COARSE),
    extra_layer("kernel.quicksort_t1_s", "s", Lower, COARSE),
    extra_layer("kernel.quicksort_tp_s", "s", Lower, COARSE),
    extra_layer("kernel.heat_serial_s", "s", Lower, COARSE),
    extra_layer("kernel.heat_t1_s", "s", Lower, COARSE),
    extra_layer("kernel.heat_tp_s", "s", Lower, COARSE),
    extra_layer("kernel.loop_serial_s", "s", Lower, LOOP),
    extra_layer("kernel.loop_t1_s", "s", Lower, LOOP),
    extra_layer("kernel.loop_tp_s", "s", Lower, LOOP),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    CATALOG.iter().find(|m| m.name == name)
}

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Names of the metrics of `class`, in catalogue order.
pub fn names_of(class: Class) -> impl Iterator<Item = &'static str> {
    CATALOG
        .iter()
        .filter(move |m| m.class == class)
        .map(|m| m.name)
}

/// A JSON object from `(key, value)` pairs.
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// The content of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::Str((*s).to_owned())).collect());
    let metric = |m: &MetricDef| {
        let mut pairs = vec![
            ("name", Json::Str(m.name.to_owned())),
            ("unit", Json::Str(m.unit.to_owned())),
            ("better", Json::Str(m.better.as_str().to_owned())),
        ];
        if let Some(b) = m.bound {
            pairs.push(("bound", Json::Num(b)));
        }
        obj(pairs)
    };
    let of = |class| {
        Json::Arr(
            CATALOG
                .iter()
                .filter(|m| m.class == class)
                .map(metric)
                .collect(),
        )
    };
    obj(vec![
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "run",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        obj(vec![
                            ("name", Json::Str(w.name.to_owned())),
                            ("why", Json::Str(w.why.to_owned())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", of(Class::EndToEnd)),
        ("per_layer", of(Class::PerLayer)),
    ])
}

/// `manifest()` as text: one top-level key, workload or metric per line.
pub fn manifest_text() -> String {
    let Json::Obj(top) = manifest() else {
        unreachable!("manifest() builds an object")
    };
    let entries: Vec<String> = top
        .iter()
        .map(|(key, value)| match value {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                let lines: Vec<String> = items
                    .iter()
                    .map(|i| format!("    {}", i.render()))
                    .collect();
                format!("  \"{key}\": [\n{}\n  ]", lines.join(",\n"))
            }
            other => format!("  \"{key}\": {}", other.render()),
        })
        .collect();
    format!("{{\n{}\n}}\n", entries.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "workload {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in CATALOG {
            assert!(valid_name(m.name), "metric {}", m.name);
            assert!(valid_unit(m.unit), "unit of {}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(
                m.bound.is_none_or(|b| (0.0..=0.25).contains(&b)),
                "{}",
                m.name
            );
            for w in m.only {
                assert!(workload(w).is_some(), "{} names unknown {w}", m.name);
            }
            let declared = matches!(m.class, Class::EndToEnd | Class::PerLayer);
            assert!(!declared || m.only.is_empty(), "{} must be on all", m.name);
        }
        assert!((1..=16).contains(&names_of(Class::EndToEnd).count()));
        assert!((1..=128).contains(&names_of(Class::PerLayer).count()));
        let setup = find("setup_s").unwrap();
        let widest = CATALOG.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    }

    #[test]
    fn committed_manifest_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(Json::parse(&text).expect("valid JSON"), manifest());
        assert_eq!(
            text,
            manifest_text(),
            "regenerate with `benchmark manifest`"
        );
    }
}
