//! `Runtime::snapshot()` and its three renderers, driven from the event
//! table: whatever rows `StatsSnapshot::fields()` names must show up —
//! exactly once, with the snapshot's value — in the Prometheus text, the
//! JSON and the text table, on every flavor, after a workload that
//! provably stole.

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use nowa_runtime::{api, time, AsyncFd, Config, Flavor, Runtime, Snapshot, StatsSnapshot};
use nowa_trace::json::Json;

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = api::join2(|| fib(n - 1), || fib(n - 2));
    a + b
}

/// A root whose first continuation is certainly stolen (the child waits
/// for it), followed by enough fine-grained work to move every
/// spawn-path counter.
fn stealing_workload(rt: &Runtime) {
    let stolen = AtomicBool::new(false);
    let saw_steal = rt.run(|| {
        let child = || {
            let t0 = Instant::now();
            while !stolen.load(Ordering::Acquire) && t0.elapsed() < Duration::from_secs(10) {
                std::thread::yield_now();
            }
            stolen.load(Ordering::Acquire)
        };
        let (saw_steal, ()) = api::join2(child, || stolen.store(true, Ordering::Release));
        assert_eq!(fib(16), 987);
        saw_steal
    });
    assert!(saw_steal, "no thief took the offered continuation");
}

fn count_lines(text: &str, line: &str) -> usize {
    text.lines().filter(|l| *l == line).count()
}

fn json_u64(obj: &Json, key: &str) -> u64 {
    obj.get(key)
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("JSON key {key} missing")) as u64
}

/// Every table row, exactly once per renderer, with the snapshot's value —
/// in aggregate and per worker.
fn assert_rendered_everywhere(snap: &Snapshot) {
    let text = snap.render_prometheus();
    let json_text = snap.render_json();
    let json = Json::parse(&json_text).expect("snapshot JSON parses");
    let table = snap.render_table();
    let scheduler = json.get("scheduler").expect("scheduler object");
    let per_worker = json.get("per_worker").and_then(Json::as_arr).unwrap();
    assert_eq!(per_worker.len(), snap.workers.len());

    for (i, (name, help, value)) in snap.scheduler.fields().into_iter().enumerate() {
        let family = format!("nowa_{name}_total");
        assert_eq!(
            count_lines(&text, &format!("{family} {value}")),
            1,
            "{family}\n{text}"
        );
        assert_eq!(
            count_lines(&text, &format!("# TYPE {family} counter")),
            1,
            "{family}"
        );
        assert_eq!(
            count_lines(&text, &format!("# HELP {family} {help}")),
            1,
            "{family}"
        );
        assert_eq!(json_u64(scheduler, name), value, "JSON scheduler.{name}");
        assert_eq!(
            json_text.matches(&format!("\"{name}\":")).count(),
            1 + snap.workers.len(),
            "JSON key {name}: once in scheduler, once per worker"
        );

        let mut cells = vec![name.to_string(), value.to_string()];
        for (w, worker) in snap.workers.iter().enumerate() {
            let v = worker.fields()[i].2;
            let line = format!("nowa_worker_{name}_total{{worker=\"{w}\"}} {v}");
            assert_eq!(count_lines(&text, &line), 1, "{line}\n{text}");
            assert_eq!(
                json_u64(&per_worker[w], name),
                v,
                "JSON per_worker[{w}].{name}"
            );
            cells.push(v.to_string());
        }
        let rows: Vec<Vec<&str>> = table
            .lines()
            .map(|l| l.split_whitespace().collect())
            .filter(|cells: &Vec<&str>| cells.first() == Some(&name))
            .collect();
        assert_eq!(rows, [cells], "table row {name}:\n{table}");
    }
    for (name, _, _) in snap.scheduler.ratios() {
        assert_eq!(
            text.matches(&format!("# TYPE nowa_{name} gauge")).count(),
            1
        );
        assert!(scheduler.get(name).is_some(), "JSON ratio {name}");
        assert_eq!(table.lines().filter(|l| l.starts_with(name)).count(), 1);
    }
}

#[test]
fn every_table_row_reaches_every_renderer_on_every_flavor() {
    for flavor in Flavor::ALL {
        let rt = Runtime::new(Config::with_workers(3).flavor(flavor)).unwrap();
        stealing_workload(&rt);
        let snap = rt.snapshot();
        let s = snap.scheduler;
        assert_eq!(snap.flavor, flavor);
        assert!(s.steals >= 1 && s.spawns > 100, "{}: {s:?}", flavor.name());

        // Per-worker snapshots sum to the aggregate, field by field.
        let mut sum = StatsSnapshot::default();
        snap.workers.iter().for_each(|w| sum.merge(w));
        assert_eq!(sum, s);
        // Conservation at quiescence: every offered continuation was
        // consumed exactly once.
        assert_eq!(s.spawns, s.fast_pops + s.steals + s.own_takes, "{s:?}");

        assert_rendered_everywhere(&snap);

        // `stats()` is the same projection: event counters of a finished
        // workload are final, idle-side ones only grow.
        let later = rt.stats();
        for ((name, _, then), (_, _, now)) in s.fields().into_iter().zip(later.fields()) {
            assert!(now >= then, "{name} went backwards");
        }
        let settled = |x: &StatsSnapshot| (x.spawns, x.fast_pops, x.steals, x.own_takes, x.joins);
        assert_eq!(settled(&later), settled(&s));
    }
}

/// The default build exercises the Prometheus and JSON renderers.
#[test]
fn metrics_surface_works_in_the_default_build() {
    let rt = Runtime::new(Config::with_workers(2)).unwrap();
    assert_eq!(rt.run(|| fib(16)), 987);
    let spawns = rt.stats().spawns;
    let text = rt.snapshot().render_prometheus();
    assert!(
        text.contains("nowa_build_info{flavor=\"nowa-cl\"} 1\n"),
        "{text}"
    );
    assert!(
        text.contains("# TYPE nowa_workers gauge\nnowa_workers 2\n"),
        "{text}"
    );
    assert!(
        text.contains(&format!("\nnowa_spawns_total {spawns}\n")),
        "{text}"
    );
    assert!(text.contains("# TYPE nowa_fast_path_ratio gauge"), "{text}");
    assert!(
        text.contains("# TYPE nowa_stack_pool_gets_total counter"),
        "{text}"
    );
    assert!(
        text.contains("# TYPE nowa_watchdog_reports_total counter"),
        "{text}"
    );

    let json = Json::parse(&rt.snapshot().render_json()).expect("metrics JSON parses");
    assert_eq!(json.get("flavor").and_then(Json::as_str), Some("nowa-cl"));
    assert_eq!(json_u64(&json, "workers"), 2);
    assert_eq!(json_u64(json.get("scheduler").unwrap(), "spawns"), spawns);
    let (gets, puts, maps) = rt.pool_stats();
    assert_eq!(json_u64(&json, "stack_pool_maps"), maps);
    assert!(
        json_u64(&json, "stack_pool_gets") <= gets && json_u64(&json, "stack_pool_puts") <= puts
    );
}

/// The reactor gauges: a strand parked in `timeout(…, fd.readable())`
/// holds one registered source and one armed timer, and every renderer
/// shows both as gauges; once it returns, both read zero again.
#[test]
fn reactor_gauges_count_live_sources_and_timers() {
    let rt = Runtime::new(Config::with_workers(2)).unwrap();
    let (a, mut b) = UnixStream::pair().unwrap();
    a.set_nonblocking(true).unwrap();
    let gauges = |s: &Snapshot| (s.reactor_sources, s.timers_pending);
    assert_eq!(gauges(&rt.snapshot()), (0, 0));
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            rt.run(move || {
                nowa_runtime::block_on(async move {
                    let fd = AsyncFd::new(a).unwrap();
                    let ready = time::timeout(Duration::from_secs(60), fd.readable()).await;
                    assert!(matches!(ready, Ok(Ok(()))), "the byte arrives first");
                })
            })
        });
        let t0 = Instant::now();
        let mut snap = rt.snapshot();
        while gauges(&snap) != (1, 1) && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
            snap = rt.snapshot();
        }
        assert_eq!(gauges(&snap), (1, 1), "one parked fd wait under one timer");
        let text = snap.render_prometheus();
        let json = Json::parse(&snap.render_json()).expect("snapshot JSON parses");
        let table = snap.render_table();
        for name in ["reactor_sources", "timers_pending"] {
            assert!(
                text.contains(&format!("# TYPE nowa_{name} gauge\nnowa_{name} 1\n")),
                "{text}"
            );
            assert_eq!(json_u64(&json, name), 1, "JSON {name}");
            assert_eq!(count_lines(&table, &format!("{name} 1")), 1, "{table}");
        }
        b.write_all(&[1]).unwrap();
        server.join().unwrap();
    });
    assert_eq!(
        gauges(&rt.snapshot()),
        (0, 0),
        "the dropped fd deregistered and the finished timeout disarmed"
    );
}
