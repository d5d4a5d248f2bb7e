//! End-to-end runtime tests across all flavors.

use std::time::{Duration, Instant};

use nowa_runtime::{api, Config, Flavor, Runtime, SplitConfig, StatsSnapshot};

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = api::join2(|| fib(n - 1), || fib(n - 2));
    a + b
}

fn fib_serial(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib_serial(n - 1) + fib_serial(n - 2)
    }
}

/// One worker has no thief: nothing is ever stolen, and the split layer
/// alone decides whether the owner's pops come from its private segment.
#[test]
fn fib_single_worker() {
    for split in [SplitConfig::default(), SplitConfig::disabled()] {
        let rt = Runtime::new(Config::with_workers(1).split(split)).unwrap();
        assert_eq!(rt.run(|| fib(20)), fib_serial(20));
        let stats = rt.stats();
        assert_eq!(stats.steals, 0, "{split:?}: {stats:?}");
        assert_eq!(
            stats.private_pops > 0,
            split.enabled,
            "{split:?}: {stats:?}"
        );
    }
}

/// The counters of one `rt.run`, as the delta of `rt.stats()` around it.
fn run_counted(rt: &Runtime, n: u64) -> StatsSnapshot {
    let before = rt.stats();
    assert_eq!(rt.run(|| fib(n)), fib_serial(n));
    let after = rt.stats();
    StatsSnapshot {
        spawns: after.spawns - before.spawns,
        syncs_inline: after.syncs_inline - before.syncs_inline,
        steals: after.steals - before.steals,
        suspensions: after.suspensions - before.suspensions,
        fast_pops: after.fast_pops - before.fast_pops,
        own_takes: after.own_takes - before.own_takes,
        private_pops: after.private_pops - before.private_pops,
        promoted_items: after.promoted_items - before.promoted_items,
        ..StatsSnapshot::default()
    }
}

/// Exact counters for a known DAG: `fib(n)` makes one `join2` per call
/// with `n >= 2` — 10 945 for `fib(20)` — and each counter means one
/// thing on every flavor. On one worker nothing is stolen or suspends,
/// every continuation comes back to its owner, and with the split layer
/// every spawn is either popped back privately or went public by
/// promotion, never both.
#[test]
fn counters_are_exact_for_a_known_dag() {
    const FIB20_SPAWNS: u64 = 10_945;
    for flavor in Flavor::ALL {
        let name = flavor.name();
        let rt = Runtime::new(Config::with_workers(1).flavor(flavor)).unwrap();
        let d = run_counted(&rt, 20);
        assert_eq!(d.spawns, FIB20_SPAWNS, "{name}: {d:?}");
        assert_eq!(d.syncs_inline, FIB20_SPAWNS, "{name}: {d:?}");
        assert_eq!((d.steals, d.suspensions), (0, 0), "{name}: {d:?}");
        assert_eq!(d.fast_pops + d.own_takes, d.spawns, "{name}: {d:?}");
        if flavor == Flavor::FIBRIL {
            assert_eq!((d.private_pops, d.promoted_items), (0, 0), "{name}: {d:?}");
        } else {
            assert_eq!(d.private_pops + d.promoted_items, d.spawns, "{name}: {d:?}");
        }

        // With a thief: the split identity and conservation still hold
        // exactly at quiescence.
        let rt = Runtime::new(Config::with_workers(2).flavor(flavor)).unwrap();
        let d = run_counted(&rt, 22);
        assert_eq!(
            d.fast_pops + d.steals + d.own_takes,
            d.spawns,
            "{name}: {d:?}"
        );
        if flavor != Flavor::FIBRIL {
            assert_eq!(d.private_pops + d.promoted_items, d.spawns, "{name}: {d:?}");
        }
    }
}

/// A forced steal failure is delivered at the one steal call site, the
/// work-finding loop: at `steal_fail = u16::MAX` every attempt takes the
/// forced outcome instead of stealing, so nothing is stolen and each
/// forced outcome is counted exactly once as a failed attempt. The Fibril
/// arm shows the fused queue never sees a forced outcome either.
#[cfg(feature = "chaos")]
#[test]
fn forced_steal_failures_stand_in_for_every_steal() {
    use nowa_runtime::chaos::ChaosSite;
    use nowa_runtime::ChaosConfig;

    for flavor in Flavor::ALL {
        let name = flavor.name();
        let mut chaos = ChaosConfig::with_seed(5);
        chaos.steal_fail = u16::MAX;
        let rt = Runtime::new(Config::with_workers(2).flavor(flavor).chaos(chaos)).unwrap();
        assert_eq!(rt.run(|| fib(16)), fib_serial(16), "{name}");
        // After shutdown every worker has exited: the counters are final.
        rt.shutdown(Duration::from_secs(10)).unwrap();
        let snap = rt.snapshot();
        let (s, chaos) = (snap.scheduler, snap.chaos.expect("chaos configured"));
        let forced = chaos.injected_at(ChaosSite::StealFail);
        assert_eq!(s.steals, 0, "{name}: {s:?}");
        assert!(forced > 0, "{name}: no steal attempt was made");
        assert_eq!(s.steal_empty + s.steal_retry, forced, "{name}: {s:?}");
        assert_eq!(chaos.ticks[ChaosSite::StealFail as usize], forced, "{name}");
    }
}

/// What the one-worker `join2` probes of `benchmark/` measure. A loop of
/// `join2`s at a task's top level pushes every continuation onto an empty
/// public deque, so each push publishes and each pop is the public
/// deque's last-item pop. The same loop inside an outer `join2`'s child
/// finds the outer continuation public, and every inner spawn stays on
/// the private segment.
#[test]
fn top_level_join2s_publish_and_nested_ones_stay_private() {
    const N: u64 = 1_000;
    fn join_loop(n: u64) -> u64 {
        (0..n)
            .map(|_| {
                let (a, b) = api::join2(|| 1u64, || 0u64);
                a + b
            })
            .sum()
    }
    let rt = Runtime::new(Config::with_workers(1)).unwrap();

    let before = rt.stats();
    assert_eq!(rt.run(|| join_loop(N)), N);
    let after = rt.stats();
    let top_level = (
        after.spawns - before.spawns,
        after.promotions - before.promotions,
        after.private_pops - before.private_pops,
    );
    assert_eq!(top_level, (N, N, 0), "(spawns, promotions, private_pops)");

    let before = rt.stats();
    assert_eq!(rt.run(|| api::join2(|| join_loop(N), || 0).0), N);
    let after = rt.stats();
    let nested = (
        after.spawns - before.spawns,
        after.promotions - before.promotions,
        after.private_pops - before.private_pops,
    );
    // The outer spawn publishes once; the N inner ones stay private.
    assert_eq!(nested, (N + 1, 1, N), "(spawns, promotions, private_pops)");
}

#[test]
fn fib_four_workers_all_flavors() {
    for flavor in Flavor::ALL {
        let rt = Runtime::new(Config::with_workers(4).flavor(flavor)).unwrap();
        assert_eq!(
            rt.run(|| fib(22)),
            fib_serial(22),
            "flavor {}",
            flavor.name()
        );
    }
}

#[test]
fn serial_elision_outside_runtime() {
    // No runtime: the API runs serially on this plain thread.
    assert!(!api::in_task());
    assert_eq!(fib(15), fib_serial(15));
}

/// `fib` whose leaves each spin for `leaf`. With nanosecond leaves the
/// first worker can finish the whole DAG before a thief that went to
/// sleep gets a CPU back; leaves that outlast an idle sweep keep work in
/// the deques while the thieves come round.
fn fib_slow_leaves(n: u64, leaf: Duration) -> u64 {
    if n < 2 {
        let start = Instant::now();
        while start.elapsed() < leaf {
            std::hint::spin_loop();
        }
        return n;
    }
    let (a, b) = api::join2(
        || fib_slow_leaves(n - 1, leaf),
        || fib_slow_leaves(n - 2, leaf),
    );
    a + b
}

#[test]
fn steals_actually_happen() {
    let rt = Runtime::new(Config::with_workers(4)).unwrap();
    // 4 181 leaves of 10 µs: ~42 ms of work.
    let expected = fib_serial(18);
    assert_eq!(
        rt.run(|| fib_slow_leaves(18, Duration::from_micros(10))),
        expected
    );
    let stats = rt.stats();
    assert!(stats.spawns > 1000, "spawns: {stats:?}");
    assert!(
        stats.steals + stats.own_takes > 0,
        "some continuation must have been taken: {stats:?}"
    );
    // Conservation: every offered continuation is consumed exactly once.
    assert_eq!(
        stats.spawns,
        stats.continuations_consumed(),
        "continuation conservation: {stats:?}"
    );
    // Every steal/self-take forks a strand that later joins.
    assert_eq!(stats.steals + stats.own_takes, stats.joins, "{stats:?}");
}

#[test]
fn join3_and_join4() {
    let rt = Runtime::with_workers(3).unwrap();
    let (a, b, c) = rt.run(|| api::join3(|| 1, || 2.5f64, || "three"));
    assert_eq!((a, b, c), (1, 2.5, "three"));
    let (a, b, c, d) = rt.run(|| api::join4(|| 1u8, || 2u16, || 3u32, || 4u64));
    assert_eq!((a, b, c, d), (1, 2, 3, 4));
}

#[test]
fn par_for_covers_every_index() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let rt = Runtime::with_workers(4).unwrap();
    let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
    rt.run(|| {
        api::par_for(0..1000, 16, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        })
    });
    for (i, h) in hits.iter().enumerate() {
        assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
    }
}

#[test]
fn map_reduce_sums() {
    let rt = Runtime::with_workers(4).unwrap();
    let total = rt.run(|| api::map_reduce(0..10_000, 64, &|i| i as u64, &|a, b| a + b));
    assert_eq!(total, Some(9999 * 10_000 / 2));
    let empty = rt.run(|| api::map_reduce(5..5, 64, &|i| i as u64, &|a, b| a + b));
    assert_eq!(empty, None);
}

#[test]
fn par_map_writes_all_outputs() {
    let rt = Runtime::with_workers(4).unwrap();
    let input: Vec<u32> = (0..512).collect();
    let mut output = vec![0u32; 512];
    rt.run(|| api::par_map(&input, &mut output, 8, &|x| x * 2));
    for (i, o) in output.iter().enumerate() {
        assert_eq!(*o, (i as u32) * 2);
    }
}

#[test]
fn region_linear_spawns() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let rt = Runtime::with_workers(4).unwrap();
    let sum = AtomicU64::new(0);
    rt.run(|| {
        let region = api::Region::new();
        let sum = &sum;
        for i in 0..100u64 {
            // SAFETY: everything live across the spawns (the region, the
            // atomic) is Send+Sync; the region is synced before drop.
            // `move` captures `i` by value — a stolen continuation mutates
            // the loop frame concurrently.
            unsafe {
                region.spawn(move || {
                    sum.fetch_add(i, Ordering::Relaxed);
                })
            };
        }
        region.sync();
        assert_eq!(sum.load(Ordering::Relaxed), 99 * 100 / 2);
    });
}

#[test]
fn region_serial_fallback() {
    let region = api::Region::new();
    let mut x = 0;
    unsafe { region.spawn(|| x += 1) };
    region.sync();
    assert_eq!(x, 1);
}

#[test]
fn child_panic_propagates() {
    let rt = Runtime::with_workers(2).unwrap();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.run(|| {
            let (_, _) = api::join2(|| panic!("child boom"), || 42);
        })
    }));
    let err = result.unwrap_err();
    let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
    assert_eq!(msg, "child boom");
    // The runtime survives the panic.
    assert_eq!(rt.run(|| fib(10)), 55);
}

#[test]
fn continuation_panic_still_syncs() {
    let rt = Runtime::with_workers(2).unwrap();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.run(|| {
            let (_, _) = api::join2(|| fib(12), || -> u64 { panic!("continuation boom") });
        })
    }));
    assert!(result.is_err());
    assert_eq!(rt.run(|| fib(10)), 55);
}

#[test]
fn root_panic_propagates() {
    let rt = Runtime::with_workers(2).unwrap();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.run(|| panic!("root boom"))
    }));
    assert!(result.is_err());
    assert_eq!(rt.run(|| 7), 7);
}

#[test]
fn multiple_sequential_runs() {
    let rt = Runtime::with_workers(3).unwrap();
    for i in 0..50u64 {
        assert_eq!(rt.run(|| fib(10) + i), 55 + i);
    }
}

#[test]
fn borrows_across_run() {
    // Runtime::run supports borrowed closures (scoped semantics).
    let data: Vec<u64> = (0..100).collect();
    let rt = Runtime::with_workers(2).unwrap();
    let sum =
        rt.run(|| api::map_reduce(0..data.len(), 8, &|i| data[i], &|a, b| a + b).unwrap_or(0));
    assert_eq!(sum, 99 * 100 / 2);
}

#[test]
fn nested_joins_deep() {
    // Deep nesting: every level spawns, exercising suspension chains.
    fn depth_sum(d: u32) -> u64 {
        if d == 0 {
            return 1;
        }
        let (a, b) = api::join2(|| depth_sum(d - 1), || depth_sum(d - 1));
        a + b
    }
    let rt = Runtime::with_workers(4).unwrap();
    assert_eq!(rt.run(|| depth_sum(12)), 1 << 12);
}

#[test]
fn tiny_deque_degrades_gracefully() {
    // Capacity 2 forces unoffered continuations (bounded THE deque).
    let mut config = Config::with_workers(4).flavor(Flavor::NOWA_THE);
    config.deque_capacity = 2;
    let rt = Runtime::new(config).unwrap();
    assert_eq!(rt.run(|| fib(18)), fib_serial(18));
    let stats = rt.stats();
    assert!(
        stats.unoffered > 0,
        "tiny deque must refuse some: {stats:?}"
    );
}

#[test]
fn small_stacks_work() {
    let mut config = Config::with_workers(2);
    config.stack_size = 64 * 1024;
    let rt = Runtime::new(config).unwrap();
    assert_eq!(rt.run(|| fib(16)), 987);
}

#[test]
fn madvise_policies_run() {
    for policy in [
        nowa_runtime::MadvisePolicy::Keep,
        nowa_runtime::MadvisePolicy::Free,
        nowa_runtime::MadvisePolicy::DontNeed,
    ] {
        let rt = Runtime::new(Config::with_workers(3).madvise(policy)).unwrap();
        assert_eq!(rt.run(|| fib(18)), fib_serial(18), "policy {policy:?}");
    }
}

#[test]
fn zero_workers_rejected() {
    assert!(Runtime::with_workers(0).is_err());
}

#[test]
fn heavy_mixed_load_all_flavors() {
    for flavor in Flavor::ALL {
        let rt = Runtime::new(Config::with_workers(4).flavor(flavor)).unwrap();
        let total = rt.run(|| {
            api::map_reduce(
                0..200,
                1,
                &|i| {
                    // Mixed recursion depth keeps the DAG irregular.
                    fib(8 + (i % 6) as u64)
                },
                &|a, b| a + b,
            )
            .unwrap()
        });
        let expected: u64 = (0..200).map(|i| fib_serial(8 + (i % 6) as u64)).sum();
        assert_eq!(total, expected, "flavor {}", flavor.name());
    }
}

#[test]
fn for_each_visits_every_item_once() {
    use std::sync::atomic::{AtomicU32, Ordering};
    let rt = Runtime::with_workers(4).unwrap();
    let hits: Vec<AtomicU32> = (0..500).map(|_| AtomicU32::new(0)).collect();
    rt.run(|| {
        api::for_each(0..hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
    });
    for (i, h) in hits.iter().enumerate() {
        assert_eq!(h.load(Ordering::Relaxed), 1, "item {i}");
    }
}

#[test]
fn for_each_serial_fallback() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let sum = AtomicU64::new(0);
    assert!(!api::in_task());
    api::for_each(1..=10u64, &|v| {
        sum.fetch_add(v, Ordering::Relaxed);
    });
    assert_eq!(sum.into_inner(), 55);
}

#[test]
fn for_each_propagates_child_panic() {
    let rt = Runtime::with_workers(2).unwrap();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.run(|| {
            api::for_each(0..10, &|i| {
                if i == 7 {
                    panic!("item 7 exploded");
                }
            });
        })
    }));
    assert!(result.is_err());
    assert_eq!(rt.run(|| 1 + 1), 2);
}

#[test]
fn for_each_nested_inside_join2() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let rt = Runtime::with_workers(4).unwrap();
    let total = AtomicU64::new(0);
    rt.run(|| {
        let ((), ()) = api::join2(
            || {
                api::for_each(0..100u64, &|v| {
                    total.fetch_add(v, Ordering::Relaxed);
                })
            },
            || {
                api::for_each(100..200u64, &|v| {
                    total.fetch_add(v, Ordering::Relaxed);
                })
            },
        );
    });
    assert_eq!(total.into_inner(), 199 * 200 / 2);
}
