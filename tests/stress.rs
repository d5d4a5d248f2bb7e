//! Failure injection and stress: tiny stacks, tiny deques, steal storms,
//! deep suspension chains, concurrent external submitters.

use nowa::kernels::{BenchId, Size};
use nowa::{join2, Config, Flavor, MadvisePolicy, Runtime};

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = join2(|| fib(n - 1), || fib(n - 2));
    a + b
}

#[test]
fn steal_storm_many_workers_tiny_grain() {
    // Far more workers than cores: heavy oversubscription forces constant
    // preemption mid-protocol, a good way to shake out ordering bugs.
    let rt = Runtime::new(Config::with_workers(8)).unwrap();
    for _ in 0..5 {
        assert_eq!(rt.run(|| fib(18)), 2584);
    }
    let stats = rt.stats();
    assert_eq!(stats.spawns, stats.continuations_consumed());
}

#[test]
fn tiny_stacks_with_madvise() {
    let mut config = Config::with_workers(4).madvise(MadvisePolicy::DontNeed);
    config.stack_size = 32 * 1024;
    let rt = Runtime::new(config).unwrap();
    assert_eq!(rt.run(|| fib(15)), 610);
}

#[test]
fn tiny_deque_capacity_all_flavors() {
    for flavor in Flavor::ALL {
        let mut config = Config::with_workers(4).flavor(flavor);
        config.deque_capacity = 2;
        let rt = Runtime::new(config).unwrap();
        assert_eq!(rt.run(|| fib(16)), 987, "flavor {}", flavor.name());
    }
}

#[test]
fn tiny_stack_cache_forces_pool_traffic() {
    let mut config = Config::with_workers(4);
    config.stack_cache = 0; // every spawn goes to the global pool
    config.pool_stripes = 1;
    let rt = Runtime::new(config).unwrap();
    assert_eq!(rt.run(|| fib(14)), 377);
    let (gets, puts, _maps) = rt.pool_stats();
    assert!(gets > 0 && puts > 0, "global pool must recirculate");
}

#[test]
fn striped_pool_ablation() {
    // The paper suggests pool improvements; the striped pool is ours.
    let mut config = Config::with_workers(4);
    config.stack_cache = 0;
    config.pool_stripes = 8;
    let rt = Runtime::new(config).unwrap();
    assert_eq!(rt.run(|| BenchId::Cholesky.run(Size::Tiny)), {
        BenchId::Cholesky.run(Size::Tiny)
    });
}

#[test]
fn deep_suspension_chain() {
    // A right-leaning spawn chain where every sync suspends: child n
    // sleeps until its sibling chain finished.
    fn chain(depth: u32) -> u64 {
        if depth == 0 {
            return 1;
        }
        let (a, b) = join2(
            || {
                // Make the spawned child slow so the continuation reaches
                // the sync first and must suspend.
                std::thread::yield_now();
                chain(depth - 1)
            },
            || 0u64,
        );
        a + b
    }
    let rt = Runtime::new(Config::with_workers(4)).unwrap();
    assert_eq!(rt.run(|| chain(64)), 1);
    // With 4 workers and yields, at least some syncs must have suspended.
    let stats = rt.stats();
    assert_eq!(
        stats.suspensions, stats.sync_resumes,
        "every suspension resumed"
    );
}

#[test]
fn concurrent_external_submitters() {
    // Multiple external threads submit root tasks to one runtime.
    let rt = std::sync::Arc::new(Runtime::with_workers(4).unwrap());
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let rt = rt.clone();
            std::thread::spawn(move || rt.run(move || fib(12) + i))
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        assert_eq!(h.join().unwrap(), 144 + i as u64);
    }
}

#[test]
fn repeated_panics_do_not_poison_runtime() {
    let rt = Runtime::with_workers(3).unwrap();
    for i in 0..10 {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run(|| {
                if i % 2 == 0 {
                    let (_, _) = join2(|| panic!("even round"), || 1);
                    unreachable!()
                } else {
                    fib(10)
                }
            })
        }));
        if i % 2 == 0 {
            assert!(result.is_err());
        } else {
            assert_eq!(result.unwrap(), 55);
        }
    }
}

#[test]
fn region_stress_many_linear_spawns() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let rt = Runtime::with_workers(4).unwrap();
    let total = AtomicU64::new(0);
    rt.run(|| {
        let region = nowa::Region::new();
        let total = &total;
        for i in 0..5_000u64 {
            // SAFETY: the atomic and loop index are Send; region syncs
            // before drop. `move` is load-bearing: a stolen continuation
            // advances `i` concurrently, so the child must capture its
            // value, not a reference into the loop frame.
            unsafe {
                region.spawn(move || {
                    total.fetch_add(i, Ordering::Relaxed);
                })
            };
        }
        region.sync();
    });
    assert_eq!(total.into_inner(), 4999 * 5000 / 2);
}

/// Thief starvation (§6g): one producer strand spawning a long linear run
/// of small children. With linear spawns the owner's deque never holds
/// more than one continuation, so every continuation a thief gets was
/// published by the push that found the public deque empty — nothing asks
/// for it. Steal conservation must survive, and where there is a second
/// CPU to run them the thieves must actually eat, without the producer
/// ever ceding its own.
#[test]
fn thief_starvation_linear_spawns_all_flavors() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let parallel = std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2;
    for flavor in Flavor::ALL {
        let rt = Runtime::new(Config::with_workers(4).flavor(flavor)).unwrap();
        let total = AtomicU64::new(0);
        rt.run(|| {
            let region = nowa::Region::new();
            let total = &total;
            for i in 0..20_000u64 {
                // SAFETY: as in `region_stress_many_linear_spawns` — the
                // child captures `i` by value and the region syncs before
                // drop.
                unsafe {
                    region.spawn(move || {
                        // ~1 µs of leaf, so the run outlasts a thief's wake.
                        for _ in 0..500 {
                            std::hint::black_box(i);
                        }
                        total.fetch_add(i, Ordering::Relaxed);
                    })
                };
            }
            region.sync();
        });
        assert_eq!(total.into_inner(), 19_999 * 20_000 / 2);
        let stats = rt.stats();
        assert_eq!(
            stats.spawns,
            stats.continuations_consumed(),
            "steal conservation violated under starvation, flavor {}",
            flavor.name()
        );
        assert!(
            stats.private_pops <= stats.fast_pops,
            "private pops are a subset of fast pops, flavor {}",
            flavor.name()
        );
        assert!(
            stats.promoted_items <= stats.spawns,
            "cannot promote more than was spawned, flavor {}",
            flavor.name()
        );
        if flavor == Flavor::FIBRIL {
            // The fused baseline has no private segment.
            assert_eq!(stats.promotions, 0, "fused deque cannot promote");
        } else {
            assert!(
                stats.promotions > 0,
                "pushes onto an empty public deque never promoted, flavor {}",
                flavor.name()
            );
        }
        if parallel {
            assert!(
                stats.steals > 0,
                "thieves starved beside a spawn loop, flavor {}",
                flavor.name()
            );
        }
    }
}

/// Seeded fault-injection stress (`--features chaos`): the scheduler is
/// battered with forced steal failures, forced suspensions, spurious
/// yields and injected stack-`mmap` failures, and must still produce
/// bit-identical results. Injection is counter-based, so a seed fully
/// determines the fault sequence.
#[cfg(feature = "chaos")]
mod chaos {
    use nowa::kernels::{BenchId, Size};
    use nowa::runtime::chaos::{ChaosPanic, ChaosSite};
    use nowa::{ChaosConfig, Config, Flavor, Runtime};

    /// A kernel at `Size::Tiny`, except that `integrate` runs at range 10:
    /// at Tiny's 50 it alone takes seconds per run in a debug build. The
    /// test compares it against the serial elision of the same call.
    fn kernel(bench: BenchId) -> f64 {
        match bench {
            BenchId::Integrate => nowa::kernels::integrate::integrate(10.0, 1e-9),
            _ => bench.run(Size::Tiny),
        }
    }

    fn chaos_runtime(flavor: Flavor, chaos: ChaosConfig, workers: usize) -> Runtime {
        let mut config = Config::with_workers(workers)
            .flavor(flavor)
            .stack_size(256 * 1024)
            .chaos(chaos);
        config.stack_cache = 0; // all stacks via the pool: mmap faults bite
        Runtime::new(config).unwrap()
    }

    #[test]
    fn seeded_chaos_preserves_results() {
        let mut injected = [0u64; nowa::runtime::chaos::SITES];
        let mut map_failures = 0;
        for flavor in [Flavor::NOWA, Flavor::FIBRIL] {
            for seed in [3, 7, 8] {
                let rt = chaos_runtime(flavor, ChaosConfig::aggressive(seed), 4);
                // Integer-exact kernels plus one floating kernel whose
                // reduction tree does not depend on the schedule, so every
                // result compares bit-for-bit against the serial run.
                for bench in [
                    BenchId::Fib,
                    BenchId::Nqueens,
                    BenchId::Quicksort,
                    BenchId::Integrate,
                ] {
                    let expected = kernel(bench); // serial elision
                    assert_eq!(
                        rt.run(|| kernel(bench)),
                        expected,
                        "{} diverged under {} seed {seed}",
                        bench.name(),
                        flavor.name()
                    );
                }
                let snap = rt.snapshot();
                let chaos = snap.chaos.unwrap();
                // Each armed map failure is consumed at most once, by the
                // pool's retry loop (one may still be pending at the end).
                assert!(
                    snap.pool.map_failures <= chaos.injected_at(ChaosSite::MmapFail),
                    "{} seed {seed}: {} map failures from {} injected",
                    flavor.name(),
                    snap.pool.map_failures,
                    chaos.injected_at(ChaosSite::MmapFail)
                );
                map_failures += snap.pool.map_failures;
                for (total, fired) in injected.iter_mut().zip(chaos.injected) {
                    *total += fired;
                }
            }
        }
        // Every non-destructive fault kind must actually have fired.
        for site in [
            ChaosSite::StealFail,
            ChaosSite::ForceSuspend,
            ChaosSite::SpuriousYield,
            ChaosSite::MmapFail,
        ] {
            assert!(
                injected[site as usize] > 0,
                "no {site:?} fired across the sweep: {injected:?}"
            );
        }
        // The armed mmap failures really were consumed by the stack pool's
        // retry path, not just counted at the decision site.
        assert!(
            map_failures > 0,
            "no injected stack-map failure reached the pool's retry loop"
        );
    }

    #[test]
    fn same_seed_same_injection_sequence() {
        let run = |seed| {
            let rt = chaos_runtime(Flavor::NOWA, ChaosConfig::aggressive(seed), 1);
            assert_eq!(rt.run(|| fib(12)), 144);
            rt.snapshot().chaos.unwrap()
        };
        // Single worker: the schedule is deterministic, so the replay must
        // visit and fire every site the exact same number of times.
        assert_eq!(run(11), run(11), "same seed, different injections");
        assert_ne!(
            run(11),
            run(12),
            "different seeds produced identical injection sequences (suspicious)"
        );
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = nowa::join2(|| fib(n - 1), || fib(n - 2));
            a + b
        }
    }

    #[test]
    fn starved_thieves_survive_forced_promotions() {
        // The ForcePromote site (armed in `aggressive`) alternates between
        // forcing an extra promotion and arming a promotion failure
        // (put-back path, which leaves the public deque empty until the
        // next push). Both must leave the results bit-identical across
        // replays and conserve continuations.
        for flavor in [Flavor::NOWA, Flavor::NOWA_THE] {
            for replay in 0..2 {
                let mut config = Config::with_workers(4)
                    .flavor(flavor)
                    .stack_size(256 * 1024)
                    .chaos(ChaosConfig::aggressive(0xBEE5));
                config.stack_cache = 0;
                let rt = Runtime::new(config).unwrap();
                assert_eq!(
                    rt.run(|| super::fib(16)),
                    987,
                    "flavor {} replay {replay} diverged",
                    flavor.name()
                );
                let snap = rt.snapshot().chaos.unwrap();
                assert!(
                    snap.injected[ChaosSite::ForcePromote as usize] > 0,
                    "ForcePromote never fired, flavor {} replay {replay}",
                    flavor.name()
                );
                let stats = rt.stats();
                assert_eq!(
                    stats.spawns,
                    stats.continuations_consumed(),
                    "conservation violated under forced promotions, \
                     flavor {} replay {replay}",
                    flavor.name()
                );
            }
        }
    }

    #[test]
    fn injected_child_panics_propagate() {
        for flavor in [Flavor::NOWA, Flavor::FIBRIL] {
            let mut chaos = ChaosConfig::with_seed(9);
            chaos.child_panic = u16::MAX; // every spawned child panics
            let rt = chaos_runtime(flavor, chaos, 2);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rt.run(|| {
                    let (a, b) = nowa::join2(|| 1, || 2);
                    a + b
                })
            }));
            let payload = result.expect_err("injected child panic did not propagate");
            assert!(
                payload.downcast_ref::<ChaosPanic>().is_some(),
                "payload is not the injected ChaosPanic ({})",
                flavor.name()
            );
        }
    }
}

#[test]
fn mixed_kernels_back_to_back() {
    let rt = Runtime::with_workers(4).unwrap();
    for _round in 0..3 {
        for bench in BenchId::ALL {
            let expected = bench.run(Size::Tiny);
            assert_eq!(
                rt.run(|| bench.run(Size::Tiny)),
                expected,
                "{}",
                bench.name()
            );
        }
    }
}
