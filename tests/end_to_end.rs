//! Workspace-level integration: the facade crate, all runtime flavors,
//! all baseline pools and the simulator, exercised together.

use nowa::baselines::{BaselineKind, BaselinePool};
use nowa::kernels::{BenchId, Size};
use nowa::sim::{bench_dags, simulate, SimBench, SimConfig, SimFlavor};
use nowa::{join2, Config, Flavor, Runtime};

#[test]
fn facade_quickstart_compiles_and_runs() {
    fn fib(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = join2(|| fib(n - 1), || fib(n - 2));
        a + b
    }
    let rt = Runtime::new(Config::with_workers(2)).unwrap();
    assert_eq!(rt.run(|| fib(20)), 6765);
}

#[test]
fn kernels_agree_across_all_real_runtimes() {
    // Every kernel at Size::Tiny, except that `integrate` runs directly at
    // range 10: at Tiny's 50 it alone takes tens of seconds per baseline
    // pool. Serial elision of the same call is the oracle.
    let kernel = |bench: BenchId| match bench {
        BenchId::Integrate => nowa::kernels::integrate::integrate(10.0, 1e-9),
        _ => bench.run(Size::Tiny),
    };
    let expected: Vec<(BenchId, f64)> = BenchId::ALL.iter().map(|&b| (b, kernel(b))).collect();

    for flavor in Flavor::ALL {
        let rt = Runtime::new(Config::with_workers(3).flavor(flavor)).unwrap();
        for (bench, want) in &expected {
            let got = rt.run(|| kernel(*bench));
            assert_eq!(got, *want, "{} under {}", bench.name(), flavor.name());
        }
    }
    for kind in BaselineKind::ALL {
        let pool = BaselinePool::new(kind, 3);
        for (bench, want) in &expected {
            let got = pool.run(|| kernel(*bench));
            assert_eq!(got, *want, "{} under {}", bench.name(), kind.name());
        }
    }
}

#[test]
fn continuation_conservation_holds_on_every_flavor() {
    // Every spawned continuation is consumed exactly once — popped back by
    // its spawner (fast path), stolen, or taken locally by the work-finding
    // loop. The counters must balance on every protocol × deque flavor.
    fn fib(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = join2(|| fib(n - 1), || fib(n - 2));
        a + b
    }
    for flavor in Flavor::ALL {
        let rt = Runtime::new(Config::with_workers(4).flavor(flavor)).unwrap();
        assert_eq!(rt.run(|| fib(20)), 6765, "under {}", flavor.name());
        let stats = rt.stats();
        assert!(stats.spawns > 0, "under {}", flavor.name());
        assert_eq!(
            stats.spawns,
            stats.continuations_consumed(),
            "conservation violated under {}: spawns {} vs fast {} + steals {} + own {}",
            flavor.name(),
            stats.spawns,
            stats.fast_pops,
            stats.steals,
            stats.own_takes,
        );
        assert_eq!(
            stats.steal_attempts(),
            stats.steals + stats.steal_empty + stats.steal_retry,
            "under {}",
            flavor.name()
        );
    }
}

#[test]
fn simulator_reproduces_headline_orderings() {
    // Fine-grained DAG at 256 workers with the figure-scale input:
    // wait-free beats locks beats the child-stealing and central-queue
    // baselines (Fig. 1 / Fig. 10 order at 256 threads).
    let dag = bench_dags::generate(SimBench::Fib, SimBench::Fib.default_scale());
    let speedup = |flavor: SimFlavor| simulate(&dag, SimConfig::new(flavor, 256)).speedup();
    let nowa = speedup(SimFlavor::NowaCl);
    let fibril = speedup(SimFlavor::FibrilLock);
    let tbb = speedup(SimFlavor::ChildStealTbb);
    let gomp = speedup(SimFlavor::GlobalQueueGomp);
    assert!(nowa > 1.3 * fibril, "nowa {nowa} vs fibril {fibril}");
    assert!(fibril > tbb, "fibril {fibril} vs tbb {tbb}");
    assert!(tbb > 3.0 * gomp, "tbb {tbb} vs gomp {gomp}");
}

#[test]
fn fig9_ordering_cl_at_least_the() {
    // §V-C: the CL queue unlocks performance the THE queue cannot.
    let dag = bench_dags::generate(SimBench::Fib, SimBench::Fib.quick_scale());
    let cl = simulate(&dag, SimConfig::new(SimFlavor::NowaCl, 256)).speedup();
    let the = simulate(&dag, SimConfig::new(SimFlavor::NowaThe, 256)).speedup();
    assert!(cl >= the, "cl {cl} vs the {the}");
}

#[test]
fn runtime_and_baseline_coexist() {
    // A Nowa runtime and a baseline pool in the same process, used from
    // the same (external) thread, must not interfere.
    let rt = Runtime::with_workers(2).unwrap();
    let pool = BaselinePool::new(BaselineKind::ChildStealTbb, 2);
    for _ in 0..10 {
        let a = rt.run(|| BenchId::Fib.run(Size::Tiny));
        let b = pool.run(|| BenchId::Fib.run(Size::Tiny));
        assert_eq!(a, b);
    }
}

#[test]
fn many_runtime_lifecycles_do_not_leak_stacks() {
    // Create/destroy runtimes repeatedly; each must shut down cleanly.
    for round in 0..15 {
        let rt = Runtime::new(Config::with_workers(3)).unwrap();
        let v = rt.run(|| nowa::map_reduce(0..100, 4, &|i| i as u64, &|a, b| a + b).unwrap_or(0));
        assert_eq!(v, 4950, "round {round}");
        drop(rt);
    }
}

#[test]
fn pool_stats_reflect_recirculation() {
    let rt = Runtime::new(Config::with_workers(4)).unwrap();
    let _ = rt.run(|| BenchId::Nqueens.run(Size::Tiny));
    let (gets, puts, maps) = rt.pool_stats();
    // Stacks must be recycled: far fewer maps than gets+hits overall.
    assert!(maps > 0, "at least the initial stacks are mapped");
    let _ = (gets, puts);
}

/// The default per-worker stack cache holds a deep recursion's working
/// set: once warm, `fib(25)` on one worker takes at most one stack from
/// the locked global pool per 200 spawns. (A cache of 8 took 2 578 of
/// 121 392, 2.1 %; the default of 16 takes 49.)
#[test]
fn default_stack_cache_keeps_the_recursion_off_the_pool() {
    use nowa::kernels::fib::fib;

    let rt = Runtime::new(Config::with_workers(1)).unwrap();
    assert_eq!(rt.run(|| fib(20, 0)), 6765);
    let (gets_before, _, _) = rt.pool_stats();
    let spawns_before = rt.stats().spawns;
    assert_eq!(rt.run(|| fib(25, 0)), 75025);
    let gets = rt.pool_stats().0 - gets_before;
    let spawns = rt.stats().spawns - spawns_before;
    assert!(spawns > 100_000, "fib(25) offered only {spawns} spawns");
    assert!(
        gets * 200 <= spawns,
        "{gets} pool gets in {spawns} spawns: the stack cache spills"
    );
}
