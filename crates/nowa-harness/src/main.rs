//! `nowa-bench` — CLI entry of the experiment harness.

use nowa_harness::{print_tables, profileexp, real, simexp, traceexp};
use nowa_kernels::{BenchId, Size};
use nowa_runtime::MadvisePolicy;
use nowa_sim::SimBench;

fn usage() -> ! {
    eprintln!(
        "usage: nowa-bench <experiment> [flags]

experiments:
  table1                         Table I   benchmark inventory
  fig1   [--quick]               Fig 1     nqueens headline comparison (sim)
  fig7   [--quick] [--bench B]   Fig 7     speedup curves, all benchmarks (sim)
  fig8   [--quick]               Fig 8     madvise() impact (sim)
  table2 [--size S] [--workers N] Table II peak RSS wrt madvise (real)
  fig9   [--quick]               Fig 9     CL vs THE work-stealing queue (sim)
  fig10  [--quick]               Fig 10    Nowa vs OpenMP stand-ins (sim)
  table3 [--quick]               Table III 256-worker execution times (sim)
  measured [--size S] [--workers N] [--reps R] [--stats]  real wall-clock comparison
  overhead [--size S] [--reps R] [--stats]  real 1-worker overhead vs serial elision
  ablation-pool [--size S] [--workers N] [--reps R]  stack-pool ablation (real)
  knapsack-order [--workers N] [--reps R]  spawn-order experiment (real)
  trace <experiment> [--size S] [--workers N] [--reps R] [--trace-out FILE]
                                 traced re-run of measured | ablation-pool |
                                 knapsack-order | fig9 with scheduler event
                                 rings + latency histograms enabled
  profile <kernel> [--size S] [--workers N] [--out FILE]
                                 causal profile of one kernel run: DAG
                                 reconstruction, work T1 / span T∞ /
                                 parallelism, steal edges, critical-path
                                 attribution; writes BENCH_profile.json
  chaos  [--seed N] [--iters K] [--workers N]
                                 seeded fault-injection stress over the real
                                 kernels (requires the `chaos` cargo feature)
  cancel-soak [--seed N] [--iters K] [--workers N]
                                 forced cancellations at steal/sync/suspend
                                 boundaries over K seeds; every run must
                                 complete or unwind with a typed Cancelled
                                 payload and shut down cleanly (requires the
                                 `chaos` cargo feature)
  all    [--quick]               everything

flags:
  --quick        reduced sweeps/scales
  --bench B      one of the 12 benchmark names
  --size S       tiny|quick|medium|paper (default quick)
  --workers N    worker threads for real runs (default 4)
  --reps R       repetitions for real runs (default 5)
  --stats        also print aggregated scheduler statistics (measured, overhead)
  --trace-out F  write a Chrome trace_event JSON (one track per worker) to F;
                 open in Perfetto or chrome://tracing (trace mode only)
  --out F        artifact path for profile mode (default BENCH_profile.json)
  --seed N       chaos injection seed (default 1; chaos mode only)
  --iters K      chaos iterations per flavor (default 3; chaos mode only)"
    );
    std::process::exit(2);
}

struct Args {
    quick: bool,
    bench: Option<String>,
    size: Size,
    workers: usize,
    reps: usize,
    stats: bool,
    trace_out: Option<String>,
    out: Option<String>,
    seed: u64,
    iters: Option<usize>,
}

fn parse_flags(rest: &[String]) -> Args {
    let mut args = Args {
        quick: false,
        bench: None,
        size: Size::Quick,
        workers: 4,
        reps: 5,
        stats: false,
        trace_out: None,
        out: None,
        seed: 1,
        iters: None,
    };
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--quick" => args.quick = true,
            "--bench" => {
                i += 1;
                args.bench = rest.get(i).cloned();
            }
            "--size" => {
                i += 1;
                args.size = rest
                    .get(i)
                    .and_then(|s| Size::parse(s))
                    .unwrap_or_else(|| usage());
            }
            "--workers" => {
                i += 1;
                args.workers = rest
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--reps" => {
                i += 1;
                args.reps = rest
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--stats" => args.stats = true,
            "--seed" => {
                i += 1;
                args.seed = rest
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--iters" => {
                i += 1;
                args.iters = Some(
                    rest.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--trace-out" => {
                i += 1;
                args.trace_out = Some(rest.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--out" => {
                i += 1;
                args.out = Some(rest.get(i).cloned().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }
    args
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    let rest = &argv[1..];

    // Internal child-process mode for Table II (fresh address space).
    if cmd == "rss-probe" {
        let bench = rest
            .first()
            .and_then(|s| BenchId::parse(s))
            .unwrap_or_else(|| usage());
        let policy = rest
            .get(1)
            .and_then(|s| MadvisePolicy::parse(s))
            .unwrap_or_else(|| usage());
        let size = rest
            .get(2)
            .and_then(|s| Size::parse(s))
            .unwrap_or(Size::Quick);
        let workers = rest.get(3).and_then(|s| s.parse().ok()).unwrap_or(4);
        println!("{}", real::rss_probe(bench, policy, size, workers));
        return;
    }

    // `trace` takes a sub-experiment name before the flags.
    if cmd == "trace" {
        let Some(sub) = rest.first() else { usage() };
        let args = parse_flags(&rest[1..]);
        print_tables(&traceexp::trace_experiment(
            sub,
            args.size,
            args.workers,
            args.reps,
            args.trace_out.as_deref(),
        ));
        return;
    }

    // `profile` takes a kernel name before the flags.
    if cmd == "profile" {
        let Some(kernel) = rest.first() else { usage() };
        let args = parse_flags(&rest[1..]);
        print_tables(&profileexp::profile(
            kernel,
            args.size,
            args.workers,
            args.out.as_deref().unwrap_or("BENCH_profile.json"),
        ));
        return;
    }

    let args = parse_flags(rest);
    let sim_bench = args.bench.as_deref().map(|name| {
        SimBench::parse(name).unwrap_or_else(|| {
            eprintln!("unknown benchmark {name}");
            std::process::exit(2);
        })
    });

    match cmd.as_str() {
        #[cfg(feature = "chaos")]
        "chaos" => print_tables(&nowa_harness::chaosexp::chaos_stress(
            args.seed,
            args.iters.unwrap_or(3),
            args.workers,
        )),
        #[cfg(feature = "chaos")]
        "cancel-soak" => print_tables(&nowa_harness::chaosexp::cancel_soak(
            args.seed,
            args.iters.unwrap_or(8),
            args.workers,
        )),
        #[cfg(not(feature = "chaos"))]
        "chaos" | "cancel-soak" => {
            eprintln!(
                "nowa-bench: the {cmd} mode needs the `chaos` cargo feature:\n  \
                 cargo run -p nowa-harness --features chaos --bin nowa-bench -- \
                 {cmd} --seed {} --iters {}",
                args.seed,
                args.iters.unwrap_or(3)
            );
            std::process::exit(2);
        }
        "table1" => print_tables(&real::table1()),
        "fig1" => print_tables(&simexp::fig1(args.quick)),
        "fig7" => print_tables(&simexp::fig7(sim_bench, args.quick)),
        "fig8" => print_tables(&simexp::fig8(args.quick)),
        "table2" => print_tables(&real::table2(args.size, args.workers)),
        "fig9" => print_tables(&simexp::fig9(args.quick)),
        "fig10" => print_tables(&simexp::fig10(args.quick)),
        "table3" => print_tables(&simexp::table3(args.quick)),
        "measured" => print_tables(&real::measured_comparison(
            args.size,
            args.workers,
            args.reps,
            args.stats,
        )),
        "overhead" => print_tables(&real::overhead_table(args.size, args.reps, args.stats)),
        "ablation-pool" => print_tables(&real::pool_ablation(args.size, args.workers, args.reps)),
        "knapsack-order" => print_tables(&real::knapsack_order(args.workers, args.reps)),
        "all" => {
            print_tables(&real::table1());
            print_tables(&simexp::fig1(args.quick));
            print_tables(&simexp::fig7(None, args.quick));
            print_tables(&simexp::fig8(args.quick));
            print_tables(&real::table2(args.size, args.workers));
            print_tables(&simexp::fig9(args.quick));
            print_tables(&simexp::fig10(args.quick));
            print_tables(&simexp::table3(args.quick));
            print_tables(&real::overhead_table(
                args.size,
                args.reps.min(3),
                args.stats,
            ));
            print_tables(&real::measured_comparison(
                args.size,
                args.workers,
                args.reps.min(3),
                args.stats,
            ));
            print_tables(&real::pool_ablation(
                args.size,
                args.workers,
                args.reps.min(3),
            ));
            print_tables(&real::knapsack_order(args.workers, args.reps.min(3)));
        }
        _ => usage(),
    }
}
