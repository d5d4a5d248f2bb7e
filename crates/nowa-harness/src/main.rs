//! `nowa-bench` — CLI entry of the experiment harness.

use nowa_harness::{print_tables, profileexp, real, simexp};
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
  measured [--size S] [--workers N] [--reps R]  real wall-clock comparison
                                 and aggregated scheduler counters
  overhead [--size S] [--reps R]  real 1-worker overhead vs serial elision
                                 and aggregated scheduler counters
  ablation-pool [--size S] [--workers N] [--reps R]  stack-pool ablation (real)
  knapsack-order [--workers N] [--reps R]  spawn-order experiment (real)
  profile <kernel> [--size S] [--workers N] [--out FILE] [--trace-out FILE]
                                 traced run of one kernel: causal profile
                                 (DAG reconstruction, work T1 / span T∞ /
                                 parallelism, steal edges, critical-path
                                 attribution) and trace summary (event
                                 counts, latency histograms); writes
                                 BENCH_profile.json
  all    [--quick]               everything

flags:
  --quick        reduced sweeps/scales
  --bench B      one of the 12 benchmark names
  --size S       tiny|quick|medium|paper (default quick)
  --workers N    worker threads for real runs (default 4)
  --reps R       repetitions for real runs (default 5)
  --trace-out F  write a Chrome trace_event JSON (one track per worker) to F;
                 open in Perfetto or chrome://tracing (profile mode only)
  --out F        artifact path for profile mode (default BENCH_profile.json)"
    );
    std::process::exit(2);
}

struct Args {
    quick: bool,
    bench: Option<String>,
    size: Size,
    workers: usize,
    reps: usize,
    trace_out: Option<String>,
    out: Option<String>,
}

fn parse_flags(rest: &[String]) -> Args {
    let mut args = Args {
        quick: false,
        bench: None,
        size: Size::Quick,
        workers: 4,
        reps: 5,
        trace_out: None,
        out: None,
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

    // `profile` takes a kernel name before the flags.
    if cmd == "profile" {
        let Some(kernel) = rest.first() else { usage() };
        let args = parse_flags(&rest[1..]);
        print!(
            "{}",
            profileexp::profile(
                kernel,
                args.size,
                args.workers,
                args.out.as_deref().unwrap_or("BENCH_profile.json"),
                args.trace_out.as_deref(),
            )
        );
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
        )),
        "overhead" => print_tables(&real::overhead_table(args.size, args.reps)),
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
            print_tables(&real::overhead_table(args.size, args.reps.min(3)));
            print_tables(&real::measured_comparison(
                args.size,
                args.workers,
                args.reps.min(3),
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
