//! # nowa-harness — experiment drivers
//!
//! Regenerates every table and figure of the paper's evaluation (§V).
//! The per-experiment index lives in DESIGN.md; results are recorded in
//! EXPERIMENTS.md. Run via the `nowa-bench` binary:
//!
//! ```text
//! nowa-bench table1            # Table I   — benchmark inventory
//! nowa-bench fig1  [--quick]   # Fig 1     — headline nqueens comparison (sim)
//! nowa-bench fig7  [--quick] [--bench fib]   # Fig 7 — all 12 speedup curves (sim)
//! nowa-bench fig8  [--quick]   # Fig 8     — madvise impact (sim)
//! nowa-bench table2 [--size quick]           # Table II — peak RSS (real)
//! nowa-bench fig9  [--quick]   # Fig 9     — CL vs THE queue (sim)
//! nowa-bench fig10 [--quick]   # Fig 10    — Nowa vs OpenMP stand-ins (sim)
//! nowa-bench table3 [--quick]  # Table III — 256-worker exec times (sim)
//! nowa-bench measured [--size quick] [--workers N] [--reps R]  # real wall-clock
//! nowa-bench overhead [--size quick]   # real 1-worker overhead
//! nowa-bench profile fib [--size quick] [--out BENCH_profile.json] [--trace-out t.json]
//! nowa-bench all   [--quick]   # everything above but profile
//! ```
//!
//! `measured` and `overhead` follow their timing table with the
//! aggregated scheduler counters ([`nowa_runtime::StatsSnapshot`]) of
//! each Nowa system. `profile` ([`profileexp`]) is the one traced run:
//! it reconstructs the fork/join DAG from causal trace events and reports
//! work T1, span T∞, parallelism, steal-edge statistics, and per-phase
//! critical-path attribution, then the trace summary (event counts,
//! latency histograms); it writes `BENCH_profile.json` in the versioned
//! [`artifact`] envelope, and `--trace-out FILE` exports a Chrome
//! `trace_event` JSON for Perfetto.
//!
//! Performance numbers (spawn cost, wake latency, serving latency, tracing
//! cost) are not measured here: the one ruler is the standalone
//! `benchmark/` package (see its README).

#![warn(missing_docs)]

pub mod artifact;
pub mod profileexp;
pub mod real;
pub mod simexp;
pub mod stats;

pub use stats::Table;

/// Prints a batch of tables to stdout.
pub fn print_tables(tables: &[Table]) {
    for t in tables {
        println!("{}", t.render());
    }
}
