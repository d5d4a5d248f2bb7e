//! The benchmark: one command, four workloads, end-to-end and per-layer
//! numbers. See `README.md` beside this package.
//!
//! ```text
//! benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--out F]
//! benchmark compare A.json B.json
//! benchmark selfcheck [--seed N] [--seconds S]
//! benchmark manifest
//! ```
//!
//! `run --workload W` measures in this process and ends its standard
//! output with one line of JSON. Without `--workload` every workload runs
//! in a child process of its own (peak memory is per workload).

mod compare;
mod counters;
mod fj;
mod metrics;
mod probes;
mod report;
mod rng;
mod run;
mod serve;
mod span;
mod stats;
mod sys;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use report::WorkloadResult;
use run::Opts;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: Option<PathBuf>,
    files: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS,
        traced: false,
        out: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if metrics::workload(&w).is_none() {
                    let known: Vec<_> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload `{w}` (known: {})",
                        known.join(", ")
                    ));
                }
                parsed.workload = Some(w);
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: u64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be between 1 and 60".to_owned());
                }
                parsed.seconds = s;
            }
            "--trace" => {
                parsed.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--traced" => parsed.traced = true,
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            file => parsed.files.push(file.to_owned()),
        }
    }
    Ok(parsed)
}

/// Runs one workload in this process; prints its table and, last, the
/// one-line summary. Fails when any output was wrong.
fn run_here(args: &Args, workload: &str) -> Result<(), String> {
    let result = run::run(&Opts {
        workload: workload.to_owned(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
    })?;
    if let Some(path) = &args.out {
        report::write_file(path, std::slice::from_ref(&result))?;
    }
    print!("{}", result.table());
    println!("{}", result.summary_line());
    if result.failed > 0 {
        return Err(format!(
            "{workload}: {} of {} verified operations were wrong",
            result.failed, result.attempted
        ));
    }
    Ok(())
}

/// Runs every workload, each in a fresh child process, and gathers the
/// results into one file.
fn run_all(args: &Args, out: &Path) -> Result<Vec<WorkloadResult>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let dir = run::out_dir();
    let mut results = Vec::new();
    let mut failures = Vec::new();
    for w in &metrics::WORKLOADS {
        let part = dir.join(format!("part-{}.json", w.name));
        // The child's table goes to our standard output; its summary line
        // is one of several here, so only single-workload runs end with it.
        let status = Command::new(&exe)
            .args(["run", "--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&part)
            .status()
            .map_err(|e| format!("starting {}: {e}", exe.display()))?;
        if !status.success() {
            failures.push(format!("{} exited with {status}", w.name));
        }
        match report::read_file(&part.to_string_lossy()) {
            Ok(mut r) => results.append(&mut r),
            Err(e) => failures.push(e),
        }
        let _ = std::fs::remove_file(&part);
    }
    report::write_file(out, &results)?;
    eprintln!("results written to {}", out.display());
    if failures.is_empty() {
        Ok(results)
    } else {
        Err(failures.join("; "))
    }
}

fn selfcheck(args: &Args) -> Result<(), String> {
    let dir = run::out_dir();
    let mut sets = Vec::new();
    for (i, label) in ["a", "b"].iter().enumerate() {
        let pass = Args {
            workload: None,
            seed: args.seed + i as u64,
            seconds: args.seconds,
            traced: false,
            out: None,
            files: Vec::new(),
        };
        sets.push(run_all(
            &pass,
            &dir.join(format!("selfcheck-{label}.json")),
        )?);
    }
    let report = compare::compare(&sets[0], &sets[1]);
    print!("{}", report.text);
    if report.regressed > 0 {
        return Err(format!(
            "selfcheck: {} metric(s) differ between two runs of one commit by more than their bound",
            report.regressed
        ));
    }
    Ok(())
}

fn dispatch(argv: &[String]) -> Result<(), String> {
    let usage = "usage: benchmark run|compare|selfcheck|manifest (see benchmark/README.md)";
    let (cmd, rest) = argv.split_first().ok_or(usage)?;
    let args = parse(rest)?;
    match cmd.as_str() {
        "run" => match &args.workload {
            Some(w) => run_here(&args, w),
            None => {
                let name = if args.traced {
                    "result-traced.json"
                } else {
                    "result.json"
                };
                let out = args
                    .out
                    .clone()
                    .unwrap_or_else(|| run::out_dir().join(name));
                run_all(&args, &out).map(|_| ())
            }
        },
        "compare" => {
            let [a, b] = args.files.as_slice() else {
                return Err("compare takes two result files".to_owned());
            };
            let report = compare::compare(&report::read_file(a)?, &report::read_file(b)?);
            print!("{}", report.text);
            if report.regressed > 0 {
                return Err(format!("{} metric(s) regressed", report.regressed));
            }
            Ok(())
        }
        "selfcheck" => selfcheck(&args),
        "manifest" => {
            print!("{}", metrics::manifest_text());
            Ok(())
        }
        _ => Err(usage.to_owned()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
