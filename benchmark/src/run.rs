//! One workload run from start to result: the untraced run that yields the
//! end-to-end numbers, and the traced run that records spans, differences
//! the runtime's counters per rep and runs the layer probes.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use nowa_runtime::{Flavor, Runtime, SplitConfig};
use nowa_trace::json::Json;

use crate::counters::{put_counters, Delta};
use crate::fj::{self, FjCoarse, FjLoop, FjSpawn, Mode, Pass, Workload};
use crate::probes;
use crate::report::{MetricSet, WorkloadResult};
use crate::serve;
use crate::span::Recorder;
use crate::stats;
use crate::sys;

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
}

/// Verified operations so far and how many were wrong.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    fn add(&mut self, pass: &Pass) {
        self.attempted += pass.checks;
        self.failed += pass.failed;
    }
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Timed reps per configuration: never fewer, whatever `--seconds` says.
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 25;

/// Directory for trace and result files, inside the benchmark's own tree.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The reps of one configuration.
#[derive(Default)]
struct Block {
    walls: Vec<f64>,
    kernels: BTreeMap<&'static str, Vec<f64>>,
    deltas: Vec<Delta>,
}

impl Block {
    fn push(&mut self, pass: Pass) {
        self.walls.push(pass.wall_s);
        for (name, secs) in pass.kernels {
            self.kernels.entry(name).or_default().push(secs);
        }
        self.deltas.extend(pass.delta);
    }
}

fn block<W: Workload>(
    wl: &W,
    rt: Option<&Runtime>,
    mode: Mode,
    reps: usize,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Block {
    let mut b = Block::default();
    for i in 0..reps {
        let pass = fj::run_pass(wl, rt, rec, &format!("{}.rep[{i}]", mode.label()));
        tally.add(&pass);
        b.push(pass);
    }
    b
}

fn fj_untraced<W: Workload>(
    opts: &Opts,
    rec: &mut Recorder,
    out: &mut MetricSet,
    tally: &mut Tally,
) {
    let p = sys::nproc();
    // Set up several times; the last set-up's inputs are the ones measured.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<(W, Runtime, f64)> = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take()); // the previous runtime shuts down before the next starts
        let (wl, rt, warm, secs) = fj::set_up::<W>(opts.seed, p, rec);
        tally.add(&warm);
        setups.push(secs);
        kept = Some((wl, rt, warm.wall_s));
    }
    let (wl, rt, tp_estimate) = kept.expect("SETUP_REPS > 0");
    drop(rt);

    let serial_warm = fj::run_pass(&wl, None, rec, "serial.warmup");
    tally.add(&serial_warm);
    let t1_warm = fj::run_pass(&wl, Some(&fj::runtime(1)), rec, "t1.warmup");
    tally.add(&t1_warm);
    let round = serial_warm.wall_s + t1_warm.wall_s + tp_estimate;
    let reps = ((opts.seconds as f64 / round) as usize).clamp(MIN_REPS, MAX_REPS);

    // The host's speed drifts over tens of seconds, so the three
    // configurations take turns: each one's reps span the whole run and a
    // round's serial and one-worker passes see the same machine. Only one
    // runtime is alive at a time (a parked pool still wakes every
    // `max_park` and would tax whatever is being timed), so each round
    // starts its runtimes afresh; start-up and shutdown are not timed.
    let (mut serial, mut t1, mut tp) = (Block::default(), Block::default(), Block::default());
    for i in 0..reps {
        for (mode, block, workers) in [
            (Mode::Serial, &mut serial, None),
            (Mode::P1, &mut t1, Some(1)),
            (Mode::Pn, &mut tp, Some(p)),
        ] {
            let rt = workers.map(fj::runtime);
            let pass = fj::run_pass(&wl, rt.as_ref(), rec, &format!("{}.rep[{i}]", mode.label()));
            tally.add(&pass);
            block.push(pass);
        }
    }

    out.put_samples("setup_s", &setups);
    put_pass_times(out, &serial.walls, &t1.walls, &tp.walls);
}

/// Reports the three configurations' pass times and the two ratios taken
/// round by round (`serial[i]`, `t1[i]` and `tp[i]` ran back to back).
pub fn put_pass_times(out: &mut MetricSet, serial: &[f64], t1: &[f64], tp: &[f64]) {
    let ratio = |num: &[f64], den: &[f64]| -> Vec<f64> {
        num.iter().zip(den).map(|(n, d)| n / d).collect()
    };
    out.put_samples("overhead_ratio", &ratio(t1, serial));
    out.put_samples("speedup_ratio", &ratio(serial, tp));
    out.put_samples("serial_s", serial);
    out.put_samples("t1_s", t1);
    out.put_samples("tp_s", tp);
}

/// What the traced fork/join run hands to the workload-specific extras.
struct TracedFj {
    serial_s: f64,
    t1_s: f64,
    spawns_p1: f64,
}

const TRACED_ROUNDS: usize = 3;
const TRACED_REPS: usize = 2;

fn fj_traced<W: Workload>(
    opts: &Opts,
    rec: &mut Recorder,
    out: &mut MetricSet,
    tally: &mut Tally,
) -> TracedFj {
    let p = sys::nproc();
    let (wl, rtp, warm, _) = fj::set_up::<W>(opts.seed, p, rec);
    tally.add(&warm);

    // Tracing overhead: the same pass with span recording off and on,
    // alternating, on the configuration users run.
    let mut quiet = Recorder::new(false);
    let (mut tp_off, mut tp_on) = (Block::default(), Block::default());
    for i in 0..TRACED_ROUNDS {
        let off = fj::run_pass(&wl, Some(&rtp), &mut quiet, "tp.untraced");
        tally.add(&off);
        tp_off.push(off);
        let on = fj::run_pass(&wl, Some(&rtp), rec, &format!("tp.rep[{i}]"));
        tally.add(&on);
        tp_on.push(on);
    }
    rec.span("shutdown", |_| drop(rtp));

    let serial = block(&wl, None, Mode::Serial, TRACED_REPS, rec, tally);
    let rt1 = fj::runtime(1);
    tally.add(&fj::run_pass(&wl, Some(&rt1), rec, "t1.warmup"));
    let t1 = block(&wl, Some(&rt1), Mode::P1, TRACED_REPS, rec, tally);
    drop(rt1);

    let mut deltas = tp_off.deltas.clone();
    deltas.extend(&tp_on.deltas);
    put_counters(out, &deltas);
    out.put_value(
        "sched.steals_p1",
        t1.deltas.iter().map(|d| d.steals).sum::<u64>() as f64,
    );
    out.put_value(
        "bench.trace_overhead_ratio",
        stats::median(&tp_on.walls) / stats::median(&tp_off.walls),
    );
    let mut tp_kernels = tp_off.kernels;
    for (name, secs) in tp_on.kernels {
        tp_kernels.entry(name).or_default().extend(secs);
    }
    for (mode, kernels) in [
        (Mode::Serial, &serial.kernels),
        (Mode::P1, &t1.kernels),
        (Mode::Pn, &tp_kernels),
    ] {
        for (name, secs) in kernels {
            out.put_samples(&format!("kernel.{name}_{}_s", mode.label()), secs);
        }
    }
    TracedFj {
        serial_s: stats::median(&serial.walls),
        t1_s: stats::median(&t1.walls),
        spawns_p1: stats::median(
            &t1.deltas
                .iter()
                .map(|d| d.spawns as f64)
                .collect::<Vec<_>>(),
        ),
    }
}

/// `fj-loop`'s `tp_s` under the paper's other axes. Reported as found.
fn flavor_loop_tp(opts: &Opts, rec: &mut Recorder, out: &mut MetricSet, tally: &mut Tally) {
    let wl = FjLoop::inputs(opts.seed);
    let base = nowa_runtime::Config::with_workers(sys::nproc());
    for (name, config) in [
        ("the", base.clone().flavor(Flavor::NOWA_THE)),
        ("fibril", base.clone().flavor(Flavor::FIBRIL)),
        ("nosplit", base.clone().split(SplitConfig::disabled())),
    ] {
        let rt = Runtime::new(config).expect("runtime start-up");
        tally.add(&fj::run_pass(
            &wl,
            Some(&rt),
            rec,
            &format!("flavor.{name}.warmup"),
        ));
        let mut walls = Vec::new();
        for i in 0..3 {
            let pass = fj::run_pass(&wl, Some(&rt), rec, &format!("flavor.{name}.rep[{i}]"));
            tally.add(&pass);
            walls.push(pass.wall_s);
        }
        out.put_samples(&format!("flavor.{name}_loop_tp_s"), &walls);
    }
}

fn write_trace(opts: &Opts, rec: &Recorder, result: &WorkloadResult) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", opts.workload));
    let mut doc = BTreeMap::new();
    doc.insert("result".to_owned(), result.to_json());
    doc.insert("spans".to_owned(), rec.to_json());
    std::fs::write(&path, Json::Obj(doc).render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Runs one workload and returns its result; a traced run also writes
/// `out/trace-<workload>.json`.
pub fn run(opts: &Opts) -> Result<WorkloadResult, String> {
    let started = Instant::now();
    let loadavg_before = sys::loadavg_1m();
    let ticks_before = sys::machine_ticks();
    let mut rec = Recorder::new(opts.traced);
    let mut out = MetricSet::default();
    let mut tally = Tally::default();
    let nproc = sys::nproc();
    let p_serve = serve::workers();

    match (opts.workload.as_str(), opts.traced) {
        ("fj-spawn", false) => fj_untraced::<FjSpawn>(opts, &mut rec, &mut out, &mut tally),
        ("fj-coarse", false) => fj_untraced::<FjCoarse>(opts, &mut rec, &mut out, &mut tally),
        ("fj-loop", false) => fj_untraced::<FjLoop>(opts, &mut rec, &mut out, &mut tally),
        ("serve", false) => serve::untraced(opts, &mut rec, &mut out, &mut tally),
        (name, true) => {
            let fj = match name {
                "fj-spawn" => Some(fj_traced::<FjSpawn>(opts, &mut rec, &mut out, &mut tally)),
                "fj-coarse" => Some(fj_traced::<FjCoarse>(opts, &mut rec, &mut out, &mut tally)),
                "fj-loop" => Some(fj_traced::<FjLoop>(opts, &mut rec, &mut out, &mut tally)),
                "serve" => {
                    serve::traced(opts, &mut rec, &mut out, &mut tally);
                    None
                }
                other => return Err(format!("unknown workload `{other}`")),
            };
            if name == "fj-loop" {
                flavor_loop_tp(opts, &mut rec, &mut out, &mut tally);
            }
            rec.span("probes", |_| probes::run_all(&mut out));
            if let (true, Some(fj)) = (name == "fj-spawn", fj) {
                // If the probe is right, spawns × one join2 round trip is
                // the whole gap between one worker and the serial elision.
                let join2_s = out.value("spawn.join2_ns").expect("probed above") * 1e-9;
                out.put_value(
                    "spawn.explained_ratio",
                    fj.spawns_p1 * join2_s / (fj.t1_s - fj.serial_s),
                );
            }
        }
        (other, false) => return Err(format!("unknown workload `{other}`")),
    }
    for m in &out.0 {
        let only = crate::metrics::find(&m.name).expect("checked on put").only;
        assert!(
            only.is_empty() || only.contains(&opts.workload.as_str()),
            "{} reported {}, which the catalogue gives to {only:?}",
            opts.workload,
            m.name
        );
    }
    if !opts.traced {
        out.put_value("peak_rss_mib", sys::peak_rss_mib());
    }

    let mut result = WorkloadResult {
        workload: opts.workload.clone(),
        traced: opts.traced,
        seed: opts.seed,
        seconds: opts.seconds,
        attempted: tally.attempted,
        failed: tally.failed,
        nproc,
        p: nproc,
        p_serve,
        connections: nproc,
        git_commit: sys::git_commit(),
        rustc: sys::rustc_version(),
        loadavg_before,
        loadavg_after: sys::loadavg_1m(),
        steal_ratio: sys::steal_ratio(ticks_before, sys::machine_ticks()),
        wall_s: started.elapsed().as_secs_f64(),
        metrics: out,
    };
    if !opts.traced {
        let ratio = result.fail_ratio();
        result.metrics.put_value("fail_ratio", ratio);
    }
    if result.steal_ratio > 0.05 {
        eprintln!(
            "warning: the hypervisor gave {:.0} % of this run's CPU time to other guests; \
             the numbers measure the host's contention as much as the program",
            result.steal_ratio * 100.0
        );
    }
    if opts.traced {
        let path = write_trace(opts, &rec, &result)?;
        eprintln!("trace written to {}", path.display());
    }
    Ok(result)
}
