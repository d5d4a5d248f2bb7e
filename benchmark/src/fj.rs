//! The three fork/join workloads and the protocol that times them: the
//! same pass run as the serial elision (outside any runtime), on one
//! worker and on `nproc` workers, every result verified.
//!
//! Inputs are pinned here by calling the kernels directly, so the test
//! presets in `nowa-kernels` can change without moving the ruler.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use nowa_kernels::dense::Mat;
use nowa_kernels::fft::Cpx;
use nowa_kernels::{cholesky, fft, fib, heat, integrate, lu, matmul, nqueens, quicksort};
use nowa_runtime::{api, Config, Runtime};

use crate::counters::{Delta, Reading};
use crate::rng::Rng;
use crate::span::Recorder;

/// One kernel's interval inside a pass, stamped inside the runtime task.
pub struct KernelSpan {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

fn stamp<R>(spans: &mut Vec<KernelSpan>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    spans.push(KernelSpan {
        name,
        start,
        end: Instant::now(),
    });
    out
}

/// A fork/join workload: pinned inputs, one pass over its kernels, and a
/// check of every kernel's output.
pub trait Workload: Sync {
    /// The state one pass works on (in-place kernels consume their input).
    type Work: Send;
    const NAME: &'static str;
    /// Builds the inputs from the run's seed.
    fn inputs(seed: u64) -> Self;
    /// A fresh working copy; not part of the timed pass.
    fn fresh(&self) -> Self::Work;
    /// Runs every kernel once. Called on the main thread for the serial
    /// elision and inside `Runtime::run` otherwise.
    fn pass(&self, work: &mut Self::Work) -> Vec<KernelSpan>;
    /// Checks each kernel's output against its reference.
    fn verify(&self, work: &Self::Work) -> Vec<(&'static str, bool)>;
}

fn close(got: f64, want: f64, rel: f64) -> bool {
    (got - want).abs() <= rel * want.abs().max(1.0)
}

// ---- fj-spawn ------------------------------------------------------------

const FIB_N: u64 = 32;
const INTEGRATE_RANGE: f64 = 20.0;
const NQUEENS_N: usize = 12;

pub struct FjSpawn;

#[derive(Default)]
pub struct SpawnOut {
    fib: u64,
    integral: f64,
    queens: u64,
}

impl Workload for FjSpawn {
    type Work = SpawnOut;
    const NAME: &'static str = "fj-spawn";

    fn inputs(_seed: u64) -> FjSpawn {
        // The three kernels take no data, only sizes: every seed gives the
        // same (pinned) input.
        FjSpawn
    }

    fn fresh(&self) -> SpawnOut {
        SpawnOut::default()
    }

    fn pass(&self, out: &mut SpawnOut) -> Vec<KernelSpan> {
        let mut spans = Vec::with_capacity(3);
        out.fib = stamp(&mut spans, "fib", || {
            fib::fib(std::hint::black_box(FIB_N), 0)
        });
        out.integral = stamp(&mut spans, "integrate", || {
            integrate::integrate(std::hint::black_box(INTEGRATE_RANGE), 1e-9)
        });
        out.queens = stamp(&mut spans, "nqueens", || {
            nqueens::nqueens(std::hint::black_box(NQUEENS_N))
        });
        spans
    }

    fn verify(&self, out: &SpawnOut) -> Vec<(&'static str, bool)> {
        vec![
            ("fib", out.fib == fib::fib_reference(FIB_N)),
            (
                "integrate",
                close(
                    out.integral,
                    integrate::integrate_reference(INTEGRATE_RANGE),
                    1e-6,
                ),
            ),
            ("nqueens", out.queens == nqueens::KNOWN_COUNTS[NQUEENS_N]),
        ]
    }
}

// ---- fj-coarse -----------------------------------------------------------

const MATMUL_N: usize = 768;
const FACTOR_N: usize = 1024;
const FFT_LOG2: u32 = 20;
const SORT_N: usize = 6_000_000;
const HEAT: (usize, usize, usize) = (1024, 512, 60);

pub struct FjCoarse {
    a: Mat,
    b: Mat,
    lu0: Mat,
    spd0: Mat,
    signal: Vec<Cpx>,
    unsorted: Vec<u64>,
    /// Probe vector of the O(n²) product checks below.
    x: Vec<f64>,
    signal_energy: f64,
    sorted_checksum: u64,
    heat_checksum: f64,
}

pub struct CoarseWork {
    product: Option<Mat>,
    lu: Mat,
    chol: Mat,
    spectrum: Vec<Cpx>,
    data: Vec<u64>,
    grid: heat::Grid,
}

fn mat_vec(m: &Mat, x: &[f64]) -> Vec<f64> {
    (0..m.rows())
        .map(|i| (0..m.cols()).map(|j| m.at(i, j) * x[j]).sum())
        .collect()
}

fn vectors_close(got: &[f64], want: &[f64]) -> bool {
    let scale = want.iter().fold(1.0f64, |s, v| s.max(v.abs()));
    got.iter()
        .zip(want)
        .all(|(g, w)| (g - w).abs() <= 1e-9 * scale)
}

/// One DFT bin computed directly from the time-domain signal.
fn dft_bin(signal: &[Cpx], k: usize) -> Cpx {
    let n = signal.len();
    let (mut re, mut im) = (0.0, 0.0);
    for (t, s) in signal.iter().enumerate() {
        // k·t mod n keeps the angle small enough to stay accurate.
        let angle = -2.0 * std::f64::consts::PI * ((k * t) % n) as f64 / n as f64;
        let (sin, cos) = angle.sin_cos();
        re += s.re * cos - s.im * sin;
        im += s.re * sin + s.im * cos;
    }
    Cpx::new(re, im)
}

impl Workload for FjCoarse {
    type Work = CoarseWork;
    const NAME: &'static str = "fj-coarse";

    fn inputs(seed: u64) -> FjCoarse {
        let mut rng = Rng::new(seed);
        let mut sub = || rng.next_u64();
        let a = matmul::random_matrix(MATMUL_N, MATMUL_N, sub());
        let b = matmul::random_matrix(MATMUL_N, MATMUL_N, sub());
        let lu0 = lu::dominant_matrix(FACTOR_N, sub());
        let spd0 = cholesky::spd_matrix(FACTOR_N, sub());
        let signal = fft::random_signal(1 << FFT_LOG2, sub());
        let unsorted = quicksort::random_input(SORT_N, sub());
        let x = (0..FACTOR_N).map(|_| rng.centered()).collect();

        let signal_energy = fft::spectrum_energy(&signal);
        let mut sorted = unsorted.clone();
        sorted.sort_unstable();
        let sorted_checksum = quicksort::verify_sorted(&sorted).expect("sort_unstable sorts");
        let mut grid = heat::Grid::new(HEAT.0, HEAT.1);
        heat::heat_serial(&mut grid, HEAT.2);
        FjCoarse {
            a,
            b,
            lu0,
            spd0,
            signal,
            unsorted,
            x,
            signal_energy,
            sorted_checksum,
            heat_checksum: grid.checksum(),
        }
    }

    fn fresh(&self) -> CoarseWork {
        CoarseWork {
            product: None,
            lu: self.lu0.clone(),
            chol: self.spd0.clone(),
            spectrum: self.signal.clone(),
            data: self.unsorted.clone(),
            grid: heat::Grid::new(HEAT.0, HEAT.1),
        }
    }

    fn pass(&self, w: &mut CoarseWork) -> Vec<KernelSpan> {
        let mut spans = Vec::with_capacity(6);
        w.product = Some(stamp(&mut spans, "matmul", || {
            matmul::matmul(&self.a, &self.b, 32)
        }));
        stamp(&mut spans, "lu", || lu::lu(&mut w.lu, 32));
        stamp(&mut spans, "cholesky", || {
            cholesky::cholesky(&mut w.chol, 32)
        });
        stamp(&mut spans, "fft", || fft::fft(&mut w.spectrum, 256));
        stamp(&mut spans, "quicksort", || {
            quicksort::quicksort(&mut w.data, 2048)
        });
        stamp(&mut spans, "heat", || heat::heat(&mut w.grid, HEAT.2, 8));
        spans
    }

    fn verify(&self, w: &CoarseWork) -> Vec<(&'static str, bool)> {
        // Products are checked against a probe vector in O(n²): C·x = A·(B·x),
        // L·(U·x) = A·x and L·(Lᵀ·x) = A·x.
        let n = FACTOR_N;
        let x = &self.x;
        let matmul_ok = w.product.as_ref().is_some_and(|c| {
            let xs = &x[..MATMUL_N];
            vectors_close(&mat_vec(c, xs), &mat_vec(&self.a, &mat_vec(&self.b, xs)))
        });
        let ux: Vec<f64> = (0..n)
            .map(|i| (i..n).map(|j| w.lu.at(i, j) * x[j]).sum())
            .collect();
        let lux: Vec<f64> = (0..n)
            .map(|i| ux[i] + (0..i).map(|j| w.lu.at(i, j) * ux[j]).sum::<f64>())
            .collect();
        let ltx: Vec<f64> = (0..n)
            .map(|j| (j..n).map(|i| w.chol.at(i, j) * x[i]).sum())
            .collect();
        let lltx: Vec<f64> = (0..n)
            .map(|i| (0..=i).map(|j| w.chol.at(i, j) * ltx[j]).sum())
            .collect();
        // Parseval for the whole spectrum plus two bins computed directly.
        let len = w.spectrum.len();
        let fft_ok = close(
            fft::spectrum_energy(&w.spectrum) / len as f64,
            self.signal_energy,
            1e-9,
        ) && [1usize, len / 2 + 3].iter().all(|&k| {
            let want = dft_bin(&self.signal, k);
            let got = w.spectrum[k];
            (got.re - want.re).abs() < 1e-6 && (got.im - want.im).abs() < 1e-6
        });
        vec![
            ("matmul", matmul_ok),
            ("lu", vectors_close(&lux, &mat_vec(&self.lu0, x))),
            ("cholesky", vectors_close(&lltx, &mat_vec(&self.spd0, x))),
            ("fft", fft_ok),
            (
                "quicksort",
                quicksort::verify_sorted(&w.data) == Some(self.sorted_checksum),
            ),
            ("heat", close(w.grid.checksum(), self.heat_checksum, 1e-9)),
        ]
    }
}

// ---- fj-loop -------------------------------------------------------------

/// Spawns per loop (the paper's Fig. 4 shape) and loops per pass.
const LOOP_WIDTH: u64 = 64;
const LOOP_CALLS: u64 = 1563; // × 64 = 100 032 leaves
/// Dependent xorshift rounds per leaf: ~10 µs on the reference host. A
/// fixed count, not a run-time calibration, so every run does equal work.
pub const LEAF_ROUNDS: u32 = 5_000;

#[inline(never)]
pub fn leaf(i: u64) -> u64 {
    let mut x = std::hint::black_box(i) | 1;
    for _ in 0..LEAF_ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

pub struct FjLoop {
    /// Wrapping sum of one loop's leaf results.
    loop_sum: u64,
}

#[derive(Default)]
pub struct LoopOut {
    leaves: AtomicU64,
    sum: AtomicU64,
}

/// `calls` loops of [`LOOP_WIDTH`] spawned leaves each.
pub fn spawn_loops(calls: u64, out: &LoopOut) {
    for _ in 0..calls {
        api::for_each(0..LOOP_WIDTH, &|i| {
            out.sum.fetch_add(leaf(i), Ordering::Relaxed);
            out.leaves.fetch_add(1, Ordering::Relaxed);
        });
    }
}

impl Workload for FjLoop {
    type Work = LoopOut;
    const NAME: &'static str = "fj-loop";

    fn inputs(_seed: u64) -> FjLoop {
        // Leaf work is a fixed count of rounds: every seed gives the same
        // (pinned) input.
        FjLoop {
            loop_sum: (0..LOOP_WIDTH).fold(0u64, |s, i| s.wrapping_add(leaf(i))),
        }
    }

    fn fresh(&self) -> LoopOut {
        LoopOut::default()
    }

    fn pass(&self, out: &mut LoopOut) -> Vec<KernelSpan> {
        let mut spans = Vec::with_capacity(1);
        stamp(&mut spans, "loop", || spawn_loops(LOOP_CALLS, out));
        spans
    }

    fn verify(&self, out: &LoopOut) -> Vec<(&'static str, bool)> {
        let leaves = out.leaves.load(Ordering::Relaxed);
        let sum = out.sum.load(Ordering::Relaxed);
        vec![(
            "loop",
            leaves == LOOP_CALLS * LOOP_WIDTH && sum == self.loop_sum.wrapping_mul(LOOP_CALLS),
        )]
    }
}

// ---- the timing protocol --------------------------------------------------

/// The three ways a pass is run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Serial,
    P1,
    Pn,
}

impl Mode {
    pub fn label(self) -> &'static str {
        match self {
            Mode::Serial => "serial",
            Mode::P1 => "t1",
            Mode::Pn => "tp",
        }
    }
}

/// One timed, verified pass.
pub struct Pass {
    pub wall_s: f64,
    /// Seconds per kernel, in pass order.
    pub kernels: Vec<(&'static str, f64)>,
    pub checks: u64,
    pub failed: u64,
    /// Runtime counts around the pass; `None` for the serial elision.
    pub delta: Option<Delta>,
}

/// Runs one pass of `wl` — on `rt`, or as the serial elision when `None` —
/// inside a span `label`, with children `kernel[k]` and `verify`.
pub fn run_pass<W: Workload>(
    wl: &W,
    rt: Option<&Runtime>,
    rec: &mut Recorder,
    label: &str,
) -> Pass {
    rec.span(label, |rec| {
        let mut work = wl.fresh();
        let before = rt.map(Reading::take);
        let t0 = Instant::now();
        let spans = match rt {
            Some(rt) => rt.run(|| wl.pass(&mut work)),
            None => wl.pass(&mut work),
        };
        let wall_s = t0.elapsed().as_secs_f64();
        let delta = rt.map(|rt| {
            Delta::between(
                &before.expect("read above"),
                &Reading::take(rt),
                rt.workers(),
            )
        });
        for k in &spans {
            rec.add(&format!("kernel[{}]", k.name), None, k.start, k.end);
        }
        let checks = rec.span("verify", |_| wl.verify(&work));
        for (name, ok) in &checks {
            if !ok {
                eprintln!("{}: {label}: kernel {name} gave a wrong result", W::NAME);
            }
        }
        Pass {
            wall_s,
            kernels: spans
                .iter()
                .map(|k| (k.name, (k.end - k.start).as_secs_f64()))
                .collect(),
            checks: checks.len() as u64,
            failed: checks.iter().filter(|(_, ok)| !ok).count() as u64,
            delta,
        }
    })
}

pub fn runtime(workers: usize) -> Runtime {
    Runtime::new(Config::with_workers(workers)).expect("runtime start-up")
}

/// One set-up as a user pays it: inputs, a runtime on `workers` workers and
/// a warm-up pass. Returns the parts, the warm-up pass and the seconds.
pub fn set_up<W: Workload>(
    seed: u64,
    workers: usize,
    rec: &mut Recorder,
) -> (W, Runtime, Pass, f64) {
    rec.span("setup", |rec| {
        let t0 = Instant::now();
        let wl = rec.span("inputs", |_| W::inputs(seed));
        let rt = rec.span("runtime_new", |_| runtime(workers));
        let warm = run_pass(&wl, Some(&rt), rec, "warmup");
        let secs = t0.elapsed().as_secs_f64();
        (wl, rt, warm, secs)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_workload_verifies_and_detects_a_lost_leaf() {
        let wl = FjLoop::inputs(1);
        let out = LoopOut::default();
        spawn_loops(1, &out); // outside a runtime: the serial elision
        assert_eq!(out.leaves.load(Ordering::Relaxed), LOOP_WIDTH);
        assert_eq!(out.sum.load(Ordering::Relaxed), wl.loop_sum);
        // A whole pass is LOOP_CALLS such loops.
        out.leaves.store(LOOP_CALLS * LOOP_WIDTH, Ordering::Relaxed);
        out.sum
            .store(wl.loop_sum.wrapping_mul(LOOP_CALLS), Ordering::Relaxed);
        assert_eq!(wl.verify(&out), vec![("loop", true)]);
        out.leaves.fetch_sub(1, Ordering::Relaxed);
        assert_eq!(wl.verify(&out), vec![("loop", false)]);
    }

    #[test]
    fn dft_bin_matches_a_known_transform() {
        // x[t] = exp(2πi·3t/8) has all its energy in bin 3.
        let signal: Vec<Cpx> = (0..8)
            .map(|t| {
                let a = 2.0 * std::f64::consts::PI * 3.0 * t as f64 / 8.0;
                Cpx::new(a.cos(), a.sin())
            })
            .collect();
        assert!((dft_bin(&signal, 3).re - 8.0).abs() < 1e-12);
        assert!(dft_bin(&signal, 2).norm_sq() < 1e-20);
    }
}
