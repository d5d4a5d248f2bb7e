//! DAG generators shaped like the twelve benchmarks (Table I).
//!
//! Each generator expands the real kernel's spawn structure — the same
//! `join2`/`Region` shapes as `nowa-kernels`, with each spawning-function
//! instance becoming one task and sequential nested calls becoming
//! [`Item::Call`](crate::dag::Item::Call)s — at a scaled-down input, preserving the benchmark's
//! *granularity* (work per spawn), which is what decides how hard the DAG
//! stresses the runtime. A task budget guards against runaway expansion;
//! beyond it, subtrees are aggregated into serial leaf work using the
//! kernel's analytic work formula, keeping total work consistent.
//!
//! Work costs are in virtual ns with 1 flop ≈ 1 ns and small constants for
//! call/branch overhead; only relative magnitudes matter (see
//! [`crate::cost`]).

use crate::dag::{DagBuilder, SimDag};

/// Identifier of a simulated benchmark (matches `nowa_kernels::BenchId`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum SimBench {
    Cholesky,
    Fft,
    Fib,
    Heat,
    Integrate,
    Knapsack,
    Lu,
    Matmul,
    Nqueens,
    Quicksort,
    Rectmul,
    Strassen,
}

impl SimBench {
    /// All twelve, Table I order.
    pub const ALL: [SimBench; 12] = [
        SimBench::Cholesky,
        SimBench::Fft,
        SimBench::Fib,
        SimBench::Heat,
        SimBench::Integrate,
        SimBench::Knapsack,
        SimBench::Lu,
        SimBench::Matmul,
        SimBench::Nqueens,
        SimBench::Quicksort,
        SimBench::Rectmul,
        SimBench::Strassen,
    ];

    /// Plot name.
    pub fn name(&self) -> &'static str {
        match self {
            SimBench::Cholesky => "cholesky",
            SimBench::Fft => "fft",
            SimBench::Fib => "fib",
            SimBench::Heat => "heat",
            SimBench::Integrate => "integrate",
            SimBench::Knapsack => "knapsack",
            SimBench::Lu => "lu",
            SimBench::Matmul => "matmul",
            SimBench::Nqueens => "nqueens",
            SimBench::Quicksort => "quicksort",
            SimBench::Rectmul => "rectmul",
            SimBench::Strassen => "strassen",
        }
    }

    /// Parses a benchmark name.
    pub fn parse(name: &str) -> Option<SimBench> {
        SimBench::ALL.iter().copied().find(|b| b.name() == name)
    }

    /// Default scale for the figure reproductions (tens of ms of virtual
    /// work, 10⁴–10⁵ tasks).
    pub fn default_scale(&self) -> u32 {
        match self {
            SimBench::Cholesky => 1024,
            SimBench::Fft => 17, // 2^17 points
            SimBench::Fib => 26,
            SimBench::Heat => 512,     // 512 x 256, 32 steps
            SimBench::Integrate => 16, // tree depth
            SimBench::Knapsack => 26,
            SimBench::Lu => 512,
            SimBench::Matmul => 512,
            SimBench::Nqueens => 11,
            SimBench::Quicksort => 20, // 2^20 elements
            SimBench::Rectmul => 512,
            SimBench::Strassen => 512,
        }
    }

    /// Reduced scale for quick runs and tests.
    pub fn quick_scale(&self) -> u32 {
        match self {
            SimBench::Cholesky => 128,
            SimBench::Fft => 13,
            SimBench::Fib => 19,
            SimBench::Heat => 128,
            SimBench::Integrate => 11,
            SimBench::Knapsack => 18,
            SimBench::Lu => 128,
            SimBench::Matmul => 128,
            SimBench::Nqueens => 8,
            SimBench::Quicksort => 15,
            SimBench::Rectmul => 128,
            SimBench::Strassen => 128,
        }
    }
}

/// Expansion budget: beyond this many tasks, subtrees aggregate to leaves.
const TASK_BUDGET: usize = 700_000;

struct Gen {
    b: DagBuilder,
    rng: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            b: DagBuilder::new(),
            rng: seed | 1,
        }
    }

    fn over_budget(&self) -> bool {
        self.b.task_count() > TASK_BUDGET
    }

    fn rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Generates the DAG for `bench` at `scale` (see [`SimBench::default_scale`]
/// for the scale semantics per benchmark).
pub fn generate(bench: SimBench, scale: u32) -> SimDag {
    let mut g = Gen::new(0xDA6 ^ (scale as u64) << 8 ^ bench as u64);
    match bench {
        SimBench::Fib => fib(&mut g, 0, scale),
        SimBench::Integrate => integrate(&mut g, 0, scale),
        SimBench::Nqueens => {
            let mut board = [0u8; 16];
            nqueens(&mut g, 0, &mut board, 0, scale as usize);
        }
        SimBench::Knapsack => knapsack(&mut g, 0, scale),
        SimBench::Quicksort => quicksort_task(&mut g, 0, 1u64 << scale),
        SimBench::Fft => {
            let n = 1u64 << scale;
            fft(&mut g, 0, n);
        }
        SimBench::Heat => heat(&mut g, scale as u64),
        SimBench::Matmul => matmul(&mut g, 0, scale as u64),
        SimBench::Rectmul => {
            let n = scale as u64;
            rectmul(&mut g, 0, n, n / 2, n * 3 / 4);
        }
        SimBench::Strassen => strassen(&mut g, 0, scale as u64),
        SimBench::Lu => lu(&mut g, 0, scale as u64),
        SimBench::Cholesky => cholesky(&mut g, 0, scale as u64),
    }
    g.b.build()
}

// --- fib ------------------------------------------------------------------

/// Serial node count of fib(n): 2·fib(n+1) − 1.
fn fib_nodes(n: u32) -> u64 {
    let (mut a, mut b) = (0u64, 1u64);
    for _ in 0..n + 1 {
        let c = a + b;
        a = b;
        b = c;
    }
    2 * a - 1
}

fn fib(g: &mut Gen, task: usize, n: u32) {
    if n < 2 {
        g.b.work(task, 6);
        return;
    }
    if g.over_budget() {
        g.b.work(task, fib_nodes(n) * 9);
        return;
    }
    g.b.work(task, 8); // call + branch + frame setup
    let c1 = g.b.spawn(task);
    fib(g, c1, n - 1);
    let c2 = g.b.call(task);
    fib(g, c2, n - 2);
    g.b.sync(task);
    g.b.work(task, 4); // add + return
}

// --- integrate --------------------------------------------------------------

fn integrate(g: &mut Gen, task: usize, depth: u32) {
    if depth == 0 {
        g.b.work(task, 25);
        return;
    }
    if g.over_budget() {
        g.b.work(task, (1u64 << depth) * 25 + ((1u64 << depth) - 1) * 12);
        return;
    }
    g.b.work(task, 12); // midpoint evaluation + error estimate
    let c1 = g.b.spawn(task);
    integrate(g, c1, depth - 1);
    let c2 = g.b.call(task);
    integrate(g, c2, depth - 1);
    g.b.sync(task);
}

// --- nqueens ----------------------------------------------------------------

fn nq_ok(board: &[u8], row: usize, col: usize) -> bool {
    for (r, &c) in board[..row].iter().enumerate() {
        let c = c as usize;
        if c == col || c + row == col + r || c + r == col + row {
            return false;
        }
    }
    true
}

/// Serial node count of the remaining search tree.
fn nq_count_nodes(board: &mut [u8; 16], row: usize, n: usize) -> u64 {
    if row == n {
        return 1;
    }
    let mut total = 1;
    for col in 0..n {
        if nq_ok(board, row, col) {
            board[row] = col as u8;
            total += nq_count_nodes(board, row + 1, n);
        }
    }
    total
}

/// The Region shape: one spawn per valid column, one sync (Fig. 4).
fn nqueens(g: &mut Gen, task: usize, board: &mut [u8; 16], row: usize, n: usize) {
    if row == n {
        g.b.work(task, 10);
        return;
    }
    if g.over_budget() {
        g.b.work(task, nq_count_nodes(board, row, n) * (8 + 4 * n as u64));
        return;
    }
    let check_cost = 6 * row.max(1) as u64;
    let mut spawned = false;
    for col in 0..n {
        g.b.work(task, check_cost); // the ok() scan
        if nq_ok(board, row, col) {
            let child = g.b.spawn(task);
            spawned = true;
            board[row] = col as u8;
            nqueens(g, child, board, row + 1, n);
        }
    }
    if spawned {
        g.b.sync(task);
    }
    g.b.work(task, 4 * n as u64); // count reduction
}

// --- knapsack ---------------------------------------------------------------

/// Branch-and-bound tree: include-branch spawned, exclude-branch called;
/// pruning becomes more likely with depth (seeded, deterministic).
fn knapsack(g: &mut Gen, task: usize, depth: u32) {
    g.b.work(task, 35); // bound computation
    if depth == 0 {
        return;
    }
    if g.over_budget() {
        g.b.work(task, 40 * (depth as u64 + 1));
        return;
    }
    // Survival probability decays so the tree stays sub-exponential, like
    // a pruned branch-and-bound search.
    let survive = |g: &mut Gen, bias: u64| -> bool {
        let p = 990u64.saturating_sub(bias);
        g.rand() % 1000 < p
    };
    let bias = (26u64.saturating_sub(depth as u64)) * 24;
    let take = survive(g, bias);
    let skip = survive(g, bias / 2);
    if take {
        let c = g.b.spawn(task);
        knapsack(g, c, depth - 1);
    }
    if skip {
        let c = g.b.call(task);
        knapsack(g, c, depth - 1);
    }
    if take {
        g.b.sync(task);
    }
}

// --- quicksort ---------------------------------------------------------------

const QS_GRAIN: u64 = 2048;

fn quicksort_task(g: &mut Gen, task: usize, len: u64) {
    if len <= QS_GRAIN {
        // Serial sort leaf: ~2·n·log2(n).
        let log = 64 - len.max(2).leading_zeros() as u64;
        g.b.work(task, 2 * len * log);
        return;
    }
    if g.over_budget() {
        let log = 64 - len.leading_zeros() as u64;
        g.b.work(task, 2 * len * log);
        return;
    }
    g.b.work(task, len * 3 / 2); // partition
                                 // Median-of-three keeps splits near the middle but not exact.
    let frac = 35 + (g.rand() % 31); // 35..65 %
    let lo = (len * frac / 100).max(1).min(len - 1);
    let c1 = g.b.spawn(task);
    quicksort_task(g, c1, lo);
    let c2 = g.b.call(task);
    quicksort_task(g, c2, len - lo);
    g.b.sync(task);
}

// --- fft ----------------------------------------------------------------------

const FFT_BASE: u64 = 32;
const FFT_COPY_GRAIN: u64 = 4096;
const FFT_COMBINE_GRAIN: u64 = 1024;
/// One butterfly: twiddle multiply, add and subtract.
const FFT_BUTTERFLY: u64 = 8;

/// The deinterleave's copy of `n` elements, split under `join2` the way
/// the kernel splits it.
fn fft_deinterleave(g: &mut Gen, task: usize, n: u64) {
    if n <= FFT_COPY_GRAIN || g.over_budget() {
        g.b.work(task, n * 2);
        return;
    }
    let c1 = g.b.spawn(task);
    fft_deinterleave(g, c1, n / 2);
    let c2 = g.b.call(task);
    fft_deinterleave(g, c2, n / 2);
    g.b.sync(task);
}

fn fft_combine(g: &mut Gen, task: usize, half: u64) {
    if half <= FFT_COMBINE_GRAIN || g.over_budget() {
        g.b.work(task, half * FFT_BUTTERFLY);
        return;
    }
    let c1 = g.b.spawn(task);
    fft_combine(g, c1, half / 2);
    let c2 = g.b.call(task);
    fft_combine(g, c2, half / 2);
    g.b.sync(task);
}

fn fft(g: &mut Gen, task: usize, n: u64) {
    if n <= FFT_BASE || g.over_budget() {
        // Serial radix-2 leaf: (n/2)·log2(n) butterflies.
        g.b.work(task, n / 2 * n.trailing_zeros() as u64 * FFT_BUTTERFLY);
        return;
    }
    let copy = g.b.call(task);
    fft_deinterleave(g, copy, n);
    let c1 = g.b.spawn(task);
    fft(g, c1, n / 2);
    let c2 = g.b.call(task);
    fft(g, c2, n / 2);
    g.b.sync(task);
    let comb = g.b.call(task);
    fft_combine(g, comb, n / 2);
}

// --- heat ----------------------------------------------------------------------

const HEAT_ROW_GRAIN: u64 = 8;

fn heat_step(g: &mut Gen, task: usize, rows: u64, ny: u64) {
    if rows <= HEAT_ROW_GRAIN || g.over_budget() {
        g.b.work(task, rows * ny * 6);
        return;
    }
    let c1 = g.b.spawn(task);
    heat_step(g, c1, rows / 2, ny);
    let c2 = g.b.call(task);
    heat_step(g, c2, rows - rows / 2, ny);
    g.b.sync(task);
}

fn heat(g: &mut Gen, nx: u64) {
    let ny = nx / 2;
    let steps = (nx / 16).max(4);
    for _ in 0..steps {
        let step = g.b.call(0);
        heat_step(g, step, nx, ny);
        g.b.work(0, 200); // buffer swap + loop bookkeeping
    }
}

// --- matmul ----------------------------------------------------------------------

const MM_BASE: u64 = 32;

fn matmul(g: &mut Gen, task: usize, n: u64) {
    if n <= MM_BASE || g.over_budget() {
        g.b.work(task, 2 * n * n * n);
        return;
    }
    let h = n / 2;
    // Two phases of four quadrant products (join4: three spawned + one
    // called), as in the Cilk matmul.
    for _phase in 0..2 {
        for _ in 0..3 {
            let c = g.b.spawn(task);
            matmul(g, c, h);
        }
        let c = g.b.call(task);
        matmul(g, c, h);
        g.b.sync(task);
    }
}

// --- rectmul -----------------------------------------------------------------------

fn rectmul(g: &mut Gen, task: usize, m: u64, k: u64, n: u64) {
    if (m.max(n).max(k) <= MM_BASE) || g.over_budget() {
        g.b.work(task, 2 * m * k * n);
        return;
    }
    if m >= n && m >= k {
        let c1 = g.b.spawn(task);
        rectmul(g, c1, m / 2, k, n);
        let c2 = g.b.call(task);
        rectmul(g, c2, m - m / 2, k, n);
        g.b.sync(task);
    } else if n >= k {
        let c1 = g.b.spawn(task);
        rectmul(g, c1, m, k, n / 2);
        let c2 = g.b.call(task);
        rectmul(g, c2, m, k, n - n / 2);
        g.b.sync(task);
    } else {
        // k-split: sequential halves.
        let c1 = g.b.call(task);
        rectmul(g, c1, m, k / 2, n);
        let c2 = g.b.call(task);
        rectmul(g, c2, m, k - k / 2, n);
    }
}

// --- strassen -----------------------------------------------------------------------

const STRASSEN_BASE: u64 = 64;

fn strassen(g: &mut Gen, task: usize, n: u64) {
    if n <= STRASSEN_BASE || g.over_budget() {
        g.b.work(task, 2 * n * n * n);
        return;
    }
    let h = n / 2;
    let add = h * h * 2; // one temporary add/sub
                         // join4(m1..m4): each product task pays its operand adds first.
    for _ in 0..3 {
        let c = g.b.spawn(task);
        g.b.work(c, add * 2);
        let sub = g.b.call(c);
        strassen(g, sub, h);
    }
    let c = g.b.call(task);
    g.b.work(c, add * 2);
    let sub = g.b.call(c);
    strassen(g, sub, h);
    g.b.sync(task);
    // join3(m5..m7).
    for _ in 0..2 {
        let c = g.b.spawn(task);
        g.b.work(c, add * 2);
        let sub = g.b.call(c);
        strassen(g, sub, h);
    }
    let c = g.b.call(task);
    g.b.work(c, add * 2);
    let sub = g.b.call(c);
    strassen(g, sub, h);
    g.b.sync(task);
    g.b.work(task, 8 * h * h); // quadrant combine
}

// --- lu ---------------------------------------------------------------------------

const LU_BASE: u64 = 32;

/// Forward/backward panel solve: parallel over the panel's long dimension,
/// sequential blocked recursion over the triangle.
fn lu_trsm(g: &mut Gen, task: usize, panel: u64, n: u64) {
    if panel > LU_BASE && !g.over_budget() {
        let c1 = g.b.spawn(task);
        lu_trsm(g, c1, panel / 2, n);
        let c2 = g.b.call(task);
        lu_trsm(g, c2, panel - panel / 2, n);
        g.b.sync(task);
        return;
    }
    g.b.work(task, panel * n * n);
}

fn lu(g: &mut Gen, task: usize, n: u64) {
    if n <= LU_BASE || g.over_budget() {
        g.b.work(task, 2 * n * n * n / 3);
        return;
    }
    let h = n / 2;
    let c = g.b.call(task);
    lu(g, c, h);
    // join2(trsm_lower(A12), trsm_right(A21)).
    let c1 = g.b.spawn(task);
    lu_trsm(g, c1, h, h);
    let c2 = g.b.call(task);
    lu_trsm(g, c2, h, h);
    g.b.sync(task);
    // Trailing update A22 -= A21·A12 (parallel GEMM), then recurse.
    let gm = g.b.call(task);
    rectmul(g, gm, h, h, h);
    let c = g.b.call(task);
    lu(g, c, n - h);
}

// --- cholesky -----------------------------------------------------------------------

fn syrk(g: &mut Gen, task: usize, n: u64, k: u64) {
    if n <= LU_BASE || g.over_budget() {
        g.b.work(task, n * n * k);
        return;
    }
    let h = n / 2;
    let c1 = g.b.spawn(task);
    syrk(g, c1, h, k);
    let c2 = g.b.spawn(task);
    syrk(g, c2, n - h, k);
    let gm = g.b.call(task);
    rectmul(g, gm, n - h, k, h);
    g.b.sync(task);
}

fn cholesky(g: &mut Gen, task: usize, n: u64) {
    if n <= LU_BASE || g.over_budget() {
        g.b.work(task, n * n * n / 3);
        return;
    }
    let h = n / 2;
    let c = g.b.call(task);
    cholesky(g, c, h);
    let t = g.b.call(task);
    lu_trsm(g, t, n - h, h);
    let s = g.b.call(task);
    syrk(g, s, n - h, h);
    let c = g.b.call(task);
    cholesky(g, c, n - h);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig, SimFlavor};

    #[test]
    fn all_benchmarks_generate_valid_dags() {
        for bench in SimBench::ALL {
            let dag = generate(bench, bench.quick_scale());
            assert_eq!(dag.validate(), Ok(()), "{}", bench.name());
            assert!(dag.total_work() > 0, "{}", bench.name());
            assert!(dag.spawn_count() > 0, "{}", bench.name());
            assert!(dag.span() <= dag.total_work(), "{}", bench.name());
        }
    }

    #[test]
    fn default_scales_fit_budget() {
        for bench in SimBench::ALL {
            let dag = generate(bench, bench.default_scale());
            assert!(
                dag.tasks.len() <= TASK_BUDGET + 64,
                "{}: {} tasks",
                bench.name(),
                dag.tasks.len()
            );
            // Enough parallelism to be worth simulating.
            assert!(
                dag.total_work() / dag.span().max(1) >= 8,
                "{}: parallelism {} too low",
                bench.name(),
                dag.total_work() / dag.span().max(1)
            );
        }
    }

    #[test]
    fn generated_dags_are_deterministic() {
        for bench in [SimBench::Knapsack, SimBench::Quicksort] {
            let a = generate(bench, bench.quick_scale());
            let b = generate(bench, bench.quick_scale());
            assert_eq!(a.total_work(), b.total_work());
            assert_eq!(a.tasks.len(), b.tasks.len());
        }
    }

    #[test]
    fn every_bench_simulates_under_every_flavor() {
        for bench in SimBench::ALL {
            let dag = generate(bench, bench.quick_scale());
            for flavor in SimFlavor::ALL {
                let r = simulate(&dag, SimConfig::new(flavor, 4));
                assert!(
                    r.makespan >= dag.span(),
                    "{}/{}: makespan below span",
                    bench.name(),
                    flavor.name()
                );
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for b in SimBench::ALL {
            assert_eq!(SimBench::parse(b.name()), Some(b));
        }
    }
}
