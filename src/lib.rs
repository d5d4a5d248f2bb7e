//! # nowa — a wait-free continuation-stealing concurrency platform
//!
//! Facade crate of the reproduction of *“Nowa: A Wait-Free
//! Continuation-Stealing Concurrency Platform”* (Schmaus, Pfeiffer,
//! Schröder-Preikschat, Hönig, Nolte — IPDPS 2021). It re-exports the
//! workspace's building blocks:
//!
//! * [`runtime`] — the Nowa runtime itself: fully-strict fork/join on
//!   fibers with genuine continuation stealing, the wait-free join
//!   protocol of §IV, selectable work-stealing deques, and the practical
//!   cactus-stack implementation with the §V-B `madvise` knob.
//! * [`deque`] — the Chase–Lev and THE work-stealing deques, and the
//!   split private/public layer over either.
//! * [`context`] — machine contexts, guarded stacks, stack pools.
//! * [`kernels`] — the twelve Table I benchmarks (parallel + serial
//!   elision).
//! * [`baselines`] — TBB-, libomp- and libgomp-style comparator runtimes
//!   that run the same kernels through the same API.
//! * [`sim`] — the discrete-event scalability simulator used to regenerate
//!   the paper's 1–256-thread figures on small hosts.
//!
//! ## Quick start
//!
//! ```
//! use nowa::{join2, Config, Runtime};
//!
//! fn fib(n: u64) -> u64 {
//!     if n < 2 {
//!         return n;
//!     }
//!     let (a, b) = join2(|| fib(n - 1), || fib(n - 2));
//!     a + b
//! }
//!
//! let rt = Runtime::new(Config::with_workers(4)).unwrap();
//! assert_eq!(rt.run(|| fib(20)), 6765);
//! ```
//!
//! See the `examples/` directory for runnable scenarios and the
//! `nowa-bench` binary (crate `nowa-harness`) for the paper's experiments.

pub use nowa_baselines as baselines;
pub use nowa_context as context;
pub use nowa_deque as deque;
pub use nowa_kernels as kernels;
pub use nowa_runtime as runtime;
pub use nowa_sim as sim;

pub use nowa_runtime::time;
pub use nowa_runtime::{
    block_on, for_each, in_task, join2, join3, join4, map_reduce, par_for, par_map, sleep, timeout,
    AsyncFd, ChaosConfig, Config, Flavor, JoinHandle, MadvisePolicy, Region, Runtime, SplitConfig,
    StatsSnapshot,
};
