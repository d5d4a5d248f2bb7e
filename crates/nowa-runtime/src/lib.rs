//! # nowa-runtime — a wait-free continuation-stealing concurrency platform
//!
//! Reproduction of *“Nowa: A Wait-Free Continuation-Stealing Concurrency
//! Platform”* (Schmaus et al., IPDPS 2021): a fully-strict fork/join
//! runtime with randomised work-stealing, genuine continuation stealing on
//! fiber stacks, a practical cactus-stack implementation, and — the paper's
//! contribution — **wait-free strand coordination**: the hazardous race
//! between a worker's `popBottom()` and the sync-condition counter (Fig. 6)
//! is turned benign by arming the counter with `I_max` and restoring
//! `N_r = N_r' − (I_max − α)` at the explicit sync point (§IV-B), so no
//! locks are needed in the runtime's outer layer. Combined with the
//! lock-free Chase–Lev deque this yields the paper's synergy (§IV-C).
//!
//! ## Quick start
//!
//! ```
//! use nowa_runtime::{api, Config, Runtime};
//!
//! fn fib(n: u64) -> u64 {
//!     if n < 2 {
//!         return n;
//!     }
//!     let (a, b) = api::join2(|| fib(n - 1), || fib(n - 2));
//!     a + b
//! }
//!
//! let rt = Runtime::new(Config::with_workers(2)).unwrap();
//! assert_eq!(rt.run(|| fib(16)), 987);
//! // Serial elision: outside the runtime the same code runs serially.
//! assert_eq!(fib(10), 55);
//! ```
//!
//! ## Flavors
//!
//! The evaluation compares runtime systems; [`Flavor`] reproduces the axis:
//! the wait-free Nowa protocol over the CL or THE deque, and Fibril-style
//! locking. See [`flavor`].
//!
//! ## Caveats (inherent to continuation stealing)
//!
//! Code between a spawn and its sync may migrate between OS threads. The
//! safe combinators ([`api`]) bound everything that crosses by `Send`;
//! the raw [`api::Region`] API documents the obligations it cannot check.
//! Thread-locals must not be relied upon across spawn/sync points.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod api;
pub mod cancel;
pub mod chaos;
pub mod config;
pub mod fibril;
pub mod flavor;
pub mod foreign;
pub mod idle;
pub(crate) mod injector;
#[cfg(all(test, not(loom)))]
mod layout;
pub mod nowa;
mod obs;
pub mod reactor;
pub mod record;
pub mod runtime;
pub mod scheduler;
pub mod snapshot;
pub mod stats;
mod sync;
pub mod task;
pub mod time;
mod watchdog;
pub mod worker;

pub use api::{
    for_each, in_task, join2, join3, join4, map_reduce, par_for, par_map, worker_index, Region,
};
pub use cancel::{CancelReason, CancelToken, Cancelled};
pub use config::{ChaosConfig, Config, IdleConfig, SplitConfig};
pub use flavor::Flavor;
pub use foreign::ForeignForkJoin;
pub use nowa_context::MadvisePolicy;
pub use reactor::AsyncFd;
pub use runtime::{Runtime, RuntimeError, ShutdownError};
pub use snapshot::Snapshot;
pub use stats::StatsSnapshot;
pub use task::{block_on, JoinHandle};
pub use time::{sleep, timeout, Elapsed};
