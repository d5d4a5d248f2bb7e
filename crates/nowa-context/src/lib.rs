//! Execution-context substrate for the Nowa concurrency platform.
//!
//! Everything the continuation-stealing scheduler needs from the machine and
//! the operating system, with no dependency on `libc`:
//!
//! * [`context`] — capture/resume/switch of machine contexts via hand-written
//!   assembly (x86_64 and aarch64 SysV).
//! * [`stack`] — guarded fiber stacks and the `madvise`-based practical
//!   cactus-stack solution the paper evaluates in §V-B.
//! * [`pool`] — per-worker stack caches over a global recirculation pool
//!   (the design whose bottleneck §V-A discusses).
//! * [`signal`] — guard-page fault diagnostics: a registry of fiber stacks
//!   plus a SIGSEGV handler that turns an anonymous overflow crash into a
//!   report naming the worker and the stack bounds.
//! * [`sys`] — the minimal raw Linux syscall layer underneath.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod context;
pub mod pool;
pub mod signal;
pub mod stack;
pub mod sys;

pub use context::{capture_and_run_on, resume, switch, RawContext};
pub use pool::{StackPool, WorkerStackCache};
pub use stack::{MadvisePolicy, Stack, StackError};
