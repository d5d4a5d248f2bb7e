//! cfg-twinned concurrency primitives for the runtime's modeled protocols
//! (the `obs`/`chaos` zero-cost pattern, applied to atomics and futexes).
//!
//! Normal builds re-export `core::sync::atomic` and the raw futex wrappers
//! from `nowa-context::sys` — this module compiles to nothing. Under
//! `RUSTFLAGS="--cfg loom"` the same names resolve to the model-checked
//! twins from the vendored `loom` crate, so the protocol modules (`idle`,
//! `record`, `nowa`) run unmodified inside `loom::model` and their memory
//! orderings are explored exhaustively (see `tests/loom.rs`).
//!
//! Modules that are *not* modeled (`worker`, `scheduler`, `stats`, …) keep
//! using `core::sync::atomic` directly — their atomics are deliberately
//! invisible to the checker, which keeps the model state spaces small.
//! Every atomic in a modeled module, however, must go through this shim; a
//! direct `core::sync::atomic` access there would silently weaken the
//! models.

#[cfg(not(loom))]
pub(crate) use core::sync::atomic::{
    AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering,
};

#[cfg(loom)]
pub(crate) use loom::sync::atomic::{
    AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering,
};

// Exported from both arms (cfg-twin parity): only the loom arm's
// `futex_wait` wrapper names the type itself, but callers must be able to
// match on the result under either cfg.
#[allow(unused_imports)]
pub(crate) use nowa_context::sys::FutexWait;

#[cfg(not(loom))]
pub(crate) use nowa_context::sys::{futex_wait, futex_wake};

/// Modeled `FUTEX_WAIT`. A timeout of `None` or `u64::MAX` maps to an
/// *untimed* modeled wait — a sleeper nobody wakes is then reported as a
/// deadlock, which is exactly the lost-wakeup detector the idle-engine
/// models rely on. Finite timeouts map to a timed wait, which in the model
/// only fires at quiescence (see `loom::futex`).
#[cfg(loom)]
pub(crate) fn futex_wait(addr: &AtomicU32, expected: u32, timeout_ns: Option<u64>) -> FutexWait {
    let timed = matches!(timeout_ns, Some(ns) if ns != u64::MAX);
    match loom::futex::futex_wait(addr, expected, timed) {
        loom::futex::FutexResult::Woken => FutexWait::Woken,
        loom::futex::FutexResult::NotExpected => FutexWait::NotExpected,
        loom::futex::FutexResult::TimedOut => FutexWait::TimedOut,
    }
}

/// Modeled `FUTEX_WAKE`.
#[cfg(loom)]
pub(crate) fn futex_wake(addr: &AtomicU32, count: u32) -> usize {
    loom::futex::futex_wake(addr, count as usize)
}
