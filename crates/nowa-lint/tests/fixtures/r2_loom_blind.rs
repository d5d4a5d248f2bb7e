//! R2 fixture, mapped to `nowa-runtime/src/record.rs`: the frame's fork
//! count `α` declared with a direct `core::sync::atomic` type. rustc and
//! the `--cfg loom` build both accept it, and every loom model still
//! passes: loom runs the access as a plain, sequentially consistent one
//! and never explores the stale reads a Relaxed `α` allows, so the models
//! silently cover less. Only R2 reports it.

use core::sync::atomic::AtomicU32;

use crate::sync::{AtomicI64, Ordering};

pub struct Frame {
    pub counter: AtomicI64,
    pub alpha: AtomicU32,
}

pub fn fork_bookkeeping(frame: &Frame) {
    // ordering: main-flow-private fork count (Invariant II).
    frame.alpha.fetch_add(1, Ordering::Relaxed);
}
