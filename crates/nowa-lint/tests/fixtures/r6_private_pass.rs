//! R6 private-marker pass fixture: owner-only `Cell` state is fine, and a
//! deliberate advisory probe carries an inline allow.

use core::cell::Cell;

use crate::sync::{AtomicU64, Ordering};

// lint: wait-free private
pub fn owner_pop(tail: &Cell<u64>) -> Option<u64> {
    let t = tail.get();
    if t == 0 {
        return None;
    }
    tail.set(t - 1);
    Some(t)
}

// lint: wait-free private
pub fn owner_push_with_probe(tail: &Cell<u64>, hungry: &AtomicU64) -> bool {
    tail.set(tail.get() + 1);
    hungry.load(Ordering::Relaxed) != 0 // lint: allow(R6) — fixture-sanctioned advisory probe
}
