//! R6 private-marker fail fixture: a claimed-private fast path that
//! synchronizes through a shared atomic.

use crate::sync::{AtomicU64, Ordering};

// lint: wait-free private
pub fn fast(flag: &AtomicU64) -> u64 {
    flag.load(Ordering::Acquire)
}
