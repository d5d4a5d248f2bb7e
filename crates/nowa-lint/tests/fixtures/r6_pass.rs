//! R6 fixture (pass): wait-free fns whose claims hold — straight-line
//! code, an atomic counter, a bounded drain loop, a call to a benign
//! local helper, and an inline allow for a deliberate exception.

use crate::sync::{AtomicU64, Ordering};

pub struct Counter {
    bits: u64,
}

fn saturate(v: u64) -> u64 {
    v.min(u64::MAX - 1)
}

impl Counter {
    // lint: wait-free
    pub fn bump(&mut self) -> u64 {
        self.bits = saturate(self.bits) + 1;
        self.bits
    }

    // lint: wait-free
    pub fn drain(&mut self, max: usize) -> usize {
        let mut n = 0;
        // lint: bounded(max — one item per pass)
        while n < max {
            self.bits = saturate(self.bits);
            n += 1;
        }
        n
    }
}

// lint: wait-free
pub fn fast(x: &AtomicU64) -> u64 {
    // ordering: fixture counter.
    x.fetch_add(1, Ordering::Relaxed)
}

// lint: wait-free
pub fn fast_with_exception(items: &mut Vec<u64>) {
    items.push(1); // lint: allow(R6) — fixture-sanctioned exception
}
