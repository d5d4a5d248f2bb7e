//! R6 fixture (fail): wait-free fns that allocate — one directly, one a
//! call deep (the shape of `push → grow`).

fn boxed(v: u64) -> Box<u64> {
    Box::new(v)
}

// lint: wait-free
pub fn fast() -> Box<u64> {
    Box::new(42)
}

// lint: wait-free
pub fn fast_via_helper() -> Box<u64> {
    boxed(7)
}
