//! R6 fixture (fail): a ring record marked with the retired `hot-path`
//! marker (which never checked loops) that spins until a slot frees up.

pub struct Ring {
    free: u64,
}

impl Ring {
    fn try_claim(&self) -> bool {
        self.free > 0
    }

    // lint: hot-path
    #[inline]
    pub fn record(&self, ev: u64) -> u64 {
        loop {
            if self.try_claim() {
                return ev;
            }
        }
    }
}
