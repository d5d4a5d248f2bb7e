//! Seeded inputs: the run's `--seed` is the only source of randomness.

/// xorshift64* — the generator the kernels' own input builders use.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // splitmix64 step: nearby seeds must not give nearby streams.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [-0.5, 0.5).
    pub fn centered(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }
}

/// One open-loop arrival: when it is due and which connection carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Nanoseconds after the phase's start line.
    pub due_ns: u64,
    pub conn: usize,
}

/// A Poisson arrival process of `rate` per second lasting `seconds`,
/// spread uniformly over `conns` connections. Always at least one arrival.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64, conns: usize) -> Vec<Arrival> {
    let mut rng = Rng::new(seed);
    let horizon_ns = (seconds * 1e9) as u64;
    let mut at = 0u64;
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 1);
    loop {
        at += (-rng.unit().ln() / rate * 1e9) as u64;
        if at > horizon_ns && !out.is_empty() {
            return out;
        }
        out.push(Arrival {
            due_ns: at,
            conn: (rng.next_u64() % conns as u64) as usize,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_repeats_for_equal_seeds_and_differs_across_seeds() {
        let a = poisson_schedule(7, 500.0, 2.0, 2);
        assert_eq!(a, poisson_schedule(7, 500.0, 2.0, 2));
        assert_ne!(a, poisson_schedule(8, 500.0, 2.0, 2));
    }

    #[test]
    fn schedule_has_the_requested_rate_and_order() {
        let s = poisson_schedule(1, 8000.0, 1.0, 2);
        assert!((7500..8500).contains(&s.len()), "{} arrivals", s.len());
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(s.iter().all(|a| a.conn < 2 && a.due_ns <= 1_000_000_000));
        assert!(s.iter().any(|a| a.conn == 0) && s.iter().any(|a| a.conn == 1));
    }
}
