//! The trace clock: nanoseconds since a process-wide epoch, and the
//! per-worker [`Stamp`] that amortizes reading it.

use core::cell::Cell;
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds elapsed since the first call in this process.
///
/// After the first call this is one atomic load plus a monotonic clock
/// read; all workers share the epoch, so timestamps are comparable across
/// threads.
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// How often hot-path events take a fresh clock reading: every
/// `2^STAMP_SHIFT`-th hot event reads the monotonic clock; the ones in
/// between reuse the last reading. A clock read costs tens of
/// nanoseconds — more than a fine-grained spawn itself — so stamping
/// every event would double the runtime of spawn-bound kernels
/// (`benchmark/` reports the traced ÷ untraced ratio; what a test asserts
/// is the event count per spawn, in nowa-runtime's `tests/causal.rs`).
/// Staleness is bounded by `2^STAMP_SHIFT` *hot* events: rare-path
/// events (steals, syncs, idle/park transitions) always stamp precisely
/// and refresh the shared reading, so timestamps stay monotonic per
/// worker and dense event bursts — the only periods that reuse stamps —
/// are exactly the periods with no scheduling gaps to mis-measure.
pub const STAMP_SHIFT: u32 = 6;

/// One worker's timestamp source. A worker stamps each event once, here,
/// and hands the same [`Event`](crate::Event) to every sink it records
/// into — trace buffer and flight ring alike — so one event never
/// carries two timestamps, and the flight recorder pays no more per hot
/// event than full tracing does.
///
/// Worker-private (`!Sync`): only the owning worker stamps.
#[derive(Debug, Default)]
pub struct Stamp {
    /// Hot events stamped, for amortization ([`STAMP_SHIFT`]).
    tick: Cell<u64>,
    /// The last clock reading taken.
    last_ns: Cell<u64>,
}

impl Stamp {
    /// A fresh clock reading, which later [`Stamp::hot`] calls reuse: every
    /// precise (rare-path) reading goes through here, so a hot event can
    /// never be stamped earlier than a preceding precise one.
    #[inline]
    pub fn fresh(&self) -> u64 {
        let ts = now_ns();
        self.last_ns.set(ts);
        ts
    }

    /// An amortized reading for hot-path events: fresh every
    /// `2^`[`STAMP_SHIFT`]`-th` call, the last reading otherwise.
    #[inline]
    pub fn hot(&self) -> u64 {
        let tick = self.tick.get();
        self.tick.set(tick + 1);
        if tick & ((1 << STAMP_SHIFT) - 1) == 0 {
            self.fresh()
        } else {
            self.last_ns.get()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_and_shared() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
        let c = std::thread::spawn(now_ns).join().unwrap();
        // The other thread's reading uses the same epoch: it must be close
        // to (and at least) this thread's earlier reading.
        assert!(c >= a);
    }

    #[test]
    fn hot_stamps_reuse_the_last_reading() {
        let stamp = Stamp::default();
        let first = stamp.hot(); // tick 0 reads the clock
        std::thread::sleep(std::time::Duration::from_millis(1));
        for _ in 1..(1 << STAMP_SHIFT) {
            assert_eq!(stamp.hot(), first, "reused until the next period");
        }
        assert!(stamp.hot() > first, "every 2^STAMP_SHIFT-th reads afresh");
        let precise = stamp.fresh();
        assert_eq!(stamp.hot(), precise, "a fresh reading refreshes hot ones");
    }
}
