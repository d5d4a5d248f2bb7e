//! The idle engine: eventcount-style futex parking with targeted wakeups.
//!
//! The work-finding loop must not burn cores when the runtime is quiescent,
//! but the spawn hot path must also never pay a syscall (the paper's whole
//! point is a lock- and syscall-free fork/join fast path). The classic
//! resolution is an *eventcount*: sleepers announce themselves in shared
//! state cheap enough for producers to check with one relaxed load, and the
//! announce/park sequence is constructed so a concurrent producer either
//! sees the sleeper (and wakes it) or the sleeper sees the producer's work
//! (and aborts the park). This module implements that protocol on raw
//! futexes ([`nowa_context::sys::futex_wait`]) — no condvar, no lock.
//!
//! # Protocol
//!
//! One packed `AtomicU64` word holds `[epoch:32 | sleepers:32]`:
//!
//! * **Workers** descend spin → yield → park. Before parking they
//!   [`announce`](IdleState::announce) (slot → `WAITING`, mask bit set,
//!   sleeper count incremented with a `SeqCst` RMW — the heavy barrier),
//!   then *re-scan every work source*. Anything runnable ⇒
//!   [`cancel`](IdleState::cancel) and go steal it. Nothing ⇒
//!   [`park`](IdleState::park), which re-validates the epoch and then
//!   `futex_wait`s on the worker's private slot.
//! * **Producers** (spawn path) do one relaxed load of the sleeper count;
//!   only when sleepers exist does [`wake_one`](IdleState::wake_one) run:
//!   it bumps the epoch (`SeqCst` RMW — pairs with the announcer's barrier
//!   and invalidates any in-flight announce) and claims one parked worker
//!   via the mask, flipping its slot `WAITING → NOTIFIED` and issuing one
//!   `FUTEX_WAKE`.
//!
//! A worker between announce and park observes either the producer's epoch
//! bump (validation fails, park aborts) or the produced work itself in its
//! re-scan; a producer that misses a *concurrent* announce had its push
//! ordered before the announcer's re-scan by the two `SeqCst` RMWs. The one
//! remaining hole is inherent to the relaxed producer-side load (a producer
//! whose store is still in its store buffer can read a stale sleeper count
//! of 0 while the sleeper's re-scan also misses the not-yet-visible push);
//! it is closed belt-and-braces by the bounded park timeout
//! ([`IdleConfig::max_park`](crate::config::IdleConfig)): a parked worker
//! self-wakes after ~1 ms and re-scans. That bound is the *worst case* of a
//! vanishingly rare race, not the common-case latency the old 200 µs blind
//! self-wake imposed on every deep-idle wakeup.
//!
//! # Targeted wakes
//!
//! `wake_one` wakes exactly one worker (the old condvar `notify_all`
//! stampeded every sleeper at every root submission). Workers `< 64` are
//! claimed through a `parked_mask` bit (one CAS, no scan); beyond that the
//! waker falls back to scanning the slot array.

use crate::sync::{futex_wait, futex_wake, AtomicU32, AtomicU64, Ordering};

/// Slot states. `WAITING` is the futex-wait value; a waker moves the slot
/// to `NOTIFIED` *before* the `FUTEX_WAKE`, so a worker that wasn't asleep
/// yet sees the notification on its own and skips the kernel entirely.
const IDLE: u32 = 0;
const WAITING: u32 = 1;
const NOTIFIED: u32 = 2;

/// Width of the `parked_mask`; workers beyond it are woken via slot scan.
const MASK_BITS: usize = 64;

const EPOCH_SHIFT: u32 = 32;
const SLEEPERS_MASK: u64 = (1 << EPOCH_SHIFT) - 1;

/// One worker's park flag, padded so futex traffic on one slot never
/// bounces a neighbour's cache line.
#[repr(align(128))]
#[derive(Debug)]
pub(crate) struct ParkSlot {
    state: AtomicU32,
}

/// Per-runtime idle coordination state. See the module docs for the
/// protocol; all methods are lock-free except the two that intentionally
/// enter the kernel (`park` via `FUTEX_WAIT`, wakes via `FUTEX_WAKE`).
#[derive(Debug)]
pub struct IdleState {
    /// Packed `[epoch:32 | sleepers:32]`.
    word: AtomicU64,
    /// Bit `i` set ⇒ worker `i` (< [`MASK_BITS`]) is announced or parked.
    parked_mask: AtomicU64,
    /// One futex word per worker.
    slots: Box<[ParkSlot]>,
}

impl IdleState {
    /// Idle state for `workers` workers.
    pub fn new(workers: usize) -> IdleState {
        IdleState {
            word: AtomicU64::new(0),
            parked_mask: AtomicU64::new(0),
            slots: (0..workers)
                .map(|_| ParkSlot {
                    state: AtomicU32::new(IDLE),
                })
                .collect(),
        }
    }

    /// Current sleeper count — the producer-side hot-path load, hence
    /// `Relaxed` (see the module docs for why that is sound here).
    #[inline]
    pub fn sleepers(&self) -> u32 {
        (self.word.load(Ordering::Relaxed) & SLEEPERS_MASK) as u32
    }

    /// Current epoch.
    #[inline]
    pub fn epoch(&self) -> u32 {
        (self.word.load(Ordering::Acquire) >> EPOCH_SHIFT) as u32
    }

    /// Whether worker `index` is currently announced or parked. Racy by
    /// nature; used by the watchdog to classify parked workers as healthy.
    #[inline]
    pub fn is_parked(&self, index: usize) -> bool {
        self.slots[index].state.load(Ordering::Relaxed) != IDLE
    }

    /// Announces worker `index`'s intent to sleep and returns the epoch to
    /// validate against in [`park`](IdleState::park). The caller **must**
    /// re-scan all work sources after this call and either `cancel` or
    /// `park` — never abandon an announce.
    // lint: wait-free
    pub fn announce(&self, index: usize) -> u32 {
        self.slots[index].state.store(WAITING, Ordering::Relaxed);
        if index < MASK_BITS {
            self.parked_mask.fetch_or(1 << index, Ordering::AcqRel);
        }
        // The SeqCst RMW publishes the slot/mask stores with the sleeper
        // count and — paired with the wakers' SeqCst epoch bump — orders
        // this announce before the caller's validation re-scan.
        let w = self.word.fetch_add(1, Ordering::SeqCst);
        debug_assert!(
            (w & SLEEPERS_MASK) < self.slots.len() as u64,
            "more sleepers than workers"
        );
        (w >> EPOCH_SHIFT) as u32
    }

    /// Revokes an announce (the validation re-scan found work). Returns
    /// `true` when a targeted wake had already claimed this worker — the
    /// caller should pass the wake on ([`wake_one`](IdleState::wake_one))
    /// so the work that triggered it still gets a thief.
    // lint: wait-free
    pub fn cancel(&self, index: usize) -> bool {
        if index < MASK_BITS {
            self.parked_mask.fetch_and(!(1 << index), Ordering::AcqRel);
        }
        let w = self.word.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(w & SLEEPERS_MASK != 0, "idle sleeper count underflow");
        self.slots[index].state.swap(IDLE, Ordering::AcqRel) == NOTIFIED
    }

    /// Parks worker `index` until a targeted wake, the timeout, or a missed
    /// epoch. Must follow an [`announce`](IdleState::announce) that
    /// returned `epoch`; always departs (the announce is consumed).
    /// Returns `true` iff the park ended by a targeted wake — everything
    /// else counts as a spurious return for accounting purposes.
    ///
    /// `skip_wait` skips the kernel wait (chaos injection of a spurious
    /// wake) while keeping the announce/depart pairing intact.
    pub fn park(&self, index: usize, epoch: u32, timeout_ns: u64, skip_wait: bool) -> bool {
        let slot = &self.slots[index].state;
        // Epoch validation: a wake issued since our announce means new work
        // (or shutdown) — fall through to depart and re-scan instead of
        // sleeping through it.
        if !skip_wait && self.epoch() == epoch {
            let _ = futex_wait(slot, WAITING, Some(timeout_ns));
        }
        // Depart. A targeted wake claimed our mask bit already; on the
        // spurious paths we clear it ourselves.
        let woken = slot.swap(IDLE, Ordering::AcqRel) == NOTIFIED;
        if !woken && index < MASK_BITS {
            self.parked_mask.fetch_and(!(1 << index), Ordering::AcqRel);
        }
        let w = self.word.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(w & SLEEPERS_MASK != 0, "idle sleeper count underflow");
        woken
    }

    /// Wakes exactly one announced/parked worker, if any. Returns the index
    /// of the worker claimed. Always bumps the epoch first, so even when no
    /// sleeper is claimable yet, any worker between announce and park will
    /// fail its validation and re-scan.
    // lint: wait-free
    pub fn wake_one(&self) -> Option<usize> {
        // SeqCst: pairs with the announcer's RMW — the waker's prior work
        // publication is ordered before the sleeper scan below.
        self.word.fetch_add(1 << EPOCH_SHIFT, Ordering::SeqCst);
        // lint: bounded(MASK_BITS — every pass claims or clears one parked
        // bit, and a CAS miss means a concurrent waker claimed one)
        loop {
            let mask = self.parked_mask.load(Ordering::Acquire);
            if mask == 0 {
                return self.wake_scan();
            }
            let idx = mask.trailing_zeros() as usize;
            if self
                .parked_mask
                .compare_exchange_weak(
                    mask,
                    mask & !(1 << idx),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_err()
            {
                continue;
            }
            let slot = &self.slots[idx].state;
            if slot
                .compare_exchange(WAITING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // The worker may already be asleep in the kernel on the old
                // value; the wake is unconditional (one syscall, and only
                // on the path that found a sleeper).
                futex_wake(slot, 1);
                return Some(idx);
            }
            // The worker departed between our mask claim and the slot CAS
            // (cancel or timeout); try the next candidate.
        }
    }

    /// Mask-less fallback: claim any waiting worker `>= MASK_BITS` by slot
    /// scan (runtimes that wide are rare; correctness over elegance).
    fn wake_scan(&self) -> Option<usize> {
        for (i, s) in self.slots.iter().enumerate().skip(MASK_BITS) {
            if s.state
                .compare_exchange(WAITING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                futex_wake(&s.state, 1);
                return Some(i);
            }
        }
        None
    }

    /// Wakes every announced/parked worker (shutdown path).
    pub fn wake_all(&self) {
        self.word.fetch_add(1 << EPOCH_SHIFT, Ordering::SeqCst);
        let mut mask = self.parked_mask.swap(0, Ordering::AcqRel);
        while mask != 0 {
            let idx = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let slot = &self.slots[idx].state;
            if slot
                .compare_exchange(WAITING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                futex_wake(slot, 1);
            }
        }
        for s in self.slots.iter().skip(MASK_BITS) {
            if s.state
                .compare_exchange(WAITING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                futex_wake(&s.state, 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn announce_cancel_pairs() {
        let idle = IdleState::new(4);
        assert_eq!(idle.sleepers(), 0);
        let e = idle.announce(2);
        assert_eq!(idle.sleepers(), 1);
        assert!(idle.is_parked(2));
        assert!(!idle.cancel(2), "no wake was issued");
        assert_eq!(idle.sleepers(), 0);
        assert!(!idle.is_parked(2));
        assert_eq!(idle.epoch(), e, "cancel does not bump the epoch");
    }

    #[test]
    fn wake_one_with_no_sleepers_only_bumps_epoch() {
        let idle = IdleState::new(4);
        let e = idle.epoch();
        assert_eq!(idle.wake_one(), None);
        assert_eq!(idle.epoch(), e + 1);
        assert_eq!(idle.sleepers(), 0);
    }

    #[test]
    fn epoch_validation_aborts_park() {
        let idle = IdleState::new(2);
        let epoch = idle.announce(0);
        idle.word.fetch_add(1 << EPOCH_SHIFT, Ordering::SeqCst); // epoch moved on
        let t0 = std::time::Instant::now();
        let woken = idle.park(0, epoch, 1_000_000_000, false);
        assert!(!woken);
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(500),
            "park must not sleep through a stale epoch"
        );
        assert_eq!(idle.sleepers(), 0, "park always departs");
    }

    #[test]
    fn skip_wait_departs_without_sleeping() {
        let idle = IdleState::new(2);
        let epoch = idle.announce(1);
        assert!(!idle.park(1, epoch, u64::MAX, true));
        assert_eq!(idle.sleepers(), 0);
    }

    #[test]
    fn targeted_wake_unparks_exactly_one() {
        let idle = Arc::new(IdleState::new(2));
        let woken_flag = Arc::new(AtomicBool::new(false));
        let t = {
            let idle = idle.clone();
            let woken_flag = woken_flag.clone();
            // Re-announce until woken, as a worker would: a sleeper that
            // reads the waker's epoch bump skips the futex, and if its
            // departing swap lands before the waker's `WAITING → NOTIFIED`
            // CAS it leaves unwoken and that `wake_one` claims no one.
            std::thread::spawn(move || loop {
                let epoch = idle.announce(0);
                if idle.park(0, epoch, 5_000_000_000, false) {
                    woken_flag.store(true, Ordering::SeqCst);
                    break;
                }
            })
        };
        // Wait until the sleeper is visible, then wake it.
        while idle.sleepers() == 0 {
            std::thread::yield_now();
        }
        // The sleeper may still be pre-futex or between announces; the
        // waker retries until one `wake_one` claims it.
        let claimed = loop {
            if let Some(i) = idle.wake_one() {
                break i;
            }
            std::thread::yield_now();
        };
        assert_eq!(claimed, 0);
        t.join().unwrap();
        assert!(woken_flag.load(Ordering::SeqCst), "park reports the wake");
        assert_eq!(idle.sleepers(), 0);
        assert_eq!(idle.wake_one(), None, "the wake was consumed");
    }

    #[test]
    fn cancel_reports_consumed_notify() {
        let idle = IdleState::new(2);
        let _ = idle.announce(0);
        assert_eq!(idle.wake_one(), Some(0));
        assert!(idle.cancel(0), "the claimed wake is surfaced to the caller");
        assert_eq!(idle.sleepers(), 0);
    }

    /// The underflow invariant: concurrent announce/cancel/park against a
    /// wake-hammering thread never drives the sleeper count below zero
    /// (the debug_asserts in cancel/park are the checked oracle; the final
    /// count must come back to exactly zero).
    #[test]
    fn sleeper_word_never_underflows_under_stress() {
        let workers = 4;
        let idle = Arc::new(IdleState::new(workers));
        let stop = Arc::new(AtomicBool::new(false));

        let waker = {
            let idle = idle.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    idle.wake_one();
                }
            })
        };
        let sleepers: Vec<_> = (0..workers)
            .map(|i| {
                let idle = idle.clone();
                std::thread::spawn(move || {
                    for round in 0..2000 {
                        let epoch = idle.announce(i);
                        if round % 3 == 0 {
                            if idle.cancel(i) {
                                idle.wake_one();
                            }
                        } else {
                            // Short timed park; outcome irrelevant, the
                            // pairing discipline is what's under test.
                            idle.park(i, epoch, 10_000, round % 2 == 0);
                        }
                    }
                })
            })
            .collect();
        for t in sleepers {
            t.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        waker.join().unwrap();
        assert_eq!(
            idle.sleepers(),
            0,
            "every announce was departed exactly once"
        );
        for i in 0..workers {
            assert!(!idle.is_parked(i));
        }
    }

    #[test]
    fn wake_all_unparks_everyone() {
        let n = 3;
        let idle = Arc::new(IdleState::new(n));
        let threads: Vec<_> = (0..n)
            .map(|i| {
                let idle = idle.clone();
                std::thread::spawn(move || {
                    let epoch = idle.announce(i);
                    idle.park(i, epoch, 5_000_000_000, false)
                })
            })
            .collect();
        while idle.sleepers() < n as u32 {
            std::thread::yield_now();
        }
        idle.wake_all();
        for t in threads {
            // Every park ends promptly; `woken` may be true or (rarely)
            // false if a worker was still pre-futex when the epoch moved.
            let _ = t.join().unwrap();
        }
        assert_eq!(idle.sleepers(), 0);
    }
}
