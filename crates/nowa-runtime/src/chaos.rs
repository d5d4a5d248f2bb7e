//! Fault injection: deterministic, seeded chaos at every scheduler
//! decision — the one place that decides **and delivers** a fault.
//!
//! Compiled into every build, but reached only from the runtimes that ask
//! for it. The scheduler is generic over
//! [`Protocol`](crate::flavor::Protocol), and every hook site in generic
//! code sits behind `if P::CHAOS`: a runtime built with a [`ChaosConfig`]
//! runs the [`Chaotic<P>`](crate::flavor::Chaotic) instance of its
//! protocol, where the constant is `true`; every other runtime runs the
//! plain instance, which holds no chaos code at all. The two sites off the
//! scheduler's generic path (an async park in `task.rs`, the reactor poll)
//! look the configuration up at run time.
//!
//! # Determinism
//!
//! Whether site `s` injects at its `k`-th visit on worker `w` is a pure
//! function `decision(seed, w, s, k)` — a splitmix64-style hash chain, no
//! wall clock, no shared state. Per-worker tick counters make the sequence
//! independent of cross-worker interleaving: replaying the same seed on the
//! same configuration visits the same decisions in the same per-worker
//! order. (Which *global* interleaving results still depends on the OS
//! scheduler; the injection sequence each worker sees does not.)
//!
//! # Delivery
//!
//! Each hook delivers its fault at the call site it perturbs, through a
//! handle the worker already holds. The lower crates know nothing of
//! chaos: they expose plain owner-handle methods
//! ([`SplitWorker::fail_next_promotion`](nowa_deque::SplitWorker::fail_next_promotion),
//! [`WorkerStackCache::arm_map_failures`](nowa_context::WorkerStackCache::arm_map_failures))
//! and have no cargo feature and no thread-local. The injected faults:
//!
//! * **StealFail** — the work-finding loop's steal attempt is replaced by
//!   a forced failure (alternating `Retry` / `Empty`); the victim's deque
//!   is not touched.
//! * **ForceSuspend** — `sync_execute`'s fast path is vetoed, forcing the
//!   suspension path (capture, Eq. 5 restore, work-finding) even when all
//!   children already joined.
//! * **SpuriousYield** — an OS yield right before `pushBottom`, widening
//!   the window in which thieves observe the pre-push deque state.
//! * **MmapFail** — arms one stack-map failure on the worker's stack
//!   cache; the next cache miss hands it to the pool, whose bounded retry
//!   consumes it.
//! * **ChildPanic** — panics inside a child strand with a recognisable
//!   `ChaosPanic` payload, exercising panic capture and re-throw.
//! * **SpuriousWake** — a park consumes its announce but skips the kernel
//!   wait, simulating a spurious futex return.
//! * **ForceCancel** — latches the enclosing region's cancellation scope
//!   at a steal, sync, or suspend boundary, as if its token had been
//!   cancelled at the worst possible moment.
//! * **ForcePromote** — at the spawn-push site, alternately forces an
//!   out-of-band private→public promotion batch or makes the next
//!   promotion fail as if the public deque were full (the split layer's
//!   put-back arm runs). Fires once per spawn visit, so it is
//!   replay-deterministic and armed by `ChaosConfig::aggressive`.
//! * **ReactorSkipWait** — the claimed reactor poller skips its
//!   `epoll_wait`: no event is dispatched and only the due deadlines fire,
//!   exercising the re-validate loop around the poll (§6h).
//!
//! The idle and reactor sites are *not* armed by
//! `ChaosConfig::aggressive`: their visit counts depend on wall-clock
//! idleness, so arming them would break the exact snapshot-equality
//! determinism gates. `ForceCancel` stays unarmed there too — cancellation
//! reshapes the strand tree. Dedicated tests arm them explicitly.

use core::sync::atomic::{AtomicU64, Ordering};

use nowa_deque::Steal;

use crate::config::ChaosConfig;
use crate::flavor::ForcedPromotion;
use crate::worker::Worker;

/// Marker payload of an injected child panic, so tests (and users
/// catching panics) can tell injected faults from real bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPanic {
    /// Worker the panic was injected on.
    pub worker: usize,
}

/// The injection sites, one per scheduler decision kind. A site's
/// discriminant is its `site` input to [`decision`]; the surviving
/// sites keep the numbers they always had, so a seed still yields the
/// same per-worker fault sequence at each of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ChaosSite {
    /// Forced steal failure in the work-finding loop.
    StealFail = 0,
    /// Forced suspension at `sync_execute`.
    ForceSuspend = 1,
    /// Spurious yield before `pushBottom`.
    SpuriousYield = 2,
    /// Simulated stack-`mmap` failure.
    MmapFail = 3,
    /// Panic injected into a child strand.
    ChildPanic = 4,
    /// The claimed reactor poller skips `epoll_wait`: nothing is
    /// dispatched, only the due deadlines fire.
    ReactorSkipWait = 5,
    /// Spurious (kernel-less) return from a park.
    SpuriousWake = 6,
    /// Forced cancellation of the enclosing region at a steal, sync,
    /// or suspend boundary.
    ForceCancel = 7,
    /// Forced promotion event at the spawn-push site (out-of-band
    /// batch or promotion failure, alternating).
    ForcePromote = 8,
}

/// Number of distinct injection sites.
pub const SITES: usize = 9;

const SITE_NAMES: [&str; SITES] = [
    "steal_fail",
    "force_suspend",
    "spurious_yield",
    "mmap_fail",
    "child_panic",
    "reactor_skip_wait",
    "spurious_wake",
    "force_cancel",
    "force_promote",
];

/// Per-worker chaos state: one tick and one injected counter per site.
/// Padded like the stats blocks so chaos bookkeeping doesn't introduce
/// false sharing of its own.
#[repr(align(128))]
#[derive(Debug)]
pub struct ChaosWorkerState {
    seed: u64,
    worker: u64,
    ticks: [AtomicU64; SITES],
    injected: [AtomicU64; SITES],
}

impl ChaosWorkerState {
    /// State for `worker` under `seed`.
    pub fn new(seed: u64, worker: usize) -> ChaosWorkerState {
        ChaosWorkerState {
            seed,
            worker: worker as u64,
            ticks: [const { AtomicU64::new(0) }; SITES],
            injected: [const { AtomicU64::new(0) }; SITES],
        }
    }

    /// Advances `site`'s tick and decides whether to inject, given the
    /// site's rate (per 65536; `u16::MAX` means always).
    #[inline]
    fn decide(&self, site: ChaosSite, rate: u16) -> bool {
        if rate == 0 {
            return false;
        }
        let tick = self.ticks[site as usize].fetch_add(1, Ordering::Relaxed);
        if !decision(self.seed, self.worker, site as u64, tick, rate) {
            return false;
        }
        self.injected[site as usize].fetch_add(1, Ordering::Relaxed);
        true
    }

    fn snapshot_into(&self, snap: &mut ChaosSnapshot) {
        for i in 0..SITES {
            snap.ticks[i] += self.ticks[i].load(Ordering::Relaxed);
            snap.injected[i] += self.injected[i].load(Ordering::Relaxed);
        }
    }
}

/// splitmix64 finaliser; full-avalanche 64-bit mix.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The pure injection decision: does site `site` inject at its `tick`-th
/// visit on worker `worker` under `seed` and `rate` (per 65536)?
/// Exposed so determinism tests can replay the sequence without a
/// runtime.
pub fn decision(seed: u64, worker: u64, site: u64, tick: u64, rate: u16) -> bool {
    if rate == u16::MAX {
        // "Always": an exact guarantee, not a 65535/65536 coin.
        return true;
    }
    let h = mix(
        mix(mix(seed ^ 0x6E6F_7761) ^ worker.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(site)
            .wrapping_add(tick.wrapping_mul(0xD134_2543_DE82_EF95)),
    );
    ((h & 0xFFFF) as u16) < rate
}

/// Counters of one run, aggregated over workers; equality of two
/// snapshots is the determinism-test criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosSnapshot {
    /// Site visits, indexed by [`ChaosSite`].
    pub ticks: [u64; SITES],
    /// Injections fired, indexed by [`ChaosSite`].
    pub injected: [u64; SITES],
}

impl ChaosSnapshot {
    /// Aggregates the per-worker states.
    pub fn aggregate(states: &[ChaosWorkerState]) -> ChaosSnapshot {
        let mut snap = ChaosSnapshot::default();
        for s in states {
            s.snapshot_into(&mut snap);
        }
        snap
    }

    /// Injections fired at `site`.
    pub fn injected_at(&self, site: ChaosSite) -> u64 {
        self.injected[site as usize]
    }

    /// Every site as `(name, injected, visits)` — what the snapshot
    /// renderers walk.
    pub fn sites(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        (0..SITES).map(|i| (SITE_NAMES[i], self.injected[i], self.ticks[i]))
    }
}

impl core::fmt::Display for ChaosSnapshot {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for (i, (name, injected, visits)) in self.sites().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{name}={injected}/{visits}")?;
        }
        Ok(())
    }
}

/// The calling worker's chaos state, when chaos is configured.
///
/// # Safety
/// `worker` must be a live worker pointer owned by the calling thread.
#[inline]
unsafe fn state<'a>(worker: *mut Worker) -> Option<(&'a ChaosWorkerState, &'a ChaosConfig)> {
    unsafe {
        let w = &*worker;
        let cfg = w.shared.config.chaos.as_ref()?;
        Some((&w.shared.chaos.as_deref()?[w.index], cfg))
    }
}

/// Before a steal attempt: `Some` is the forced failure the caller
/// takes in place of stealing, alternating `Retry` and `Empty` so both
/// the lost-race and the empty-victim paths run.
///
/// # Safety
/// `worker` must be the calling thread's live worker.
#[inline]
pub(crate) unsafe fn on_steal_attempt<T>(worker: *mut Worker) -> Option<Steal<T>> {
    let (st, cfg) = unsafe { state(worker) }?;
    if !st.decide(ChaosSite::StealFail, cfg.steal_fail) {
        return None;
    }
    let n = st.injected[ChaosSite::StealFail as usize].load(Ordering::Relaxed);
    Some(if n % 2 == 0 {
        Steal::Retry
    } else {
        Steal::Empty
    })
}

/// At `sync_execute`: returns `true` to veto the inline fast path and
/// force the suspension path.
///
/// # Safety
/// `worker` must be the calling thread's live worker.
#[inline]
pub(crate) unsafe fn on_sync(worker: *mut Worker) -> bool {
    unsafe { fires(worker, ChaosSite::ForceSuspend, |c| c.force_suspend) }
}

/// Right before `pushBottom`: maybe yield the OS thread, widening the
/// thief-vs-owner race window.
///
/// # Safety
/// `worker` must be the calling thread's live worker.
#[inline]
pub(crate) unsafe fn on_spawn_push(worker: *mut Worker) {
    if unsafe { fires(worker, ChaosSite::SpuriousYield, |c| c.spurious_yield) } {
        std::thread::yield_now();
    }
}

/// Once per spawn, sync suspension and async park: maybe arm one map
/// failure on the worker's stack cache, for the pool's bounded retry to
/// absorb on the next cache miss. Never arms on top of a pending one, so
/// armed failures stay below the retry bound and runs always recover.
///
/// # Safety
/// `worker` must be the calling thread's live worker.
#[inline]
pub(crate) unsafe fn on_stack_get(worker: *mut Worker) {
    unsafe {
        if let Some((st, cfg)) = state(worker) {
            let cache = &mut (*worker).cache;
            if cache.armed_map_failures() == 0 && st.decide(ChaosSite::MmapFail, cfg.mmap_fail) {
                cache.arm_map_failures(1);
            }
        }
    }
}

/// Inside a child strand (within its panic-capture scope): maybe panic
/// with a `ChaosPanic` payload.
///
/// # Safety
/// `worker` must be the calling thread's live worker.
#[inline]
pub(crate) unsafe fn on_child_start(worker: *mut Worker) {
    if unsafe { fires(worker, ChaosSite::ChildPanic, |c| c.child_panic) } {
        let index = unsafe { (*worker).index };
        std::panic::panic_any(ChaosPanic { worker: index });
    }
}

/// Right before the futex wait of a park: returns `true` to skip the
/// kernel wait, simulating a spurious futex return.
///
/// # Safety
/// `worker` must be the calling thread's live worker.
#[inline]
pub(crate) unsafe fn on_park_wait(worker: *mut Worker) -> bool {
    unsafe { fires(worker, ChaosSite::SpuriousWake, |c| c.spurious_wake) }
}

/// At a steal/sync/suspend boundary: returns `true` to force-cancel
/// the enclosing region (the caller does the latching — it knows the
/// frame whose scope is enclosing).
///
/// # Safety
/// `worker` must be the calling thread's live worker.
#[inline]
pub(crate) unsafe fn on_force_cancel(worker: *mut Worker) -> bool {
    unsafe { fires(worker, ChaosSite::ForceCancel, |c| c.force_cancel) }
}

/// At the spawn-push site: `Some` is the promotion leg the caller
/// delivers through `Protocol::force_promote` — even firings fail the
/// next promotion, odd ones force an out-of-band batch.
///
/// # Safety
/// `worker` must be the calling thread's live worker.
#[inline]
pub(crate) unsafe fn on_force_promote(worker: *mut Worker) -> Option<ForcedPromotion> {
    let (st, cfg) = unsafe { state(worker) }?;
    if !st.decide(ChaosSite::ForcePromote, cfg.force_promote) {
        return None;
    }
    let n = st.injected[ChaosSite::ForcePromote as usize].load(Ordering::Relaxed);
    Some(if n % 2 == 0 {
        ForcedPromotion::Failure
    } else {
        ForcedPromotion::Batch
    })
}

/// Before the reactor's `epoll_wait`: returns `true` to skip the
/// syscall — no event is dispatched, only the due deadlines fire.
///
/// # Safety
/// `worker` must be the calling thread's live worker.
#[inline]
pub(crate) unsafe fn on_reactor_poll(worker: *mut Worker) -> bool {
    unsafe { fires(worker, ChaosSite::ReactorSkipWait, |c| c.reactor_skip_wait) }
}

/// Whether `site`, at the rate `rate` picks from the config, fires on
/// this visit (`false` when chaos is not configured).
///
/// # Safety
/// `worker` must be the calling thread's live worker.
#[inline]
unsafe fn fires(worker: *mut Worker, site: ChaosSite, rate: fn(&ChaosConfig) -> u16) -> bool {
    match unsafe { state(worker) } {
        Some((st, cfg)) => st.decide(site, rate(cfg)),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_is_pure_and_seed_sensitive() {
        let a: Vec<bool> = (0..512).map(|t| decision(42, 1, 0, t, 8192)).collect();
        let b: Vec<bool> = (0..512).map(|t| decision(42, 1, 0, t, 8192)).collect();
        assert_eq!(a, b, "same inputs, same sequence");
        let c: Vec<bool> = (0..512).map(|t| decision(43, 1, 0, t, 8192)).collect();
        assert_ne!(a, c, "different seed, different sequence");
    }

    #[test]
    fn max_rate_always_fires_zero_never() {
        for t in 0..64 {
            assert!(decision(7, 0, 4, t, u16::MAX));
        }
        let st = ChaosWorkerState::new(7, 0);
        assert!(!st.decide(ChaosSite::StealFail, 0));
        assert_eq!(
            st.ticks[0].load(Ordering::Relaxed),
            0,
            "rate 0 skips ticking"
        );
    }

    #[test]
    fn rate_roughly_respected() {
        let fired = (0..65536u64)
            .filter(|&t| decision(9, 2, 1, t, 16384))
            .count();
        // 25% nominal; allow generous slack.
        assert!((12000..21000).contains(&fired), "fired {fired}");
    }

    #[test]
    fn snapshot_aggregates_and_compares() {
        let a = ChaosWorkerState::new(5, 0);
        let b = ChaosWorkerState::new(5, 1);
        for _ in 0..100 {
            a.decide(ChaosSite::StealFail, 32768);
            b.decide(ChaosSite::MmapFail, 32768);
        }
        let states = [a, b];
        let snap = ChaosSnapshot::aggregate(&states);
        assert_eq!(snap.ticks[ChaosSite::StealFail as usize], 100);
        assert_eq!(snap.ticks[ChaosSite::MmapFail as usize], 100);
        let again = ChaosSnapshot::aggregate(&states);
        assert_eq!(snap, again);
        assert!(!format!("{snap}").is_empty());
    }
}
