//! Runtime configuration.

use std::time::Duration;

use nowa_context::MadvisePolicy;

use crate::flavor::Flavor;

pub use nowa_deque::SplitConfig;

/// Fault-injection configuration (the `chaos` knob).
///
/// All rates are probabilities per 65536 site visits; `0` disables a site
/// and `u16::MAX` fires on *every* visit (an exact guarantee, not a coin).
/// The whole struct only takes effect when the runtime is built with the
/// `chaos` cargo feature; without it the knob is accepted but inert — the
/// same contract as [`Config::tracing`]. The runtime both decides and
/// delivers every fault (`crate::chaos`); the deque and context crates
/// only expose the plain owner-handle methods it calls.
///
/// Injection is deterministic: whether site `s` fires at its `k`-th visit
/// on worker `w` is a pure function of `(seed, w, s, k)` — no wall clock,
/// no global state — so a failing seed can be replayed exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed of the deterministic injection sequence.
    pub seed: u64,
    /// Rate of forced steal failures: the work-finding loop takes a forced
    /// `Retry` or `Empty` (alternating) instead of stealing.
    pub steal_fail: u16,
    /// Rate of forced suspensions at the sync fast path.
    pub force_suspend: u16,
    /// Rate of spurious OS yields right before `pushBottom`.
    pub spurious_yield: u16,
    /// Rate of simulated stack-`mmap` failures, armed on the worker's
    /// stack cache at a stack acquisition and consumed by the pool's
    /// bounded retry on the next cache miss (never more than one pending,
    /// so the retry budget always absorbs it).
    pub mmap_fail: u16,
    /// Rate of panics injected into child strands. Injected panics carry a
    /// `ChaosPanic` payload and propagate like user panics — leave this at
    /// `0` unless the workload expects to observe them.
    pub child_panic: u16,
    /// Rate of injected spurious wakeups: a park consumes its announce but
    /// skips the kernel wait, returning immediately as if the futex had
    /// woken spuriously. Stays `0` in [`ChaosConfig::aggressive`]: park
    /// visit counts depend on wall-clock timing, so arming this site would
    /// break exact seed-replay of the determinism gates — the idle-engine
    /// tests arm it. (To park eagerly, set [`IdleConfig`]'s spin and yield
    /// sweeps to 0.)
    pub spurious_wake: u16,
    /// Rate of forced cancellations: the enclosing region's scope is
    /// latched (as if its token had been cancelled) at a steal, sync, or
    /// suspend boundary — the three places a cancellation race with the
    /// join protocol is most delicate. No-op for unscoped work. Stays `0`
    /// in [`ChaosConfig::aggressive`]: cancellation changes which strands
    /// run, so arming it would break the exact snapshot-equality
    /// determinism gates — the forced-cancellation tests in `tests/cancel.rs`
    /// arm it.
    pub force_cancel: u16,
    /// Rate of forced promotion events at the spawn-push site: half the
    /// firings force an out-of-band private→public promotion batch, the
    /// other half make the split deque's next promotion fail as if its
    /// public deque were full (the put-back arm runs). Visit counts are
    /// one per spawn, so the site is replay-deterministic.
    pub force_promote: u16,
    /// Rate of skipped reactor waits: the claimed poller does not enter
    /// `epoll_wait`, dispatches no event and fires only the due
    /// deadlines, exercising the re-validate loop around the poll. Stays
    /// `0` in [`ChaosConfig::aggressive`]: poll visit counts depend on
    /// wall-clock idleness, same caveat as `spurious_wake` — the reactor
    /// edge-case tests arm it.
    pub reactor_skip_wait: u16,
}

impl ChaosConfig {
    /// All sites disabled under `seed`; enable sites by setting rates.
    pub fn with_seed(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            steal_fail: 0,
            force_suspend: 0,
            spurious_yield: 0,
            mmap_fail: 0,
            child_panic: 0,
            spurious_wake: 0,
            force_cancel: 0,
            force_promote: 0,
            reactor_skip_wait: 0,
        }
    }

    /// A stress profile: every non-destructive site at a high rate (1/8
    /// steal failures and forced suspensions, 1/16 spurious yields and
    /// forced promotions, 1/32 mmap failures). `child_panic` stays 0 so
    /// workloads still produce their results; arm it separately to test
    /// panic propagation.
    pub fn aggressive(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            steal_fail: 8192,
            force_suspend: 8192,
            spurious_yield: 4096,
            mmap_fail: 2048,
            child_panic: 0,
            // The idle site stays 0 here: its visit count is wall-clock
            // dependent, which would break the exact snapshot-equality
            // determinism gates. See the field docs; armed per-test.
            spurious_wake: 0,
            // Cancellation reshapes the strand tree, so it too would break
            // the exact-replay gates; armed by the forced-cancellation tests.
            force_cancel: 0,
            // Safe to arm: fires once per spawn, so visit counts (and
            // hence firings) replay exactly for a given seed.
            force_promote: 4096,
            // The reactor site stays 0: poll visit counts are wall-clock
            // dependent (how often workers go idle), same reasoning as
            // the idle site above; armed by the reactor edge-case tests.
            reactor_skip_wait: 0,
        }
    }
}

/// Tuning knobs of the idle engine (see [`crate::idle`]). The defaults are
/// latency-leaning: a worker reaches the futex park after roughly a dozen
/// fruitless sweeps (single-digit microseconds of spinning), and a parked
/// worker self-wakes after [`IdleConfig::max_park`] as the belt-and-braces
/// bound on the one theoretical lost-wakeup window the relaxed producer
/// load leaves open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdleConfig {
    /// Failed sweeps spent in the exponential spin phase before yielding.
    pub spin_sweeps: u32,
    /// Failed sweeps spent yielding the OS thread before parking.
    pub yield_sweeps: u32,
    /// Bounded same-victim retries on `Steal::Retry` (lost races) within
    /// one sweep, with exponential backoff between attempts.
    pub steal_retries: u32,
    /// Upper bound on one futex park. Bounds the worst case of the
    /// store-buffering race the relaxed producer-side load admits; with
    /// targeted wakes working this timeout is essentially never the path
    /// a wakeup takes.
    pub max_park: Duration,
}

impl Default for IdleConfig {
    fn default() -> IdleConfig {
        IdleConfig {
            spin_sweeps: 6,
            yield_sweeps: 10,
            steal_retries: 4,
            max_park: Duration::from_millis(1),
        }
    }
}

/// Configuration of a [`Runtime`](crate::runtime::Runtime).
///
/// Defaults mirror the paper's evaluation setup where applicable: 1 MiB
/// stacks, 4 KiB pages, no `madvise` on suspension (the Fig. 7
/// configuration), Nowa flavor (wait-free + CL queue).
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of worker threads.
    pub workers: usize,
    /// Usable fiber-stack size in bytes (paper: 1 MiB).
    pub stack_size: usize,
    /// What to do with unused stack space on frame suspension (§V-B).
    pub madvise: MadvisePolicy,
    /// Runtime flavor: join protocol × deque algorithm.
    pub flavor: Flavor,
    /// Per-worker deque capacity (bounded algorithms; CL grows beyond it).
    pub deque_capacity: usize,
    /// Split-deque layer: private spawn segment, oldest item kept public
    /// (DESIGN.md §6g). Enabled by default; [`SplitConfig::disabled`]
    /// restores the every-spawn-public behaviour of the unsplit deques.
    pub split: SplitConfig,
    /// Per-worker stack-cache capacity (paper: "small per worker buffers").
    ///
    /// Every spawn runs its child on a fresh stack, so a recursion `d`
    /// spawns deep holds `d + 1` stacks, and each swing of its depth
    /// takes stacks from the cache and gives them back. A swing wider
    /// than the cache spills into the global pool, which is one locked
    /// `Vec` for the whole runtime. The default, 16, is the smallest
    /// that keeps a recursion below one pool get per 1 000 spawns:
    /// `fib(25)` on one worker, after a warm-up, makes 2 578 pool gets in
    /// 121 392 spawns (2.1 %) with a cache of 8, 371 (0.3 %) with 12,
    /// 138 (0.11 %) with 14 and 49 (0.04 %) with 16.
    pub stack_cache: usize,
    /// Stripes of the global stack pool (1 = the paper's single pool).
    pub pool_stripes: usize,
    /// Record scheduler traces (per-worker event rings, idle sweeps
    /// included, + latency histograms). Takes effect only when the runtime
    /// is built with the `trace` cargo feature; without the feature the
    /// flag is accepted but inert, so callers don't need their own `cfg`
    /// gymnastics.
    pub tracing: bool,
    /// Per-worker event-ring capacity in events (rounded up to a power of
    /// two). A ring keeps its worker's newest events, and the post-mortem
    /// of a failure (guard-page crash, task panic, watchdog stall,
    /// shutdown timeout) prints their merged tail. `Some(n)` keeps the
    /// ring with `tracing` off too — the flight recorder: scheduling
    /// events only, no exporter thread, cheap enough to leave on in
    /// production. `None`: `nowa_trace::DEFAULT_RING_CAPACITY` when
    /// tracing, else no ring. Same cargo-feature contract as `tracing`.
    pub trace_ring: Option<usize>,
    /// Fault injection (see [`ChaosConfig`]). Takes effect only when built
    /// with the `chaos` cargo feature; accepted but inert otherwise.
    pub chaos: Option<ChaosConfig>,
    /// Stall watchdog: when `Some`, a monitor thread samples per-worker
    /// progress counters and prints a report with the runtime's
    /// post-mortem to stderr for every worker that makes no progress for
    /// the given duration. `None` disables the watchdog.
    pub watchdog: Option<Duration>,
    /// Idle-engine tuning (spin→yield→park ladder, wake condition).
    pub idle: IdleConfig,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            stack_size: 1 << 20,
            madvise: MadvisePolicy::Keep,
            flavor: Flavor::NOWA,
            deque_capacity: 8192,
            split: SplitConfig::default(),
            stack_cache: 16,
            pool_stripes: 1,
            tracing: false,
            trace_ring: None,
            chaos: None,
            watchdog: None,
            idle: IdleConfig::default(),
        }
    }
}

impl Config {
    /// Default configuration with `workers` worker threads.
    pub fn with_workers(workers: usize) -> Config {
        Config {
            workers,
            ..Config::default()
        }
    }

    /// Sets the flavor (builder style).
    pub fn flavor(mut self, flavor: Flavor) -> Config {
        self.flavor = flavor;
        self
    }

    /// Sets the madvise policy (builder style).
    pub fn madvise(mut self, policy: MadvisePolicy) -> Config {
        self.madvise = policy;
        self
    }

    /// Sets the usable stack size (builder style).
    pub fn stack_size(mut self, bytes: usize) -> Config {
        self.stack_size = bytes;
        self
    }

    /// Enables or disables scheduler tracing (builder style). See the
    /// field docs: requires the `trace` cargo feature to have any effect.
    pub fn tracing(mut self, enabled: bool) -> Config {
        self.tracing = enabled;
        self
    }

    /// Keeps a per-worker event ring of `events` capacity, with or
    /// without tracing (builder style). See the field docs: requires the
    /// `trace` cargo feature to have any effect.
    pub fn trace_ring(mut self, events: usize) -> Config {
        self.trace_ring = Some(events);
        self
    }

    /// Sets the fault-injection configuration (builder style). See the
    /// field docs: requires the `chaos` cargo feature to have any effect.
    pub fn chaos(mut self, chaos: ChaosConfig) -> Config {
        self.chaos = Some(chaos);
        self
    }

    /// Sets the stall-watchdog threshold (builder style).
    pub fn watchdog(mut self, threshold: Duration) -> Config {
        self.watchdog = Some(threshold);
        self
    }

    /// Sets the idle-engine tuning (builder style).
    pub fn idle(mut self, idle: IdleConfig) -> Config {
        self.idle = idle;
        self
    }

    /// Sets the split-deque configuration (builder style).
    pub fn split(mut self, split: SplitConfig) -> Config {
        self.split = split;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = Config::default();
        assert_eq!(c.stack_size, 1 << 20);
        assert_eq!(c.madvise, MadvisePolicy::Keep);
        assert_eq!(c.flavor, Flavor::NOWA);
        assert!(c.workers >= 1);
        assert_eq!(c.trace_ring, None, "the flight recorder is opt-in");
        assert!(c.split.enabled, "split deques are the default fast path");
    }

    #[test]
    fn builder_style() {
        let c = Config::with_workers(3)
            .flavor(Flavor::FIBRIL)
            .madvise(MadvisePolicy::Free)
            .stack_size(64 * 1024)
            .tracing(true)
            .trace_ring(1 << 16)
            .chaos(ChaosConfig::aggressive(7))
            .watchdog(Duration::from_millis(100))
            .split(SplitConfig::disabled());
        assert_eq!(c.workers, 3);
        assert_eq!(c.flavor, Flavor::FIBRIL);
        assert_eq!(c.madvise, MadvisePolicy::Free);
        assert_eq!(c.stack_size, 64 * 1024);
        assert!(c.tracing);
        assert_eq!(c.trace_ring, Some(1 << 16));
        assert_eq!(c.chaos.unwrap().seed, 7);
        assert_eq!(c.watchdog, Some(Duration::from_millis(100)));
        assert!(!c.split.enabled);
    }

    #[test]
    fn chaos_profiles() {
        let quiet = ChaosConfig::with_seed(1);
        assert_eq!(quiet.steal_fail, 0);
        assert_eq!(quiet.child_panic, 0);
        let loud = ChaosConfig::aggressive(1);
        assert!(loud.steal_fail > 0 && loud.mmap_fail > 0);
        assert_eq!(loud.child_panic, 0, "panics stay opt-in");
        assert_eq!(loud.spurious_wake, 0, "the idle site stays replay-safe");
        assert_eq!(loud.force_cancel, 0, "cancellation stays replay-safe");
        assert_eq!(quiet.force_promote, 0);
        assert!(loud.force_promote > 0, "promotion chaos is replay-safe");
        assert_eq!(
            loud.reactor_skip_wait, 0,
            "the reactor site stays replay-safe"
        );
    }

    #[test]
    fn idle_builder_and_defaults() {
        let d = IdleConfig::default();
        assert!(d.spin_sweeps > 0 && d.yield_sweeps > 0);
        assert!(
            d.max_park >= Duration::from_micros(200),
            "no blind-nap cliff"
        );
        let c = Config::default().idle(IdleConfig {
            yield_sweeps: 0,
            ..IdleConfig::default()
        });
        assert_eq!(c.idle.yield_sweeps, 0);
        assert_eq!(c.idle.spin_sweeps, d.spin_sweeps);
    }
}
