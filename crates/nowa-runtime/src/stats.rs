//! The event table: every scheduler event the runtime counts — its field
//! name, its help text, whether it is watchdog progress, and the trace
//! event it emits — defined once, in `event_table!` below.
//!
//! Everything else about a counter is generated from its row: the
//! per-worker cell in [`WorkerStats`], the public [`StatsSnapshot`] field,
//! `aggregate`/`merge`/`progress`, the `(name, help, value)` iterator all
//! renderers walk ([`crate::snapshot`]), and — with the `trace` cargo
//! feature — the route into the worker's event ring
//! (`obs.rs`). **Adding a counter is a one-row diff here** plus the
//! `bump`/`add` call where the event happens.
//!
//! **Single-writer invariant.** A worker's counters are written only by
//! the thread currently running *as* that worker: every emission goes
//! through the calling thread's own `(*worker).stats()`. A bump is
//! therefore a `Relaxed` load plus a `Relaxed` store — no `lock`-prefixed
//! read-modify-write on the spawn path. Readers (snapshots, the watchdog)
//! may observe a counter slightly stale, never torn and never decreasing.

use core::sync::atomic::{AtomicU64, Ordering};

use crate::record::Frame;
use crate::worker::Worker;

/// Declares the table; see the module docs for what each column generates.
/// `trace` is an expression of type `obs::Trace`, resolved only when the
/// `trace` feature compiles `obs.rs` in.
macro_rules! event_table {
    ($( $name:ident: progress $progress:literal, trace $trace:expr, $help:literal; )*) => {
        /// A row of the event table: names the counter an emission bumps.
        #[allow(non_camel_case_types)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $( #[doc = $help] $name, )*
        }

        impl Counter {
            /// Number of rows.
            pub const COUNT: usize = [$( Counter::$name ),*].len();

            /// How this row reaches the worker's event ring.
            #[cfg(feature = "trace")]
            #[inline(always)]
            pub(crate) const fn trace(self) -> crate::obs::Trace {
                use crate::obs::Trace::*;
                use nowa_trace::EventKind as K;
                match self {
                    $( Counter::$name => $trace, )*
                }
            }
        }

        /// Scheduler counters: one worker's, or a sum over workers
        /// ([`StatsSnapshot::aggregate`]) or runs ([`StatsSnapshot::merge`]).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $( #[doc = $help] pub $name: u64, )*
        }

        impl StatsSnapshot {
            /// Every counter as `(name, help, value)`, in table order — the
            /// one iterator the text, Prometheus and JSON renderers walk.
            pub fn fields(&self) -> [(&'static str, &'static str, u64); Counter::COUNT] {
                [$( (stringify!($name), $help, self.$name), )*]
            }

            /// Adds another snapshot's counters into this one (e.g. to
            /// aggregate over several runtimes or benchmark runs).
            pub fn merge(&mut self, other: &StatsSnapshot) {
                $( self.$name += other.$name; )*
            }
        }

        impl WorkerStats {
            /// This worker's counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot { $( $name: self.get(Counter::$name), )* }
            }

            /// A monotonically increasing progress measure for the stall
            /// watchdog: the sum of every row marked `progress`.
            pub fn progress(&self) -> u64 {
                let mut sum = 0u64;
                $( if $progress { sum = sum.wrapping_add(self.get(Counter::$name)); } )*
                sum
            }
        }
    };
}

// Progress rows are the events that show a strand moved: scheduling
// events, async parking/resumption (the strand moved, it didn't wedge),
// cancellation work (a worker cooperatively unwinding a cancelled subtree
// must not read as stalled), and the idle heartbeat.
event_table! {
    spawns: progress true, trace Spawn,
        "Continuations offered to thieves (spawns).";
    unoffered: progress false, trace Off,
        "Spawns whose continuation could not be offered (bounded deque full).";
    fast_pops: progress true, trace Hot(K::FastPop),
        "Fast-path pops: the continuation was not stolen.";
    steals: progress true, trace Steal,
        "Successful steals from other workers.";
    steal_empty: progress false, trace Sweep { kind: K::StealEmpty, while_idle: false },
        "Steal attempts that found the victim's deque empty.";
    steal_retry: progress false, trace Sweep { kind: K::StealRetry, while_idle: true },
        "Steal attempts that lost a race and had to retry.";
    own_takes: progress true, trace Work(K::OwnTake),
        "Local continuations taken by the work-finding loop.";
    joins: progress true, trace Hot(K::Join),
        "Child joins (continuation found stolen after the child returned).";
    syncs_inline: progress true, trace Hot(K::SyncInline),
        "Explicit syncs satisfied inline (no suspension).";
    suspensions: progress true, trace Rare(K::SyncSuspend),
        "Explicit syncs that suspended the frame.";
    sync_resumes: progress true, trace Work(K::SyncResume),
        "Suspended sync continuations resumed by a last joiner.";
    cancels: progress true, trace Rare(K::Cancel),
        "Cooperative checkpoints that raised cancellation (each strand raises at most once).";
    aborts: progress true, trace Work(K::Abort),
        "Suspended syncs resumed into a cancelled scope (the CQS-style abort path).";
    roots: progress true, trace Work(K::Root),
        "Root tasks executed.";
    idle_sweeps: progress true, trace Idle,
        "Work-finding sweeps that found nothing (the liveness heartbeat of an idle worker).";
    parks: progress false, trace Park,
        "Futex parks entered by the idle engine (announce survived the validation re-scan).";
    wakes_issued: progress false, trace Rare(K::Wake),
        "Targeted wakes issued by this worker's spawn/submit path.";
    wakes_spurious: progress false, trace Off,
        "Parks that ended without a targeted wake (timeout, stale epoch, injected spurious return).";
    parked_ns: progress false, trace Unpark,
        "Nanoseconds spent inside futex parks.";
    promotions: progress false, trace Off,
        "Private-to-public promotion batches (split deque).";
    promoted_items: progress false, trace Off,
        "Items moved public by promotion batches.";
    private_pops: progress false, trace Off,
        "Owner pops served by the private segment (zero shared atomics touched).";
    async_parks: progress true, trace Rare(K::AsyncPark),
        "block_on continuations parked behind a waker.";
    async_resumes: progress true, trace Work(K::AsyncWake),
        "Parked async continuations resumed (by a claimer, or in place after a lost publish race).";
    reactor_polls: progress false, trace Off,
        "Reactor polls performed (epoll_wait + dispatch).";
    reactor_events: progress false, trace Rare(K::ReactorPoll),
        "I/O readiness events dispatched by reactor polls.";
    timer_fires: progress false, trace Rare(K::TimerFire),
        "sleep/timeout timers fired by reactor polls.";
}

/// Per-worker event counters, cache-line padded so two workers' counters
/// never share a line. Written only by their owner (see the module docs).
#[repr(align(128))]
#[derive(Debug)]
pub struct WorkerStats {
    counters: [AtomicU64; Counter::COUNT],
}

impl Default for WorkerStats {
    fn default() -> WorkerStats {
        WorkerStats {
            counters: core::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl WorkerStats {
    /// Current value of one counter.
    #[inline]
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Adds `n` to a counter. Owner-only: the load/store pair is not an
    /// atomic increment, and need not be (single-writer invariant).
    #[inline(always)]
    fn add(&self, counter: Counter, n: u64) {
        let cell = &self.counters[counter as usize];
        cell.store(
            cell.load(Ordering::Relaxed).wrapping_add(n),
            Ordering::Relaxed,
        );
    }
}

/// The single emission point: adds `n` to the calling worker's `counter`
/// and, with the `trace` feature, routes the event per its table row.
///
/// # Safety
/// `worker` must be the calling thread's live worker.
#[inline(always)]
unsafe fn emit(
    worker: *mut Worker,
    counter: Counter,
    n: u64,
    arg: u64,
    occupancy: impl FnOnce() -> u64,
) {
    // SAFETY: live worker per the function contract; `stats` only reads
    // the header's `shared`/`index`.
    unsafe { (*worker).stats() }.add(counter, n);
    // SAFETY: same contract, forwarded.
    #[cfg(feature = "trace")]
    unsafe {
        crate::obs::record(worker, counter.trace(), arg, occupancy)
    };
    #[cfg(not(feature = "trace"))]
    let _ = (arg, occupancy);
}

/// One occurrence of the scheduler event `counter`. `arg` is its trace
/// argument — a [`frame_id`], a victim/target index, an async cell id;
/// unused (and compiled out) without the `trace` feature.
///
/// # Safety
/// `worker` must be the calling thread's live worker.
// lint: wait-free
#[inline(always)]
pub(crate) unsafe fn bump(worker: *mut Worker, counter: Counter, arg: u64) {
    // SAFETY: contract forwarded.
    unsafe { emit(worker, counter, 1, arg, || 0) }
}

/// The batch form of [`bump`]: `n` occurrences at once (promoted items,
/// dispatched I/O events, parked nanoseconds); `n` is also the trace
/// argument.
///
/// # Safety
/// `worker` must be the calling thread's live worker.
#[inline(always)]
pub(crate) unsafe fn add(worker: *mut Worker, counter: Counter, n: u64) {
    // SAFETY: contract forwarded.
    unsafe { emit(worker, counter, n, n, || 0) }
}

/// An offered spawn of `frame`. Only offered spawns are events: only they
/// create a deque record, and a causal `Spawn` for an elided offer would
/// be a phantom record in DAG replay. `occupancy` is the caller's
/// protocol-typed probe of its own deque, run only on sampled spawns of a
/// tracing runtime.
///
/// # Safety
/// `worker` must be the calling thread's live worker.
// lint: wait-free
#[inline(always)]
pub(crate) unsafe fn bump_spawn(
    worker: *mut Worker,
    frame: *const Frame,
    occupancy: impl FnOnce() -> u64,
) {
    // SAFETY: contract forwarded.
    unsafe { emit(worker, Counter::spawns, 1, frame_id(frame), occupancy) }
}

/// A compact trace id for a frame, derived from its address (frames are
/// ≥ 16-byte aligned; the dead bits are dropped). Null maps to 0 — an
/// ambient cancellation checkpoint outside any join frame. Collisions
/// merely mis-pair events in a report; soundness is unaffected.
#[inline(always)]
pub(crate) fn frame_id(frame: *const Frame) -> u64 {
    (frame as usize as u64) >> 4
}

/// Safe ratio: 0 when the denominator is 0.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl StatsSnapshot {
    /// Sums per-worker counters.
    pub fn aggregate(stats: &[WorkerStats]) -> StatsSnapshot {
        let mut sum = StatsSnapshot::default();
        for w in stats {
            sum.merge(&w.snapshot());
        }
        sum
    }

    /// Total steal attempts, successful or not.
    pub fn steal_attempts(&self) -> u64 {
        self.steals + self.steal_empty + self.steal_retry
    }

    /// Conservation invariant: every consumed continuation was either
    /// popped back by its pusher, stolen, or taken locally — at quiescence
    /// this equals `spawns`.
    pub fn continuations_consumed(&self) -> u64 {
        self.fast_pops + self.steals + self.own_takes
    }

    /// Fraction of steal attempts that succeeded (0 when none were made).
    pub fn steal_success_ratio(&self) -> f64 {
        ratio(self.steals, self.steal_attempts())
    }

    /// Fraction of consumed continuations reclaimed on the fast path —
    /// popped back by their own spawner without any scheduling. High
    /// values mean the paper's "work-first" discipline is holding:
    /// stealing stays the exception.
    pub fn fast_path_ratio(&self) -> f64 {
        ratio(self.fast_pops, self.continuations_consumed())
    }

    /// Fraction of spawns whose continuation ever became publicly visible.
    /// Low values mean the split layer is doing its job: most
    /// continuations lived and died in the private segment without a
    /// single shared-atomic store.
    pub fn promotion_ratio(&self) -> f64 {
        ratio(self.promoted_items, self.spawns)
    }

    /// Fraction of parks that ended by a targeted wake rather than a
    /// timeout/stale epoch. High values mean the wake hook, not the
    /// `max_park` safety net, is doing the waking.
    pub fn targeted_wake_ratio(&self) -> f64 {
        ratio(self.parks - self.wakes_spurious.min(self.parks), self.parks)
    }

    /// The derived ratios as `(name, help, value)` — rendered after the
    /// counters of [`StatsSnapshot::fields`] by every renderer.
    pub fn ratios(&self) -> [(&'static str, &'static str, f64); 4] {
        [
            (
                "fast_path_ratio",
                "Fraction of consumed continuations reclaimed on the fast path.",
                self.fast_path_ratio(),
            ),
            (
                "steal_success_ratio",
                "Fraction of steal attempts that succeeded.",
                self.steal_success_ratio(),
            ),
            (
                "targeted_wake_ratio",
                "Fraction of parks ended by a targeted wake.",
                self.targeted_wake_ratio(),
            ),
            (
                "promotion_ratio",
                "Fraction of spawned continuations that ever became public.",
                self.promotion_ratio(),
            ),
        ]
    }

    /// The body of the text table: one line per counter and ratio, a name
    /// cell followed by one value cell per snapshot in `columns` (workers
    /// of one runtime, or systems of one benchmark).
    pub fn table_rows(columns: &[StatsSnapshot]) -> Vec<Vec<String>> {
        let names = StatsSnapshot::default();
        let counter_names = names.fields().into_iter().map(|(name, ..)| name);
        let ratio_names = names.ratios().into_iter().map(|(name, ..)| name);
        let mut rows: Vec<Vec<String>> = counter_names
            .chain(ratio_names)
            .map(|name| vec![name.to_string()])
            .collect();
        for column in columns {
            let counters = column.fields().into_iter().map(|(.., v)| v.to_string());
            let ratios = column.ratios().into_iter().map(|(.., r)| format!("{r:.4}"));
            for (row, cell) in rows.iter_mut().zip(counters.chain(ratios)) {
                row.push(cell);
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-side write access: the owner-only `add` on a detached block.
    fn stats_with(values: &[(Counter, u64)]) -> WorkerStats {
        let w = WorkerStats::default();
        for &(c, n) in values {
            w.add(c, n);
        }
        w
    }

    #[test]
    fn aggregate_and_merge_sum_every_row() {
        let a = stats_with(&[
            (Counter::spawns, 3),
            (Counter::steals, 1),
            (Counter::parked_ns, 12_345),
        ]);
        let b = stats_with(&[
            (Counter::spawns, 4),
            (Counter::steal_retry, 2),
            (Counter::timer_fires, 9),
        ]);
        let mut s = StatsSnapshot::aggregate(&[a, b]);
        assert_eq!((s.spawns, s.steals, s.steal_retry), (7, 1, 2));
        assert_eq!((s.parked_ns, s.timer_fires), (12_345, 9));
        assert_eq!(s.steal_attempts(), 3);
        let other = StatsSnapshot {
            spawns: 1,
            timer_fires: 1,
            ..Default::default()
        };
        s.merge(&other);
        assert_eq!((s.spawns, s.timer_fires), (8, 10));
        // Generated code covers the table end to end: merging a snapshot
        // of all-ones raises every field by exactly one.
        let mut ones = StatsSnapshot::default();
        let w = WorkerStats::default();
        for i in 0..Counter::COUNT {
            w.counters[i].store(1, Ordering::Relaxed);
        }
        ones.merge(&w.snapshot());
        assert!(ones.fields().iter().all(|&(_, _, v)| v == 1));
    }

    /// Watchdog regression: a worker that only cancels/aborts (cooperative
    /// unwinding of a cancelled subtree) or only ticks the idle heartbeat
    /// must still read as progressing; pure bookkeeping must not.
    #[test]
    fn progress_follows_the_table_column() {
        let w = WorkerStats::default();
        for c in [Counter::cancels, Counter::aborts, Counter::idle_sweeps] {
            let before = w.progress();
            w.add(c, 1);
            assert!(w.progress() > before, "{c:?} not counted as progress");
        }
        let before = w.progress();
        w.add(Counter::steal_empty, 1);
        w.add(Counter::parked_ns, 1_000);
        assert_eq!(w.progress(), before, "bookkeeping rows are not progress");
    }

    #[test]
    fn ratios() {
        let mut s = StatsSnapshot::default();
        assert!(s.ratios().iter().all(|&(_, _, r)| r == 0.0));
        s.steals = 1;
        s.steal_empty = 2;
        s.steal_retry = 1;
        s.fast_pops = 6;
        s.own_takes = 1;
        assert!((s.steal_success_ratio() - 0.25).abs() < 1e-12);
        // consumed = 6 + 1 + 1 = 8; fast-path share 6/8.
        assert!((s.fast_path_ratio() - 0.75).abs() < 1e-12);
        s.parks = 4;
        s.wakes_spurious = 1;
        assert!((s.targeted_wake_ratio() - 0.75).abs() < 1e-12);
        s.spawns = 10;
        s.promoted_items = 5;
        assert!((s.promotion_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn table_rows_cover_every_field_once() {
        let s = StatsSnapshot {
            parks: 10,
            wakes_spurious: 3,
            ..Default::default()
        };
        let rows = StatsSnapshot::table_rows(&[s, StatsSnapshot::default()]);
        assert_eq!(rows.len(), Counter::COUNT + 4);
        assert!(rows.iter().all(|r| r.len() == 3));
        let find = |name: &str| rows.iter().find(|r| r[0] == name).expect(name);
        assert_eq!(find("parks")[1..], ["10", "0"]);
        assert_eq!(find("targeted_wake_ratio")[1..], ["0.7000", "0.0000"]);
    }

    /// The single-writer bump under concurrent readers: every value read
    /// is one the writer actually stored (both halves of the 64-bit word
    /// agree — never torn), reads never go backwards, and no increment is
    /// lost.
    #[test]
    fn single_writer_bump_is_monotone_untorn_and_exact() {
        const STEP: u64 = (1 << 32) | 1;
        const BUMPS: u64 = 200_000;
        let stats = [WorkerStats::default()];
        let started = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    started.wait();
                    let mut last = 0;
                    while last < BUMPS * STEP {
                        let now = StatsSnapshot::aggregate(&stats).joins;
                        assert_eq!(now >> 32, now & 0xFFFF_FFFF, "torn read {now:#x}");
                        assert!(now >= last, "counter went backwards");
                        last = now;
                    }
                });
            }
            started.wait();
            for _ in 0..BUMPS {
                stats[0].add(Counter::joins, STEP);
            }
        });
        assert_eq!(stats[0].get(Counter::joins), BUMPS * STEP);
    }
}
