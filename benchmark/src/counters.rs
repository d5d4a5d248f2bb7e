//! The runtime's own counts, differenced around a piece of timed work:
//! `Runtime::stats()` and `Runtime::pool_stats()`.

use std::time::{Duration, Instant};

use nowa_runtime::{Runtime, StatsSnapshot};

use crate::report::MetricSet;
use crate::stats;

/// A point-in-time reading of everything differenced per rep or phase.
#[derive(Clone, Copy)]
pub struct Reading {
    pub at: Instant,
    pub stats: StatsSnapshot,
    /// `(global gets, global puts, mmaps)` of the stack pool.
    pub pool: (u64, u64, u64),
}

impl Reading {
    pub fn take(rt: &Runtime) -> Reading {
        Reading {
            at: Instant::now(),
            stats: rt.stats(),
            pool: rt.pool_stats(),
        }
    }
}

/// What happened between two readings of one runtime.
#[derive(Clone, Copy)]
pub struct Delta {
    pub wall: Duration,
    pub workers: usize,
    pub spawns: u64,
    pub steals: u64,
    pub steal_empty: u64,
    pub steal_retry: u64,
    pub fast_pops: u64,
    pub own_takes: u64,
    pub suspensions: u64,
    pub sync_resumes: u64,
    pub promotions: u64,
    pub promoted_items: u64,
    pub private_pops: u64,
    pub parks: u64,
    pub wakes_issued: u64,
    pub wakes_spurious: u64,
    pub parked_ns: u64,
    pub async_parks: u64,
    pub reactor_polls: u64,
    pub reactor_events: u64,
    pub timer_fires: u64,
    pub pool_gets: u64,
    pub pool_puts: u64,
    pub maps: u64,
}

impl Delta {
    pub fn between(before: &Reading, after: &Reading, workers: usize) -> Delta {
        let (a, b) = (&before.stats, &after.stats);
        Delta {
            wall: after.at - before.at,
            workers,
            spawns: b.spawns - a.spawns,
            steals: b.steals - a.steals,
            steal_empty: b.steal_empty - a.steal_empty,
            steal_retry: b.steal_retry - a.steal_retry,
            fast_pops: b.fast_pops - a.fast_pops,
            own_takes: b.own_takes - a.own_takes,
            suspensions: b.suspensions - a.suspensions,
            sync_resumes: b.sync_resumes - a.sync_resumes,
            promotions: b.promotions - a.promotions,
            promoted_items: b.promoted_items - a.promoted_items,
            private_pops: b.private_pops - a.private_pops,
            parks: b.parks - a.parks,
            wakes_issued: b.wakes_issued - a.wakes_issued,
            wakes_spurious: b.wakes_spurious - a.wakes_spurious,
            parked_ns: b.parked_ns - a.parked_ns,
            async_parks: b.async_parks - a.async_parks,
            reactor_polls: b.reactor_polls - a.reactor_polls,
            reactor_events: b.reactor_events - a.reactor_events,
            timer_fires: b.timer_fires - a.timer_fires,
            pool_gets: after.pool.0 - before.pool.0,
            pool_puts: after.pool.1 - before.pool.1,
            maps: after.pool.2 - before.pool.2,
        }
    }

    fn ratio(num: u64, den: u64) -> f64 {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    }

    pub fn steal_success_ratio(&self) -> f64 {
        Delta::ratio(
            self.steals,
            self.steals + self.steal_empty + self.steal_retry,
        )
    }

    pub fn fast_path_ratio(&self) -> f64 {
        Delta::ratio(
            self.fast_pops,
            self.fast_pops + self.steals + self.own_takes,
        )
    }

    /// Share of worker time spent parked.
    pub fn parked_frac(&self) -> f64 {
        self.parked_ns as f64 / (self.workers as f64 * self.wall.as_nanos().max(1) as f64)
    }
}

/// Reports the per-workload counter metrics, one sample per delta.
pub fn put_counters(out: &mut MetricSet, deltas: &[Delta]) {
    let mut put = |name: &str, f: &dyn Fn(&Delta) -> f64| {
        let samples: Vec<f64> = deltas.iter().map(f).collect();
        out.put(
            name,
            stats::summarize(&samples).expect("at least one delta"),
        );
    };
    put("stack.pool_gets", &|d| d.pool_gets as f64);
    put("stack.pool_puts", &|d| d.pool_puts as f64);
    put("stack.maps", &|d| d.maps as f64);
    put("sched.spawns", &|d| d.spawns as f64);
    put("sched.steals", &|d| d.steals as f64);
    put("sched.steal_empty", &|d| d.steal_empty as f64);
    put("sched.steal_retry", &|d| d.steal_retry as f64);
    put("sched.suspensions", &|d| d.suspensions as f64);
    put("sched.sync_resumes", &|d| d.sync_resumes as f64);
    put("sched.promotions", &|d| d.promotions as f64);
    put("sched.promoted_items", &|d| d.promoted_items as f64);
    put("sched.private_pops", &|d| d.private_pops as f64);
    put("sched.steal_success_ratio", &Delta::steal_success_ratio);
    put("sched.fast_path_ratio", &Delta::fast_path_ratio);
    put("idle.parks", &|d| d.parks as f64);
    put("idle.wakes_issued", &|d| d.wakes_issued as f64);
    put("idle.wakes_spurious", &|d| d.wakes_spurious as f64);
    put("idle.parked_frac", &Delta::parked_frac);
    put("reactor.polls", &|d| d.reactor_polls as f64);
    put("reactor.events", &|d| d.reactor_events as f64);
    put("reactor.async_parks", &|d| d.async_parks as f64);
    put("reactor.timer_fires", &|d| d.timer_fires as f64);
}
