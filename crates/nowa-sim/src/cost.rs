//! The simulator's cost model.
//!
//! All times are virtual nanoseconds. The absolute values are rough
//! calibrations of a modern many-core x86 (cache-line transfer ≈ 20 ns
//! cross-core, lock handoff ≈ 60–120 ns, stack switch ≈ 100–200 ns,
//! `madvise` syscall ≈ 1–2 µs); what the experiments depend on is the
//! *structure* — which operations serialize on which shared resources —
//! not the absolute numbers. See DESIGN.md §2 for the substitution
//! rationale: runs with 64–256 workers need that many cores, and no
//! host this reproduction runs on has them (the 2-vCPU reference host
//! measures P = 1 and P = 2 only).

/// Virtual-time costs of runtime-system operations.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Continuation capture + deque push at a spawn (Nowa/Fibril fast path).
    pub spawn: u64,
    /// Successful `popBottom` of the own continuation (fast path).
    pub pop: u64,
    /// One steal attempt (remote deque probe — a cache miss).
    pub steal_attempt: u64,
    /// Extra cost of a successful steal (resume switch + cold frame).
    pub steal_success: u64,
    /// Uncontended cost of a lock/unlock pair (the *local* price of a
    /// lock-based critical section; the `*_hold` values are what everyone
    /// else waits for under contention).
    pub lock_local: u64,
    /// Hold time of the Chase–Lev `top` cache line per claiming CAS.
    pub cl_top_hold: u64,
    /// Hold time of the THE deque lock per thief operation.
    pub the_lock_hold: u64,
    /// Hold time of the fully-locked (Fibril) deque per operation —
    /// including the owner's pushes and pops (Listing 2's design).
    pub fused_lock_hold: u64,
    /// Hold time of the Fibril per-frame lock (count update).
    pub frame_lock_hold: u64,
    /// Hold time of the Nowa sync-counter cache line per `fetch_sub`.
    pub counter_hold: u64,
    /// Local (uncontended) part of a child join.
    pub join_local: u64,
    /// Explicit sync with the condition already satisfied.
    pub sync_fast: u64,
    /// Suspension at an explicit sync (capture + stack handoff + restore).
    pub suspend: u64,
    /// Resuming a suspended sync continuation (stack switch).
    pub resume_sync: u64,
    /// Idle backoff quantum after a failed steal sweep.
    pub idle_backoff: u64,
    /// Dynamic allocation of a child task (child-stealing runtimes, §II-B).
    pub child_alloc: u64,
    /// Dispatch overhead per executed child task (child stealing).
    pub child_exec: u64,
    /// Hold time of the central queue lock (libgomp stand-in), per op.
    pub central_lock_hold: u64,
    /// Per-task bookkeeping surcharge of the OpenMP stand-in (creation +
    /// completion signalling).
    pub omp_task_overhead: u64,
    /// Poll interval of a worker blocked at a child-stealing join.
    pub join_poll: u64,
    /// `madvise` syscall on suspension (when the policy is enabled).
    pub madvise_syscall: u64,
    /// Page-refault cost when a madvised stack is reused.
    pub madvise_refault: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            spawn: 25,
            pop: 10,
            steal_attempt: 30,
            steal_success: 150,
            lock_local: 6,
            cl_top_hold: 20,
            the_lock_hold: 90,
            fused_lock_hold: 130,
            frame_lock_hold: 80,
            counter_hold: 18,
            join_local: 15,
            sync_fast: 5,
            suspend: 200,
            resume_sync: 150,
            idle_backoff: 400,
            child_alloc: 90,
            child_exec: 40,
            central_lock_hold: 120,
            omp_task_overhead: 150,
            join_poll: 200,
            madvise_syscall: 1400,
            madvise_refault: 900,
        }
    }
}

/// A serially-owned resource — a lock or a contended cache line — with an
/// ownership-aware (MESI-like) contention model.
///
/// An acquisition by the *same* worker that used the resource last costs
/// only `local` ns (the line/lock word is already in its cache — this is
/// why an uncontended lock is cheap). An acquisition by a *different*
/// worker additionally waits for the `handoff` (cross-core cache-line
/// transfer + lock handoff latency) after the previous user's local work.
/// Under contention, successive owners therefore serialize at
/// `local + handoff` per operation — the asymmetry that makes lock-based
/// runtime layers collapse at high thread counts while the same code is
/// free at low counts (§IV of the paper).
#[derive(Debug, Clone, Copy)]
pub struct Resource {
    /// When the last owner finished its local work.
    free_self: u64,
    /// When another worker could complete a takeover.
    free_other: u64,
    last: u32,
}

impl Default for Resource {
    fn default() -> Resource {
        Resource {
            free_self: 0,
            free_other: 0,
            last: u32::MAX,
        }
    }
}

impl Resource {
    /// Acquire at `now` by `owner`; busy for `local` ns once available,
    /// with `handoff` ns added for a change of ownership. Returns the time
    /// the caller is done.
    #[inline]
    pub fn acquire(&mut self, now: u64, owner: u32, local: u64, handoff: u64) -> u64 {
        let available = if owner == self.last {
            self.free_self
        } else {
            self.free_other.max(self.free_self) + handoff
        };
        let start = available.max(now);
        self.free_self = start + local;
        self.free_other = start + local;
        self.last = owner;
        start + local
    }

    /// The time the last owner finished (tests/diagnostics).
    pub fn free_at(&self) -> u64 {
        self.free_self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_owner_reacquire_is_local_only() {
        let mut r = Resource::default();
        // First touch by worker 0: the idle handoff window has long
        // passed, so only the local cost is paid.
        assert_eq!(r.acquire(100, 0, 10, 60), 110);
        // Re-acquisition by the same worker: local cost only.
        assert_eq!(r.acquire(110, 0, 10, 60), 120);
        assert_eq!(r.acquire(500, 0, 10, 60), 510);
    }

    #[test]
    fn ownership_changes_serialize_with_handoff() {
        let mut r = Resource::default();
        let t0 = r.acquire(1000, 0, 10, 60);
        assert_eq!(t0, 1010);
        // Worker 1 arrives concurrently: waits for the release at 1010,
        // then pays the cross-core handoff + its local work.
        let t1 = r.acquire(1000, 1, 10, 60);
        assert_eq!(t1, 1010 + 60 + 10);
        // Worker 2 queues behind worker 1.
        let t2 = r.acquire(1000, 2, 10, 60);
        assert_eq!(t2, 1080 + 60 + 10);
        // Same-owner chains stay cheap even after contention.
        assert_eq!(r.acquire(1000, 2, 10, 60), 1160);
    }

    #[test]
    fn default_costs_are_ordered_sanely() {
        let c = CostModel::default();
        assert!(c.counter_hold < c.frame_lock_hold);
        assert!(c.cl_top_hold < c.the_lock_hold);
        assert!(c.the_lock_hold <= c.fused_lock_hold);
        assert!(
            c.spawn < c.child_alloc,
            "continuation stealing avoids the allocator"
        );
    }
}
