//! Stack recirculation: per-worker caches over a global pool.
//!
//! §V-A of the paper: *“Nowa and Fibril use small per worker buffers of
//! stacks and a global pool to recirculate stacks that changed ownership in
//! the course of work-stealing. When put under stress by many workers, this
//! single global pool can become a bottleneck”* (observed on `cholesky`).
//!
//! This module reproduces that design: [`WorkerStackCache`] is a bounded
//! LIFO owned by one worker; overflow and underflow go to the shared
//! [`StackPool`]. The pool keeps contention statistics so the bottleneck is
//! observable, and offers an optional striped mode (the paper's suggested
//! “improvements to the pool”) used as an ablation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::stack::{MadvisePolicy, Stack, StackError};

/// Map attempts (each preceded by a full stripe sweep) before a stack
/// request gives up with [`StackError::Exhausted`]. Between attempts the
/// thread yields, giving other workers a chance to recycle a stack into the
/// pool — under genuine memory pressure a recycled stack is the only way
/// forward.
pub const MAP_RETRIES: u32 = 4;

/// Counters exposed by the global pool (all Relaxed; statistics only).
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Stacks handed out by the global pool.
    pub global_gets: AtomicU64,
    /// Stacks returned to the global pool.
    pub global_puts: AtomicU64,
    /// Fresh `mmap`s because the pool was empty.
    pub maps: AtomicU64,
    /// Map attempts that failed (real `ENOMEM` or injected via `chaos`).
    pub map_failures: AtomicU64,
}

impl PoolStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot as `(gets, puts, maps)`.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.global_gets.load(Ordering::Relaxed),
            self.global_puts.load(Ordering::Relaxed),
            self.maps.load(Ordering::Relaxed),
        )
    }

    /// Map attempts that failed so far (real or injected).
    pub fn map_failures(&self) -> u64 {
        self.map_failures.load(Ordering::Relaxed)
    }
}

/// The global stack pool shared by all workers of a runtime instance.
pub struct StackPool {
    /// One or more stripes; a single stripe reproduces the paper's
    /// bottleneck-prone design.
    stripes: Box<[Mutex<Vec<Stack>>]>,
    stack_size: usize,
    madvise: MadvisePolicy,
    stats: PoolStats,
    /// Round-robin-ish stripe selector.
    next: AtomicU64,
}

impl StackPool {
    /// Creates a pool producing stacks of `stack_size` usable bytes.
    ///
    /// `stripes = 1` is the paper's single global pool; more stripes is the
    /// contention-dampening variant evaluated as an ablation.
    pub fn new(stack_size: usize, madvise: MadvisePolicy, stripes: usize) -> Arc<StackPool> {
        let stripes = stripes.max(1);
        Arc::new(StackPool {
            stripes: (0..stripes).map(|_| Mutex::new(Vec::new())).collect(),
            stack_size,
            madvise,
            stats: PoolStats::default(),
            next: AtomicU64::new(0),
        })
    }

    /// The usable size of stacks produced by this pool.
    pub fn stack_size(&self) -> usize {
        self.stack_size
    }

    /// The madvise policy stacks are recycled under.
    pub fn madvise_policy(&self) -> MadvisePolicy {
        self.madvise
    }

    /// Pool statistics.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    fn stripe(&self) -> &Mutex<Vec<Stack>> {
        let n = self.next.fetch_add(1, Ordering::Relaxed) as usize;
        &self.stripes[n % self.stripes.len()]
    }

    /// One stripe sweep: pops a pooled stack if any stripe has one.
    fn sweep(&self) -> Option<Stack> {
        // Probe every stripe starting at a rotating offset. A pooled stack
        // from *any* stripe beats a fresh map — this doubles as the
        // backpressure path when mapping fails.
        let start = self.next.fetch_add(1, Ordering::Relaxed) as usize;
        for i in 0..self.stripes.len() {
            let stripe = &self.stripes[(start + i) % self.stripes.len()];
            if let Some(stack) = stripe.lock().pop() {
                PoolStats::bump(&self.stats.global_gets);
                return Some(stack);
            }
        }
        None
    }

    /// Takes a stack from the pool, mapping a fresh one if empty; bounded
    /// retry instead of aborting.
    ///
    /// Each attempt sweeps every stripe and then maps; a map failure (real
    /// or injected) yields the thread and retries, so a stack recycled by
    /// another worker in the meantime satisfies the request. After
    /// [`MAP_RETRIES`] failed attempts the typed error is returned for the
    /// caller to degrade on.
    pub fn try_get(&self) -> Result<Stack, StackError> {
        let mut last_errno = 0;
        for attempt in 0..MAP_RETRIES {
            #[cfg(feature = "chaos")]
            if crate::chaos::take_map_failure() {
                // An injected failure consumes this attempt before the
                // stripes are even probed, exercising the retry path from
                // the very top.
                PoolStats::bump(&self.stats.map_failures);
                last_errno = 12; // ENOMEM
                std::thread::yield_now();
                continue;
            }
            if let Some(stack) = self.sweep() {
                return Ok(stack);
            }
            match Stack::try_map(self.stack_size) {
                Ok(stack) => {
                    PoolStats::bump(&self.stats.maps);
                    return Ok(stack);
                }
                Err(StackError::Map { errno, .. }) => {
                    PoolStats::bump(&self.stats.map_failures);
                    last_errno = errno;
                    if attempt + 1 < MAP_RETRIES {
                        // Give other workers a chance to recycle a stack.
                        std::thread::yield_now();
                    }
                }
                Err(e @ StackError::Exhausted { .. }) => return Err(e),
            }
        }
        Err(StackError::Exhausted {
            attempts: MAP_RETRIES,
            errno: last_errno,
        })
    }

    /// Takes a stack from the pool, mapping a fresh one if empty.
    ///
    /// Panics (with the [`StackError`] message) only after the bounded
    /// retry and backpressure of [`StackPool::try_get`] are exhausted.
    pub fn get(&self) -> Stack {
        self.try_get()
            .unwrap_or_else(|e| panic!("nowa: stack allocation failed: {e}"))
    }

    /// Returns a drained stack to the pool, applying the madvise policy.
    pub fn put(&self, stack: Stack) {
        stack.release_all(self.madvise);
        PoolStats::bump(&self.stats.global_puts);
        self.stripe().lock().push(stack);
    }

    /// Pre-populates the pool with `n` mapped stacks. Fails without side
    /// effects beyond the stacks already pooled; callers (e.g.
    /// `Runtime::new`) surface the error instead of aborting.
    pub fn prefill(&self, n: usize) -> Result<(), StackError> {
        for _ in 0..n {
            let stack = Stack::try_map(self.stack_size)?;
            self.stripe().lock().push(stack);
        }
        Ok(())
    }

    /// Number of stacks currently pooled (racy snapshot).
    pub fn pooled(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().len()).sum()
    }
}

/// A worker-private bounded LIFO of stacks, backed by the global pool.
pub struct WorkerStackCache {
    pool: Arc<StackPool>,
    cache: Vec<Stack>,
    capacity: usize,
    /// Cache hits (no global pool traffic).
    pub hits: u64,
    /// Cache misses (had to go to the global pool).
    pub misses: u64,
    /// Times allocation pressure made this cache shed capacity.
    pub pressure_events: u64,
}

impl WorkerStackCache {
    /// Creates a cache holding at most `capacity` spare stacks.
    pub fn new(pool: Arc<StackPool>, capacity: usize) -> WorkerStackCache {
        WorkerStackCache {
            pool,
            cache: Vec::with_capacity(capacity),
            capacity,
            hits: 0,
            misses: 0,
            pressure_events: 0,
        }
    }

    /// Takes a stack, preferring the private cache. Fallible: a pool-level
    /// exhaustion surfaces as the typed error instead of aborting.
    #[inline]
    pub fn try_get(&mut self) -> Result<Stack, StackError> {
        if let Some(stack) = self.cache.pop() {
            self.hits += 1;
            return Ok(stack);
        }
        self.misses += 1;
        self.pool.try_get()
    }

    /// Reacts to allocation pressure: halves this cache's capacity and
    /// drains the hoarded stacks back to the global pool, where a starving
    /// worker on any stripe can pick them up.
    pub fn shed_pressure(&mut self) {
        self.pressure_events += 1;
        self.capacity = (self.capacity / 2).max(1);
        for stack in self.cache.drain(..) {
            self.pool.put(stack);
        }
    }

    /// Takes a stack, preferring the private cache.
    ///
    /// On pool exhaustion this degrades — sheds cache capacity, yields, and
    /// retries a few times (other workers' caches recycle through the pool
    /// in the meantime) — and only panics when the process is genuinely out
    /// of address space.
    #[inline]
    pub fn get(&mut self) -> Stack {
        match self.try_get() {
            Ok(stack) => stack,
            Err(error) => self.get_under_pressure(error),
        }
    }

    /// The degraded tail of [`WorkerStackCache::get`]: shed, yield, retry.
    #[cold]
    #[inline(never)]
    fn get_under_pressure(&mut self, mut error: StackError) -> Stack {
        for _ in 0..3 {
            self.shed_pressure();
            std::thread::yield_now();
            match self.pool.try_get() {
                Ok(stack) => return stack,
                Err(e) => error = e,
            }
        }
        panic!("nowa: stack allocation failed: {error}");
    }

    /// Returns a drained stack, spilling to the global pool when full.
    ///
    /// No `madvise` happens on the cache path: recycling here is the
    /// per-spawn hot path, and the paper's practical cactus-stack solution
    /// only advises the kernel on frame *suspension* (handled by the
    /// runtime via [`Stack::release_below`]) and on global-pool recycling.
    #[inline]
    pub fn put(&mut self, stack: Stack) {
        if self.cache.len() < self.capacity {
            self.cache.push(stack);
        } else {
            self.pool.put(stack);
        }
    }

    /// The shared pool backing this cache.
    pub fn pool(&self) -> &Arc<StackPool> {
        &self.pool
    }
}

impl Drop for WorkerStackCache {
    fn drop(&mut self) {
        // Return cached stacks so other workers (or the next runtime
        // instance sharing the pool) can reuse them.
        for stack in self.cache.drain(..) {
            self.pool.put(stack);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_recycles() {
        let pool = StackPool::new(64 * 1024, MadvisePolicy::Keep, 1);
        let a = pool.get();
        let a_top = a.top();
        pool.put(a);
        let b = pool.get();
        assert_eq!(b.top(), a_top, "same stack came back");
        let (gets, puts, maps) = pool.stats().snapshot();
        assert_eq!((gets, puts, maps), (1, 1, 1));
    }

    #[test]
    fn prefill_avoids_maps() {
        let pool = StackPool::new(64 * 1024, MadvisePolicy::Keep, 1);
        pool.prefill(4).unwrap();
        assert_eq!(pool.pooled(), 4);
        let _s1 = pool.get();
        let _s2 = pool.get();
        let (_, _, maps) = pool.stats().snapshot();
        assert_eq!(maps, 0);
    }

    #[test]
    fn worker_cache_hits_before_pool() {
        let pool = StackPool::new(64 * 1024, MadvisePolicy::Keep, 1);
        let mut cache = WorkerStackCache::new(pool.clone(), 2);
        let s = cache.get(); // miss -> pool -> map
        cache.put(s);
        let _s = cache.get(); // hit
        assert_eq!(cache.hits, 1);
        assert_eq!(cache.misses, 1);
        let (gets, _, _) = pool.stats().snapshot();
        assert_eq!(gets, 0, "pool only saw the miss-map, not a get");
    }

    #[test]
    fn worker_cache_spills_to_pool() {
        let pool = StackPool::new(64 * 1024, MadvisePolicy::Keep, 1);
        let mut cache = WorkerStackCache::new(pool.clone(), 1);
        let a = cache.get();
        let b = cache.get();
        cache.put(a); // cached
        cache.put(b); // spills
        assert_eq!(pool.pooled(), 1);
    }

    #[test]
    fn cache_drop_returns_stacks() {
        let pool = StackPool::new(64 * 1024, MadvisePolicy::Keep, 1);
        {
            let mut cache = WorkerStackCache::new(pool.clone(), 4);
            let s = cache.get();
            cache.put(s);
            assert_eq!(pool.pooled(), 0);
        }
        assert_eq!(pool.pooled(), 1);
    }

    #[test]
    fn striped_pool_distributes() {
        let pool = StackPool::new(64 * 1024, MadvisePolicy::Keep, 4);
        pool.prefill(8).unwrap();
        assert_eq!(pool.pooled(), 8);
        let stacks: Vec<_> = (0..8).map(|_| pool.get()).collect();
        let (_, _, maps) = pool.stats().snapshot();
        assert_eq!(maps, 0, "all gets served from stripes");
        for s in stacks {
            pool.put(s);
        }
        assert_eq!(pool.pooled(), 8);
    }

    #[cfg(feature = "chaos")]
    #[test]
    fn injected_map_failures_retry_then_succeed() {
        // Fewer armed failures than MAP_RETRIES: try_get must recover.
        let pool = StackPool::new(64 * 1024, MadvisePolicy::Keep, 1);
        crate::chaos::reset();
        crate::chaos::arm_map_failures(MAP_RETRIES - 1);
        let stack = pool.try_get().expect("bounded retry recovers");
        drop(stack);
        assert_eq!(pool.stats().map_failures(), (MAP_RETRIES - 1) as u64);
        assert_eq!(crate::chaos::armed_map_failures(), 0);
    }

    #[cfg(feature = "chaos")]
    #[test]
    fn injected_exhaustion_is_typed_not_abort() {
        let pool = StackPool::new(64 * 1024, MadvisePolicy::Keep, 1);
        crate::chaos::reset();
        crate::chaos::arm_map_failures(MAP_RETRIES);
        let err = pool.try_get().expect_err("all attempts consumed");
        assert_eq!(
            err,
            StackError::Exhausted {
                attempts: MAP_RETRIES,
                errno: 12,
            }
        );
        crate::chaos::reset();
    }

    #[cfg(feature = "chaos")]
    #[test]
    fn cache_sheds_pressure_and_recovers_from_pool() {
        // The pool holds a recycled stack; mapping is "broken". get() must
        // degrade (shed the cache) and serve from the pool, not panic.
        let pool = StackPool::new(64 * 1024, MadvisePolicy::Keep, 1);
        pool.prefill(1).unwrap();
        let mut cache = WorkerStackCache::new(pool.clone(), 8);
        crate::chaos::reset();
        crate::chaos::arm_map_failures(MAP_RETRIES);
        let stack = cache.get();
        assert!(cache.pressure_events >= 1, "cache shed under pressure");
        drop(stack);
        crate::chaos::reset();
    }

    #[test]
    fn dontneed_policy_applied_on_put() {
        let pool = StackPool::new(64 * 1024, MadvisePolicy::DontNeed, 1);
        let stack = pool.get();
        // SAFETY: single-byte write inside the mapped usable area.
        unsafe { *stack.usable_base() = 5 };
        pool.put(stack);
        let stack = pool.get();
        // SAFETY: as above; DONTNEED keeps the mapping readable.
        assert_eq!(unsafe { *stack.usable_base() }, 0, "pages were reclaimed");
    }
}
