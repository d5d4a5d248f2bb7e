//! cfg-twinned concurrency primitives: atomics that resolve to the loom
//! model checker's under `--cfg loom` (with `nowa-runtime`'s twin, the
//! workspace's only cfg twin).
//!
//! Normal builds re-export `core::sync::atomic` — this module compiles to
//! nothing. Under `RUSTFLAGS="--cfg loom"` the same names resolve to the
//! model-checked atomics from the vendored `loom` crate, so every deque
//! algorithm in this crate runs unmodified inside `loom::model` and its
//! memory orderings are explored exhaustively (see `tests/loom.rs`).
//!
//! Every atomic in this crate must go through this module; a direct
//! `core::sync::atomic` access would be invisible to the model checker and
//! silently weaken the models.

#[cfg(not(loom))]
pub(crate) use core::sync::atomic::{fence, AtomicI64, AtomicPtr, AtomicU64, Ordering};

#[cfg(loom)]
pub(crate) use loom::sync::atomic::{fence, AtomicI64, AtomicPtr, AtomicU64, Ordering};

/// Spin-wait hint: a CPU pause normally, a model-scheduler yield under loom
/// (a modeled spin must cede the interleaving or it would livelock the
/// checker).
#[inline(always)]
pub(crate) fn busy_spin() {
    #[cfg(not(loom))]
    core::hint::spin_loop();
    #[cfg(loom)]
    loom::thread::yield_now();
}

#[cfg(not(loom))]
pub(crate) use parking_lot::Mutex;

// Cfg-twin parity: the loom arm defines a `MutexGuard` type, so the normal
// arm must export the same name even while no caller stores a guard in a
// typed binding yet.
#[allow(unused_imports)]
#[cfg(not(loom))]
pub(crate) use parking_lot::MutexGuard;

/// Under loom, a mutex the model checker can see: a spinlock over a loom
/// atomic. A real `parking_lot::Mutex` would still exclude threads in wall
/// time, but its acquire/release edges would be invisible to the model —
/// relaxed reads under the lock would be (wrongly) reported as able to see
/// stale values, as the THE deque's arbitration path demonstrated.
#[cfg(loom)]
pub(crate) struct Mutex<T> {
    locked: loom::sync::atomic::AtomicU32,
    data: core::cell::UnsafeCell<T>,
}

#[cfg(loom)]
unsafe impl<T: Send> Send for Mutex<T> {}
#[cfg(loom)]
unsafe impl<T: Send> Sync for Mutex<T> {}

#[cfg(loom)]
impl<T> Mutex<T> {
    pub(crate) fn new(value: T) -> Mutex<T> {
        Mutex {
            locked: loom::sync::atomic::AtomicU32::new(0),
            data: core::cell::UnsafeCell::new(value),
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        while self
            .locked
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            loom::thread::yield_now();
        }
        MutexGuard { lock: self }
    }

    pub(crate) fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

#[cfg(loom)]
pub(crate) struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
}

#[cfg(loom)]
impl<T> core::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the CAS in `lock` grants exclusive access until drop.
        unsafe { &*self.lock.data.get() }
    }
}

#[cfg(loom)]
impl<T> core::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`.
        unsafe { &mut *self.lock.data.get() }
    }
}

#[cfg(loom)]
impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.locked.store(0, Ordering::Release);
    }
}
