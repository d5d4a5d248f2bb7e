//! The outside-work queue: everything that enters the worker pool from a
//! thread that is not running one of its strands.
//!
//! Two kinds of work arrive this way — a root task submitted by
//! [`Runtime::run`](crate::runtime::Runtime::run), and a parked `block_on`
//! continuation claimed by its waker (a `Waker` may fire on any thread;
//! DESIGN.md §6h). Neither is on the spawn/steal/join path, so the queue is
//! a locked FIFO: a `Mutex<VecDeque>` that allocates nothing per push and
//! frees every item it pops. What *is* polled on a hot path is emptiness —
//! every work-finding iteration and every park validation re-scan asks —
//! so the length is mirrored in an atomic and an empty poll is one load
//! that never touches the lock.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::sync::{AtomicUsize, Ordering};
use crate::task::AsyncCell;

/// One unit of work queued from outside the pool.
pub(crate) enum Outside {
    /// A root task (type-erased; completion signalling is baked into the
    /// closure by [`Runtime::run`](crate::runtime::Runtime::run)). Must
    /// not unwind.
    Root(Box<dyn FnOnce() + Send>),
    /// A parked async continuation whose wake was claimed: the popping
    /// worker owns the continuation and resumes it.
    Ready(Arc<AsyncCell>),
}

struct State {
    items: VecDeque<Outside>,
    /// Root admission latch, set once by [`Injector::close`]. Read and
    /// written only under the lock, so a root is either queued before the
    /// close or refused — never both.
    closed: bool,
}

/// The queue. See the module docs.
pub(crate) struct Injector {
    state: parking_lot::Mutex<State>,
    /// `items.len()`, stored under the lock after every change.
    len: AtomicUsize,
}

impl Injector {
    pub(crate) fn new() -> Injector {
        Injector {
            state: parking_lot::Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            len: AtomicUsize::new(0),
        }
    }

    /// Refuses root tasks from now on. `Ready` continuations are still
    /// accepted and drained: the shutdown drain resumes them so their
    /// `block_on` frames can unwind through their cancellation checkpoints.
    pub(crate) fn close(&self) {
        self.state.lock().closed = true;
    }

    /// Enqueues a root task. Returns `false` — dropping `task` unrun — if
    /// the queue has been closed.
    #[must_use]
    pub(crate) fn push_root(&self, task: Box<dyn FnOnce() + Send>) -> bool {
        let mut state = self.state.lock();
        if state.closed {
            return false;
        }
        self.enqueue(&mut state, Outside::Root(task));
        true
    }

    /// Enqueues a claimed continuation. Never refused.
    pub(crate) fn push_ready(&self, cell: Arc<AsyncCell>) {
        self.enqueue(&mut self.state.lock(), Outside::Ready(cell));
    }

    fn enqueue(&self, state: &mut State, work: Outside) {
        state.items.push_back(work);
        // Release, after the item is queued: pairs with the Acquire load in
        // `is_empty`, so a sleeper whose validation re-scan reads the new
        // length also finds the item behind the lock.
        self.len.store(state.items.len(), Ordering::Release);
    }

    /// Dequeues the oldest item, or `None` when the queue is (momentarily)
    /// empty. An empty poll takes no lock.
    pub(crate) fn pop(&self) -> Option<Outside> {
        if self.is_empty() {
            return None;
        }
        let mut state = self.state.lock();
        let work = state.items.pop_front();
        // Release like `enqueue`'s store, though a shrinking length has
        // nothing to publish: a reader that still sees the old non-zero
        // value pays one locked look at an empty queue.
        self.len.store(state.items.len(), Ordering::Release);
        work
    }

    /// Racy emptiness snapshot for the work-finding poll and the park
    /// validation re-scan: may spuriously report non-empty (harmless — one
    /// extra sweep), and any push ordered before the caller's announce is
    /// reliably seen.
    pub(crate) fn is_empty(&self) -> bool {
        self.len.load(Ordering::Acquire) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::AtomicU64;
    use std::sync::Weak;

    fn root(counter: &Arc<AtomicU64>, value: u64) -> Box<dyn FnOnce() + Send> {
        let counter = counter.clone();
        Box::new(move || {
            counter.fetch_add(value, Ordering::Relaxed);
        })
    }

    fn cell() -> Arc<AsyncCell> {
        Arc::new(AsyncCell::new(Weak::new(), core::ptr::null()))
    }

    fn run_root(work: Outside) {
        match work {
            Outside::Root(run) => run(),
            Outside::Ready(_) => panic!("expected a root task"),
        }
    }

    #[test]
    fn fifo_across_both_kinds() {
        let q = Injector::new();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        // Each root records its position; cells are identified by address.
        let order = Arc::new(AtomicU64::new(0));
        let cells: Vec<_> = (0..3).map(|_| cell()).collect();
        for (i, c) in cells.iter().enumerate() {
            let order = order.clone();
            assert!(q.push_root(Box::new(move || {
                assert_eq!(order.fetch_add(1, Ordering::Relaxed), i as u64);
            })));
            q.push_ready(c.clone());
        }
        assert!(!q.is_empty());
        for c in &cells {
            run_root(q.pop().expect("a root before each cell"));
            match q.pop() {
                Some(Outside::Ready(popped)) => assert!(Arc::ptr_eq(&popped, c)),
                _ => panic!("expected the cell pushed after the root"),
            }
        }
        assert_eq!(order.load(Ordering::Relaxed), 3);
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_and_drop_free_every_item() {
        struct Marker(Arc<AtomicU64>);
        impl Drop for Marker {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicU64::new(0));
        let q = Injector::new();
        let c = cell();
        for _ in 0..67 {
            let m = Marker(drops.clone());
            assert!(q.push_root(Box::new(move || {
                let _keep = &m;
            })));
            q.push_ready(c.clone());
        }
        assert_eq!(Arc::strong_count(&c), 68);
        // A popped item is owned by the popper alone: dropping it unrun
        // frees it, the queue keeps nothing behind.
        drop(q.pop());
        drop(q.pop());
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        assert_eq!(Arc::strong_count(&c), 67);
        drop(q);
        assert_eq!(drops.load(Ordering::Relaxed), 67);
        assert_eq!(Arc::strong_count(&c), 1);
    }

    #[test]
    fn close_rejects_roots_but_accepts_and_drains_ready() {
        let q = Injector::new();
        let sum = Arc::new(AtomicU64::new(0));
        assert!(q.push_root(root(&sum, 7)));
        q.close();
        assert!(!q.push_root(root(&sum, 100)));
        let c = cell();
        q.push_ready(c.clone());
        // The pre-close root still drains, then the post-close cell.
        run_root(q.pop().expect("landed root survives close"));
        assert!(matches!(q.pop(), Some(Outside::Ready(p)) if Arc::ptr_eq(&p, &c)));
        assert!(q.pop().is_none());
        // The rejected root was dropped unrun.
        assert_eq!(sum.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn mpmc_stress_transfers_everything_once() {
        let q = Arc::new(Injector::new());
        let sum = Arc::new(AtomicU64::new(0));
        let popped = Arc::new(AtomicU64::new(0));
        let producers = 4;
        let per_producer = 500;

        let push_threads: Vec<_> = (0..producers)
            .map(|_| {
                let q = q.clone();
                let sum = sum.clone();
                std::thread::spawn(move || {
                    for i in 1..=per_producer {
                        assert!(q.push_root(root(&sum, i)));
                    }
                })
            })
            .collect();
        let expected = producers * (per_producer * (per_producer + 1)) / 2;
        let total = producers * per_producer;
        let pop_threads: Vec<_> = (0..3)
            .map(|_| {
                let q = q.clone();
                let popped = popped.clone();
                std::thread::spawn(move || {
                    while popped.load(Ordering::Relaxed) < total {
                        if let Some(work) = q.pop() {
                            run_root(work);
                            popped.fetch_add(1, Ordering::Relaxed);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for t in push_threads {
            t.join().unwrap();
        }
        for t in pop_threads {
            t.join().unwrap();
        }
        assert_eq!(popped.load(Ordering::Relaxed), total);
        assert_eq!(sum.load(Ordering::Relaxed), expected);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }
}
