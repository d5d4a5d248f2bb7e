//! Work-stealing deques for the Nowa concurrency platform.
//!
//! This crate provides the two double-ended work-stealing queues the paper
//! *“Nowa: A Wait-Free Continuation-Stealing Concurrency Platform”*
//! (IPDPS 2021) evaluates (§II-A, §V-C), plus the split layer that wraps
//! either of them:
//!
//! * [`ClDeque`] — the Chase–Lev dynamic circular deque (SPAA 2005), with the
//!   C11 memory orderings of Lê et al. (PPoPP 2013). Fully lock-free; this is
//!   the queue Nowa pairs with its wait-free join protocol (§IV-C).
//! * [`TheDeque`] — the Cilk-5 THE (Tail, Head, Exception) protocol
//!   (PLDI 1998). The owner elides the lock unless the ends conflict; thieves
//!   serialize on a per-deque lock.
//! * [`SplitDeque`] — a private/public split layer over either queue: the
//!   owner's newest items live in an unsynchronised private ring and are
//!   promoted to the wrapped (public) deque lazily.
//!
//! # Ownership discipline
//!
//! Work-stealing deques are only *partially* multithread-safe (§II-A): the
//! bottom end belongs to exactly one worker, while any number of thieves may
//! concurrently call `steal` on the top end. The API encodes this in the type
//! system: creating a deque yields a worker-side handle (not `Sync`, cannot
//! be cloned) and a stealer-side handle (`Clone + Send + Sync`).
//!
//! # Item representation
//!
//! The deques natively move machine-word [`Token`]s (anything convertible to
//! and from a non-zero `u64`, such as `NonNull<T>`). This mirrors the paper's
//! runtime systems, which enqueue continuation pointers, and lets every slot
//! be a plain atomic — element accesses are data-race-free by construction
//! under the C11/Rust memory model.
//!
//! ```
//! use nowa_deque::{ClDeque, Steal, StealerOps, WorkerOps};
//!
//! let (worker, stealer) = ClDeque::<usize>::new(8);
//! worker.push(1).unwrap();
//! worker.push(2).unwrap();
//! assert_eq!(stealer.steal(), Steal::Success(1)); // FIFO at the top
//! assert_eq!(worker.pop(), Some(2)); // LIFO at the bottom
//! assert_eq!(worker.pop(), None);
//! ```

#![warn(missing_docs)]

mod cl;
mod split;
mod sync;
mod the;
mod token;

pub use cl::{ClDeque, ClStealer, ClWorker};
pub use split::{SplitConfig, SplitDeque, SplitPush, SplitStealer, SplitWorker};
pub use the::{TheDeque, TheStealer, TheWorker};
pub use token::{Ptr, Token};

/// Result of a [`steal`](StealerOps::steal) attempt on the top end of a deque.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal<T> {
    /// The deque was observed empty.
    Empty,
    /// An item was stolen.
    Success(T),
    /// The thief lost a race with another thief or the owner and should
    /// retry (possibly on a different victim).
    Retry,
}

impl<T> Steal<T> {
    /// Returns the stolen item, if any.
    pub fn success(self) -> Option<T> {
        match self {
            Steal::Success(item) => Some(item),
            _ => None,
        }
    }

    /// True if the deque was observed empty.
    pub fn is_empty(&self) -> bool {
        matches!(self, Steal::Empty)
    }
}

/// Error returned when a bounded deque cannot accept another item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Full<T>(pub T);

/// Owner-side operations (the *bottom* end, §II-A).
///
/// Handles implementing this trait must be used from a single thread at a
/// time; they are `Send` but deliberately not `Sync` and not `Clone`.
pub trait WorkerOps<T: Token> {
    /// Pushes an item on the bottom end.
    ///
    /// The bounded [`TheDeque`] returns [`Full`] when out of space;
    /// [`ClDeque`] grows and never fails.
    fn push(&self, item: T) -> Result<(), Full<T>>;

    /// Pops an item from the bottom end (LIFO relative to `push`).
    fn pop(&self) -> Option<T>;

    /// A snapshot of the number of enqueued items. Racy; for heuristics and
    /// statistics only.
    fn len(&self) -> usize;

    /// True if `len() == 0` at the time of the snapshot.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Thief-side operations (the *top* end, §II-A).
pub trait StealerOps<T: Token>: Clone + Send + Sync {
    /// Attempts to steal the item at the top end (FIFO relative to `push`).
    fn steal(&self) -> Steal<T>;

    /// A snapshot of the number of items visible to thieves. Racy; for
    /// heuristics (the idle engine's park validation) and statistics only.
    fn len(&self) -> usize;

    /// True if `len() == 0` at the time of the snapshot.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Retries [`steal`](Self::steal) until it returns something other than
    /// [`Steal::Retry`].
    fn steal_retrying(&self) -> Option<T> {
        loop {
            match self.steal() {
                Steal::Success(item) => return Some(item),
                Steal::Empty => return None,
                Steal::Retry => crate::sync::busy_spin(),
            }
        }
    }
}

/// A work-stealing deque algorithm, used to make runtimes generic over the
/// queue at their core (reproduces the Fig. 9 ablation).
pub trait DequeAlgo: 'static {
    /// Owner-side handle type.
    type Worker<T: Token>: WorkerOps<T> + Send;
    /// Thief-side handle type.
    type Stealer<T: Token>: StealerOps<T> + 'static;

    /// Human-readable algorithm name (used in reports).
    const NAME: &'static str;

    /// Creates a deque with capacity for at least `capacity` items.
    fn create<T: Token>(capacity: usize) -> (Self::Worker<T>, Self::Stealer<T>);
}

/// Marker type selecting the Chase–Lev queue (the Nowa default).
pub struct Cl;
/// Marker type selecting the Cilk-5 THE queue.
pub struct The;

impl DequeAlgo for Cl {
    type Worker<T: Token> = ClWorker<T>;
    type Stealer<T: Token> = ClStealer<T>;
    const NAME: &'static str = "cl";
    fn create<T: Token>(capacity: usize) -> (Self::Worker<T>, Self::Stealer<T>) {
        ClDeque::new(capacity)
    }
}

impl DequeAlgo for The {
    type Worker<T: Token> = TheWorker<T>;
    type Stealer<T: Token> = TheStealer<T>;
    const NAME: &'static str = "the";
    fn create<T: Token>(capacity: usize) -> (Self::Worker<T>, Self::Stealer<T>) {
        TheDeque::new(capacity)
    }
}
