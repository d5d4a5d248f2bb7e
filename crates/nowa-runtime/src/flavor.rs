//! Runtime flavors: join protocol × work-stealing queue.
//!
//! The paper's evaluation compares runtime systems that differ in exactly
//! two dimensions:
//!
//! * the **strand-coordination protocol** of the outer runtime layer —
//!   Nowa's wait-free counter protocol (§IV) versus the lock-based scheme
//!   of Fibril/Cilk Plus (Listing 2, Fig. 6);
//! * the **work-stealing queue** at the core — the lock-free Chase–Lev
//!   queue versus the partially-locked THE queue (§V-C, Fig. 9).
//!
//! [`Flavor`] names the three points of that matrix the evaluation uses;
//! [`Protocol`] is what the scheduler is generic over. It has exactly two
//! implementations: [`Nowa<D>`](crate::nowa::Nowa), written once over any
//! [`nowa_deque::DequeAlgo`], and [`Fibril`](crate::fibril::Fibril), which
//! owns its fused locked deque.
//!
//! **The erasure seam.** User code reaches the monomorphised scheduler
//! bodies through the thread-local worker pointer, which cannot carry a
//! type. `with_protocol!` is the one place it is recovered: one `match`
//! on the worker's flavor tag per `spawn_execute`, `sync_execute` and
//! `find_work` *entry* (plus one in `Runtime::new`), none inside them.

use nowa_deque::{SplitConfig, Steal};

use crate::record::{AfterChild, Frame, SpawnRecord};

/// A continuation token as stored in the deques.
pub type Rec = nowa_deque::Ptr<SpawnRecord>;

/// The two legs of the chaos `ForcePromote` site, delivered through
/// [`Protocol::force_promote`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForcedPromotion {
    /// Promote every private item, whatever the public deque holds.
    Batch,
    /// Make the next promotion fail before it moves anything, as if the
    /// public deque were full, so its put-back arm runs.
    Failure,
}

/// A complete runtime flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Wait-free protocol over the Chase–Lev queue — see [`Flavor::NOWA`].
    NowaCl,
    /// Wait-free protocol over the THE queue — see [`Flavor::NOWA_THE`].
    NowaThe,
    /// Lock-based protocol over its fused queue — see [`Flavor::FIBRIL`].
    Fibril,
}

impl Flavor {
    /// Nowa as published: wait-free protocol + CL queue (§IV-C synergy).
    pub const NOWA: Flavor = Flavor::NowaCl;
    /// The Fig. 9 ablation: wait-free protocol, but the THE queue.
    pub const NOWA_THE: Flavor = Flavor::NowaThe;
    /// The lock-based baseline (Fibril stand-in): Listing 2's frame lock
    /// fused with a fully locked deque.
    pub const FIBRIL: Flavor = Flavor::Fibril;
    /// Every flavor, in report order (test and bench matrices loop here).
    pub const ALL: [Flavor; 3] = [Flavor::NOWA, Flavor::NOWA_THE, Flavor::FIBRIL];

    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Flavor::NowaCl => "nowa-cl",
            Flavor::NowaThe => "nowa-the",
            Flavor::Fibril => "fibril-lock",
        }
    }

    /// Parses the names produced by [`Flavor::name`].
    pub fn parse(name: &str) -> Option<Flavor> {
        match name {
            "nowa" | "nowa-cl" => Some(Flavor::NOWA),
            "nowa-the" => Some(Flavor::NOWA_THE),
            "fibril" | "fibril-lock" => Some(Flavor::FIBRIL),
            _ => None,
        }
    }
}

/// Evaluates `$body` with `$P` bound to the [`Protocol`] of `$flavor` — the
/// erasure seam. `Runtime::new` builds every worker as a `FlavoredWorker<P>`
/// through it and tags the worker with the same `$flavor`, so the type
/// recovered from a worker's tag is its own.
macro_rules! with_protocol {
    ($flavor:expr, $P:ident => $body:expr) => {
        match $flavor {
            $crate::flavor::Flavor::NowaCl => {
                type $P = $crate::nowa::Nowa<nowa_deque::Cl>;
                $body
            }
            $crate::flavor::Flavor::NowaThe => {
                type $P = $crate::nowa::Nowa<nowa_deque::The>;
                $body
            }
            $crate::flavor::Flavor::Fibril => {
                type $P = $crate::fibril::Fibril;
                $body
            }
        }
    };
}
pub(crate) use with_protocol;

/// A strand-coordination protocol together with the deque it runs over:
/// everything the scheduler needs from a flavor, as associated functions so
/// the spawn/sync/steal bodies monomorphise with no dispatch inside them.
pub trait Protocol: Sized + 'static {
    /// Owner side of the deque.
    type Owner: Send;
    /// Thief side of the deque.
    type Stealer: Clone + Send + Sync + 'static;

    /// Creates one worker's deque pair with the given capacity and split
    /// configuration.
    fn new_deque(capacity: usize, split: SplitConfig) -> (Self::Owner, Self::Stealer);

    /// Offers a continuation to thieves (Fig. 5 line 2). `Some(n)`: it was
    /// enqueued (privately or publicly), and `n` private items were
    /// promoted to the public deque as a side effect (the public deque
    /// was empty, or the private ring overflowed). `None`: both segments of a
    /// bounded queue refused — the caller then simply runs the child
    /// without offering the continuation (less parallelism, same
    /// semantics).
    fn push(dq: &Self::Owner, rec: Rec) -> Option<u32>;

    /// After the child returned: reclaim our continuation or perform the
    /// child join (Fig. 5 lines 4–5 plus the implicit-sync bookkeeping).
    fn pop_or_join(dq: &Self::Owner, frame: &Frame) -> AfterChild;

    /// Takes the bottom-most record of the worker's *own* deque as new work
    /// (the work-finding loop prefers local work before stealing). Includes
    /// the fork bookkeeping of whoever takes a continuation as new work.
    fn take_own(dq: &Self::Owner) -> Option<Rec>;

    /// Steals from a victim's top end, with fork bookkeeping (Fig. 5's
    /// `popTop()` + the `N` increment in `run()`).
    fn steal_from(st: &Self::Stealer) -> Steal<Rec>;

    /// At the explicit sync point: true if the sync condition already holds
    /// and the main path can proceed without suspending.
    fn sync_precheck(frame: &Frame) -> bool;

    /// On the fresh stack, after the sync continuation has been captured:
    /// publish the suspension. Returns `true` if the sync condition holds
    /// *now* (all children joined in the meantime) — the caller then
    /// resumes the sync continuation immediately instead of stealing.
    fn sync_restore(frame: &Frame) -> bool;

    /// Re-arms a frame after a completed sync so the same frame can host
    /// the next spawn region (Listing 3 allows several spawn…sync regions
    /// per spawning function).
    fn rearm(frame: &Frame);

    /// Current occupancy of the owner side, private segment included
    /// (observability only — a racy snapshot for lock-free algorithms).
    fn occupancy(dq: &Self::Owner) -> usize;

    /// Occupancy seen through a thief-side handle (racy snapshot) — the
    /// idle engine's park validation re-scan: anything non-zero anywhere
    /// means "don't sleep, go steal". Private segments are invisible here
    /// by design: a split deque is never private-only after a push (§6g),
    /// so an owner whose public deque reads empty here publishes — and
    /// takes the wake path — on its next push.
    fn stealer_len(st: &Self::Stealer) -> usize;

    // ---- the split layer (DESIGN.md §6g); the defaults describe a deque
    // ---- without a private segment, where every push is public at once.

    /// Whether a push can stay worker-private. `false` means every
    /// successful [`Protocol::push`] is thief-visible at once, so it — not
    /// only a promotion — warrants the spawn-path wake.
    fn has_private_segment(_dq: &Self::Owner) -> bool {
        false
    }

    /// Whether the most recent successful owner-side pop was served by the
    /// private segment (feeds the `private_pops` statistic).
    fn last_pop_was_private(_dq: &Self::Owner) -> bool {
        false
    }

    /// Delivers a chaos `ForcePromote` firing to the owner handle:
    /// [`Batch`](ForcedPromotion::Batch) promotes every private item
    /// whatever the public deque holds and returns the number moved;
    /// [`Failure`](ForcedPromotion::Failure) makes the next promotion fail
    /// as if the public deque were full and returns 0.
    fn force_promote(_dq: &Self::Owner, _leg: ForcedPromotion) -> u32 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flavor_names_round_trip() {
        for f in Flavor::ALL {
            assert_eq!(Flavor::parse(f.name()), Some(f));
        }
        assert_eq!(Flavor::parse("nope"), None);
        // The retired ablation flavors no longer parse.
        assert_eq!(Flavor::parse("nowa-abp"), None);
        assert_eq!(Flavor::parse("nowa-lockq"), None);
    }
}
