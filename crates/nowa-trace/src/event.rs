//! Fixed-size trace events.
//!
//! An event is two `u64` words: a timestamp (ns since the trace epoch) and
//! a packed word holding the kind (high 8 bits) plus a 56-bit argument.
//! Two words keep ring slots small and make the producer path two relaxed
//! atomic stores.

/// Mask for the 56-bit event argument.
pub const ARG_MASK: u64 = (1 << 56) - 1;

/// Bits of frame id carried in a [`EventKind::Steal`] argument (the low 8
/// bits hold the victim index).
pub const STEAL_FRAME_BITS: u32 = 48;

/// Packs a steal argument: victim index in the low 8 bits, the low
/// [`STEAL_FRAME_BITS`] bits of the stolen record's frame id above them.
/// Frame ids are address-derived (the runtime's `frame_id`), so truncation only
/// risks a (harmless) collision in post-run pairing.
#[inline]
pub fn pack_steal_arg(victim: usize, frame: u64) -> u64 {
    (victim as u64 & 0xFF) | ((frame & ((1 << STEAL_FRAME_BITS) - 1)) << 8)
}

/// The victim index from a [`EventKind::Steal`] argument.
#[inline]
pub fn steal_victim(arg: u64) -> usize {
    (arg & 0xFF) as usize
}

/// The (truncated) frame id from a [`EventKind::Steal`] argument.
#[inline]
pub fn steal_frame(arg: u64) -> u64 {
    (arg >> 8) & ((1 << STEAL_FRAME_BITS) - 1)
}

/// What happened. The argument's meaning depends on the kind.
///
/// Deque-lifecycle kinds (`Spawn`, `Steal`, `FastPop`, `OwnTake`, `Join`,
/// `SyncInline`, `SyncSuspend`, `SyncResume`) carry the *frame id* of the
/// spawn record or sync frame involved, giving every continuation a causal
/// identity: a post-run pass ([`crate::CausalProfile`]) can replay the
/// per-worker deques and rebuild the fork/join DAG across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A continuation was offered to thieves (pushed on the owner deque).
    /// arg: the spawning frame's id. Emitted only for *offered* spawns —
    /// spawns elided by the flavor's no-offer path create no deque record
    /// and so no DAG edge.
    Spawn = 0,
    /// A steal attempt found the victim's deque empty. arg: victim index.
    StealEmpty = 1,
    /// A steal attempt lost a race and will retry. arg: victim index.
    StealRetry = 2,
    /// A steal succeeded. arg: [`pack_steal_arg`]`(victim, frame)` — the
    /// victim index plus the stolen record's frame id (steal provenance).
    Steal = 3,
    /// Fast-path pop: the continuation was not stolen. arg: the popped
    /// record's frame id.
    FastPop = 4,
    /// The work-finding loop took a continuation from its own deque.
    /// arg: the taken record's frame id.
    OwnTake = 5,
    /// A child joined (its continuation had been consumed elsewhere).
    /// arg: the child's frame id.
    Join = 6,
    /// An explicit sync was satisfied inline. arg: frame id.
    SyncInline = 7,
    /// An explicit sync suspended its frame. arg: frame id.
    SyncSuspend = 8,
    /// A suspended sync continuation was resumed. arg: frame id.
    SyncResume = 9,
    /// An idle period ended. The timestamp is the *start* of the period;
    /// arg: its duration in ns.
    Idle = 10,
    /// A root task was taken from the injector. arg: 0.
    Root = 11,
    /// Deque occupancy sample. arg: the owner deque's length.
    Occupancy = 12,
    /// A worker entered a futex park (idle engine). arg: 0.
    Park = 13,
    /// A park ended. The timestamp is the *start* of the park; arg: its
    /// duration in ns (mirrors [`EventKind::Idle`] so exporters can render
    /// it as a span).
    Unpark = 14,
    /// A targeted wake was issued. arg: the woken worker's index.
    Wake = 15,
    /// A cooperative checkpoint observed a cancelled scope and raised.
    /// arg: the checkpointing frame's id (0 for an ambient checkpoint
    /// outside any join frame).
    Cancel = 16,
    /// A suspended sync continuation was resumed into a cancelled scope —
    /// the abort path: woken specifically to unwind. arg: frame id.
    Abort = 17,
    /// A `block_on` future returned `Pending` and its continuation was
    /// parked behind a waker (async serving surface, §6h). arg: the
    /// parked cell's id.
    AsyncPark = 18,
    /// A waker claimed a parked async continuation and enqueued it on the
    /// ready queue. arg: the woken cell's id.
    AsyncWake = 19,
    /// A worker completed one reactor poll (epoll_wait + dispatch).
    /// arg: the number of I/O events dispatched.
    ReactorPoll = 20,
    /// A reactor poll fired due timers. arg: how many fired.
    TimerFire = 21,
}

/// Number of distinct [`EventKind`]s.
pub const NUM_KINDS: usize = 22;

impl EventKind {
    /// All kinds, in discriminant order.
    pub const ALL: [EventKind; NUM_KINDS] = [
        EventKind::Spawn,
        EventKind::StealEmpty,
        EventKind::StealRetry,
        EventKind::Steal,
        EventKind::FastPop,
        EventKind::OwnTake,
        EventKind::Join,
        EventKind::SyncInline,
        EventKind::SyncSuspend,
        EventKind::SyncResume,
        EventKind::Idle,
        EventKind::Root,
        EventKind::Occupancy,
        EventKind::Park,
        EventKind::Unpark,
        EventKind::Wake,
        EventKind::Cancel,
        EventKind::Abort,
        EventKind::AsyncPark,
        EventKind::AsyncWake,
        EventKind::ReactorPoll,
        EventKind::TimerFire,
    ];

    /// Kind from its discriminant.
    pub fn from_u8(v: u8) -> Option<EventKind> {
        EventKind::ALL.get(v as usize).copied()
    }

    /// Stable display name (also used as the Chrome event name).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Spawn => "spawn",
            EventKind::StealEmpty => "steal_empty",
            EventKind::StealRetry => "steal_retry",
            EventKind::Steal => "steal",
            EventKind::FastPop => "fast_pop",
            EventKind::OwnTake => "own_take",
            EventKind::Join => "join",
            EventKind::SyncInline => "sync_inline",
            EventKind::SyncSuspend => "sync_suspend",
            EventKind::SyncResume => "sync_resume",
            EventKind::Idle => "idle",
            EventKind::Root => "root",
            EventKind::Occupancy => "occupancy",
            EventKind::Park => "park",
            EventKind::Unpark => "unpark",
            EventKind::Wake => "wake",
            EventKind::Cancel => "cancel",
            EventKind::Abort => "abort",
            EventKind::AsyncPark => "async_park",
            EventKind::AsyncWake => "async_wake",
            EventKind::ReactorPoll => "reactor_poll",
            EventKind::TimerFire => "timer_fire",
        }
    }
}

/// One timestamped scheduler event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the trace epoch ([`crate::now_ns`]).
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific argument (56 bits).
    pub arg: u64,
}

impl Event {
    /// A new event; the argument is truncated to 56 bits.
    #[inline]
    pub fn new(ts_ns: u64, kind: EventKind, arg: u64) -> Event {
        Event {
            ts_ns,
            kind,
            arg: arg & ARG_MASK,
        }
    }

    /// Packs kind + argument into the second slot word.
    #[inline]
    pub fn pack_word(&self) -> u64 {
        ((self.kind as u64) << 56) | (self.arg & ARG_MASK)
    }

    /// Rebuilds an event from its two slot words. Returns `None` for an
    /// unknown kind (possible only with corrupted input).
    #[inline]
    pub fn from_words(ts_ns: u64, packed: u64) -> Option<Event> {
        let kind = EventKind::from_u8((packed >> 56) as u8)?;
        Some(Event {
            ts_ns,
            kind,
            arg: packed & ARG_MASK,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip_all_kinds() {
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i, "discriminants are dense");
            let ev = Event::new(123_456_789, *kind, 0xABCD_EF01_2345);
            let back = Event::from_words(ev.ts_ns, ev.pack_word()).unwrap();
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn arg_truncates_to_56_bits() {
        let ev = Event::new(1, EventKind::Idle, u64::MAX);
        assert_eq!(ev.arg, ARG_MASK);
        assert_eq!(
            Event::from_words(1, ev.pack_word()).unwrap().kind,
            EventKind::Idle
        );
    }

    #[test]
    fn unknown_kind_rejected() {
        assert!(Event::from_words(0, (NUM_KINDS as u64) << 56).is_none());
    }

    #[test]
    fn steal_arg_packs_victim_and_frame() {
        let arg = pack_steal_arg(7, 0xDEAD_BEEF);
        assert_eq!(steal_victim(arg), 7);
        assert_eq!(steal_frame(arg), 0xDEAD_BEEF);
        assert!(arg <= ARG_MASK, "packed arg fits the 56-bit field");
        // Frame ids wider than 48 bits truncate; the victim is unaffected.
        let wide = pack_steal_arg(255, u64::MAX);
        assert_eq!(steal_victim(wide), 255);
        assert_eq!(steal_frame(wide), (1 << STEAL_FRAME_BITS) - 1);
    }
}
