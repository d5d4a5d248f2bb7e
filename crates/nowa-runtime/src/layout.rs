//! Layout audit for the per-spawn structures (DESIGN.md §6g).
//!
//! Every `join2` builds a [`Frame`] and a [`SpawnRecord`] on its stack, so
//! every cache line they span is a line the spawn fast path writes. The
//! structs are `repr(C)` and unpadded: the words an un-stolen `join2`
//! touches fill the frame's first 32 bytes, and the whole frame is at most
//! 80 bytes. A field added in the wrong place, or an alignment attribute
//! that pads the frame out again, fails these tests (plus the `const` asserts next to the
//! structs) with a named field instead of only moving the benchmark
//! numbers.
//!
//! The per-worker arrays are the opposite case: they are shared between
//! threads and stay padded to a coherence granule.
//!
//! Everything here is `cfg(not(loom))` by way of the test build: loom's
//! atomics are model-sized objects.

use core::mem::{align_of, offset_of, size_of};

use nowa_context::Stack;

use crate::idle::ParkSlot;
use crate::record::{Frame, SpawnRecord};
use crate::stats::WorkerStats;

/// One coherence granule (two 64-byte lines — the prefetcher-pair unit the
/// per-worker arrays pad to).
const GRANULE: usize = 128;

#[test]
fn frame_leads_with_the_words_an_unstolen_join2_touches() {
    // Nowa's counter pair and suspension word, then the checkpoint fields:
    // all in the first 32 bytes.
    assert_eq!(offset_of!(Frame, counter), 0);
    assert_eq!(offset_of!(Frame, alpha), 8);
    assert_eq!(offset_of!(Frame, susp), 12);
    assert_eq!(offset_of!(Frame, flagged), 16);
    assert_eq!(offset_of!(Frame, scope), 24);
    // Suspension state and the frame lock behind them, in that order.
    assert_eq!(offset_of!(Frame, sync_ctx), 32);
    assert!(offset_of!(Frame, suspended_stack) > offset_of!(Frame, sync_ctx));
    assert!(offset_of!(Frame, lock) > offset_of!(Frame, suspended_stack));
}

#[test]
fn frame_is_at_most_80_bytes() {
    assert!(size_of::<Frame>() <= 80, "{} bytes", size_of::<Frame>());
    assert!(
        align_of::<Frame>() <= 8,
        "an aligned frame pads every join2's stack frame"
    );
}

#[test]
fn stack_hand_off_slots_carry_no_tag_word() {
    // Every hand-off slot (`Worker::{current_stack, incoming_stack,
    // pending_recycle}`, `SpawnRecord::stack`, `Frame::
    // suspended_stack`, `AsyncCell::stack`) is an `Option<Stack>`: the
    // non-null base is its niche, so `None` costs no third word.
    assert_eq!(size_of::<Option<Stack>>(), size_of::<Stack>());
    assert!(size_of::<Stack>() <= 16);
}

#[test]
fn spawn_record_is_unpadded() {
    assert_eq!(offset_of!(SpawnRecord, ctx), 0);
    assert_eq!(offset_of!(SpawnRecord, frame), 8);
    assert_eq!(size_of::<SpawnRecord>(), 16 + size_of::<Option<Stack>>());
    assert!(size_of::<SpawnRecord>() <= 32, "half a line per spawn");
    assert!(align_of::<SpawnRecord>() <= 8);
}

#[test]
fn per_worker_slots_cannot_false_share() {
    // The idle engine's park flags and the stats blocks live in arrays —
    // alignment is what keeps worker i's futex traffic off worker i+1's
    // line.
    assert_eq!(align_of::<ParkSlot>(), GRANULE);
    assert_eq!(size_of::<ParkSlot>(), GRANULE);
    assert!(align_of::<WorkerStats>() >= GRANULE);
    assert_eq!(size_of::<WorkerStats>() % GRANULE, 0);
}
