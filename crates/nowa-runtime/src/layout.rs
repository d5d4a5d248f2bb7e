//! Layout audit for the per-spawn structures (DESIGN.md §6g).
//!
//! Every `join2` builds a [`Frame`] and a [`SpawnRecord`] on its stack, so
//! every cache line they span is a line the spawn fast path writes. The
//! structs are `repr(C)` and unpadded: the fields the protocol reads first
//! lead, and the whole frame fits in two 64-byte lines. A field added in
//! the wrong place, or an alignment attribute that pads the frame out
//! again, fails these tests (plus the `const` asserts next to the
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

use crate::frame::FrameCore;
use crate::idle::ParkSlot;
use crate::record::{Frame, JoinState, SpawnRecord};
use crate::stats::WorkerStats;

/// One coherence granule (two 64-byte lines — the prefetcher-pair unit the
/// per-worker arrays pad to).
const GRANULE: usize = 128;

/// One cache line.
const LINE: usize = 64;

#[test]
fn join_state_leads_with_the_wait_free_atomics() {
    assert_eq!(offset_of!(JoinState, counter), 0);
    assert_eq!(offset_of!(JoinState, alpha), 8);
    assert_eq!(offset_of!(JoinState, susp), 12);
    // The lock-based baseline's mutex follows with no gap.
    assert_eq!(offset_of!(JoinState, locked), 16);
    assert!(size_of::<JoinState>() <= LINE);
}

#[test]
fn frame_core_leads_with_the_checkpoint_fields() {
    assert_eq!(offset_of!(FrameCore, flagged), 0);
    assert_eq!(offset_of!(FrameCore, scope), 8);
    // Suspension + panic state right behind them.
    assert_eq!(offset_of!(FrameCore, sync_ctx), 16);
    assert!(offset_of!(FrameCore, suspended_stack) > offset_of!(FrameCore, sync_ctx));
    assert!(offset_of!(FrameCore, panic) > offset_of!(FrameCore, suspended_stack));
}

#[test]
fn frame_fits_two_lines_in_declaration_order() {
    assert_eq!(offset_of!(Frame, core), 0);
    assert_eq!(offset_of!(Frame, join), size_of::<FrameCore>());
    assert_eq!(
        size_of::<Frame>(),
        size_of::<FrameCore>() + size_of::<JoinState>()
    );
    assert!(size_of::<Frame>() <= 2 * LINE);
    assert!(
        align_of::<Frame>() <= 8,
        "an aligned frame pads every join2's stack frame"
    );
}

#[test]
fn spawn_record_is_unpadded() {
    assert_eq!(offset_of!(SpawnRecord, ctx), 0);
    assert_eq!(offset_of!(SpawnRecord, frame), 8);
    assert_eq!(size_of::<SpawnRecord>(), 16 + size_of::<Option<Stack>>());
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
