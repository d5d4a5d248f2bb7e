//! Observability for the Nowa runtime (IPDPS 2021 reproduction).
//!
//! The runtime's claims are all about scheduler behaviour — steal rates,
//! fast-path frequency, suspension latency. This crate records that
//! behaviour without perturbing it:
//!
//! * [`EventRing`] — one bounded ring per worker of fixed-size timestamped
//!   [`Event`]s. The producer (the worker) is wait-free and never reads
//!   reader state; a full ring overwrites its oldest event. Readers either
//!   snapshot the newest events (nothing consumed) or drain everything
//!   since the last drain, counting what was overwritten first as dropped.
//! * [`Hist64`] — fixed 64-bucket log2 histograms for latencies (steal to
//!   first poll, suspend to resume, idle-spin duration) and deque
//!   occupancy. Recording is one relaxed `fetch_add`.
//! * [`TraceBuffer`] — the per-worker bundle of ring + histograms, cache-
//!   line padded so workers never share a line.
//! * [`Stamp`] — a worker's one timestamp source (hot kinds get an
//!   amortized reading).
//! * [`TraceReport`] — the merged view across workers, drained from the
//!   rings by their one consumer, with two exporters: a human-readable
//!   summary table and Chrome `trace_event` JSON (one track per worker)
//!   loadable in Perfetto or `chrome://tracing`. [`tail`] (the flight
//!   recorder: the rings' newest events, merged) and [`ring_summary`]
//!   (tail, fill, drops, histograms) are the non-consuming views for
//!   post-mortem dumps on panic, stall, or guard-page fault.
//! * [`CausalProfile`] — the analysis half: events carry causal identity
//!   (frame ids, steal provenance), so a post-run pass replays the
//!   per-worker deques, rebuilds the fork/join DAG, and computes work T1,
//!   span T∞, parallelism, steal-edge statistics and the critical path.
//!
//! The runtime depends on this crate in every build. A runtime without
//! rings reaches none of it on the hot path: each trace point tests the
//! worker's cached ring pointer and calls out of line only when a ring
//! exists.

#![warn(missing_docs)]

mod buffer;
mod clock;
mod critical;
mod dag;
mod event;
mod hist;
pub mod json;
mod report;
mod ring;

pub use buffer::{TraceBuffer, OCCUPANCY_SHIFT};
pub use clock::{now_ns, Stamp, STAMP_SHIFT};
pub use critical::{CausalProfile, CriticalPath, StealEdge};
pub use event::{
    pack_steal_arg, steal_frame, steal_victim, Event, EventKind, ARG_MASK, STEAL_FRAME_BITS,
};
pub use hist::{Hist64, HistSnapshot};
pub use report::{ring_summary, tail, TraceReport, WorkerTrace};
pub use ring::EventRing;

/// Default per-worker event-ring capacity (events). Must be a power of two.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 14;
