//! Observability for the Nowa runtime (IPDPS 2021 reproduction).
//!
//! The runtime's claims are all about scheduler behaviour — steal rates,
//! fast-path frequency, suspension latency. This crate records that
//! behaviour without perturbing it:
//!
//! * [`EventRing`] — one bounded SPSC ring per worker holding fixed-size
//!   timestamped [`Event`]s. The producer (the worker) is wait-free and
//!   never blocks: on overflow the event is dropped and counted.
//! * [`Hist64`] — fixed 64-bucket log2 histograms for latencies (steal to
//!   first poll, suspend to resume, idle-spin duration) and deque
//!   occupancy. Recording is one relaxed `fetch_add`.
//! * [`TraceBuffer`] — the per-worker bundle of ring + histograms, cache-
//!   line padded so workers never share a line.
//! * [`TraceReport`] — the merged view across workers, with three
//!   exporters: a human-readable summary table, JSON, and Chrome
//!   `trace_event` JSON (one track per worker) loadable in Perfetto or
//!   `chrome://tracing`.
//! * [`CausalProfile`] — the analysis half: events carry causal identity
//!   (frame ids, steal provenance), so a post-run pass replays the
//!   per-worker deques, rebuilds the fork/join DAG, and computes work T1,
//!   span T∞, parallelism, steal-edge statistics and the critical path.
//! * [`FlightRing`] — a bounded overwrite-oldest ring (no exporter
//!   needed) holding the last moments of scheduler history for
//!   post-mortem dumps on panic, stall, or guard-page fault.
//!
//! The runtime integrates this behind its `trace` cargo feature; with the
//! feature off nothing here is compiled into the hot path.

#![warn(missing_docs)]

mod buffer;
mod clock;
mod critical;
mod dag;
mod event;
pub mod flight;
mod hist;
pub mod json;
mod report;
mod ring;

pub use buffer::{TraceBuffer, OCCUPANCY_SHIFT};
pub use clock::now_ns;
pub use critical::{CausalProfile, CriticalPath, StealEdge};
pub use event::{
    pack_steal_arg, steal_frame, steal_victim, Event, EventKind, ARG_MASK, STEAL_FRAME_BITS,
};
pub use flight::FlightRing;
pub use hist::{Hist64, HistSnapshot};
pub use report::{TraceReport, WorkerTrace};
pub use ring::EventRing;

/// Default per-worker event-ring capacity (events). Must be a power of two.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 14;
