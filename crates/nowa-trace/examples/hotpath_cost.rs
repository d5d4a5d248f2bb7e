//! Micro-cost probe for the hot recording path (dev aid: run with
//! --release and read ns/op).
use nowa_trace::{Event, EventKind, EventRing, Stamp, TraceBuffer};
use std::time::Instant;

fn main() {
    let n = 5_000_000u64;

    let ring = EventRing::new(1 << 14);
    let t0 = Instant::now();
    for i in 0..n {
        ring.push(Event::new(i, EventKind::Spawn, i));
    }
    println!(
        "ring.push alone: {:.1} ns/op",
        t0.elapsed().as_nanos() as f64 / n as f64
    );

    let buf = TraceBuffer::new(1 << 14);
    let stamp = Stamp::default();
    let t0 = Instant::now();
    for i in 0..n {
        buf.record(Event::new(stamp.hot(), EventKind::FastPop, i));
    }
    println!(
        "hot-stamped push: {:.1} ns/op",
        t0.elapsed().as_nanos() as f64 / n as f64
    );

    let buf = TraceBuffer::new(1 << 14);
    let t0 = Instant::now();
    for i in 0..n {
        buf.spawn(Event::new(stamp.hot(), EventKind::Spawn, i), || 3);
        buf.record(Event::new(stamp.hot(), EventKind::FastPop, i));
        buf.record(Event::new(stamp.hot(), EventKind::SyncInline, i));
    }
    let per = t0.elapsed().as_nanos() as f64 / n as f64;
    println!(
        "spawn+fastpop+syncinline: {per:.1} ns/iter ({:.1} ns/event)",
        per / 3.0
    );
}
