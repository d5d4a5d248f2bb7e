//! Heap balance of the cross-thread wake path.
//!
//! A waker that fires on a foreign thread while its strand is parked hands
//! the continuation to the runtime through the outside-work queue — once
//! per wake, for as long as the runtime serves. Whatever that hand-off
//! allocates it must free again: this file counts live heap bytes with its
//! own global allocator and asserts that 200 000 such wakes leave the heap
//! where they found it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::future::poll_fn;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::mpsc;
use std::task::{Poll, Waker};

use nowa_runtime::{Config, Runtime};

/// Bytes allocated and not yet freed, process-wide.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the counter is a
// side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's `GlobalAlloc::alloc` contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's `GlobalAlloc::dealloc` contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Parks the calling strand `wakes` times; each park ends with `tx`'s
/// receiver firing the waker from its own thread.
fn park_and_be_woken(rt: &Runtime, tx: &mpsc::Sender<Waker>, wakes: usize) {
    rt.run(|| {
        nowa_runtime::block_on(async {
            for _ in 0..wakes {
                let mut sent = false;
                poll_fn(|cx| {
                    if sent {
                        return Poll::Ready(());
                    }
                    sent = true;
                    tx.send(cx.waker().clone()).expect("waker thread alive");
                    Poll::Pending
                })
                .await;
            }
        })
    });
}

#[test]
fn cross_thread_wakes_leave_the_heap_balanced() {
    const WAKES: usize = 200_000;
    let rt = Runtime::new(Config::with_workers(2)).unwrap();
    let (tx, rx) = mpsc::channel::<Waker>();
    // The receive blocks until the strand has sent its waker and returned
    // `Pending`, so the wake lands on a cell that is parked (or about to
    // be) and travels the queue instead of being latched in place.
    let waker_thread = std::thread::spawn(move || {
        for waker in rx {
            waker.wake();
        }
    });

    // Warm-up: queue, channel and stack caches reach their steady sizes.
    park_and_be_woken(&rt, &tx, 2_000);
    let parks_before = rt.stats().async_parks;
    let before = LIVE.load(Ordering::Relaxed);
    park_and_be_woken(&rt, &tx, WAKES);
    let grown = LIVE.load(Ordering::Relaxed) - before;

    let parks = rt.stats().async_parks - parks_before;
    assert_eq!(parks, WAKES as u64, "every poll parked its strand");
    assert!(
        grown < 64 * 1024,
        "{WAKES} cross-thread wakes left {grown} more live heap bytes behind"
    );

    drop(tx);
    waker_thread.join().unwrap();
}
