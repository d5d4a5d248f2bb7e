//! Concurrent stress tests shared by all four deque algorithms.
//!
//! The invariant checked everywhere: every pushed token is received by
//! exactly one consumer (owner pop or some thief), i.e. the multiset of
//! outputs equals the multiset of inputs — no loss, no duplication.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use nowa_deque::{Cl, DequeAlgo, Steal, StealerOps, The, WorkerOps};

/// Runs `pushes` tokens through a deque with `thieves` concurrent stealers
/// while the owner interleaves pushes and pops, then checks conservation.
fn conservation<A: DequeAlgo>(pushes: usize, thieves: usize, capacity: usize) {
    let (worker, stealer) = A::create::<usize>(capacity);
    let done = Arc::new(AtomicBool::new(false));
    let stolen_sum = Arc::new(AtomicUsize::new(0));
    let stolen_count = Arc::new(AtomicUsize::new(0));

    let handles: Vec<_> = (0..thieves)
        .map(|_| {
            let stealer = stealer.clone();
            let done = done.clone();
            let stolen_sum = stolen_sum.clone();
            let stolen_count = stolen_count.clone();
            thread::spawn(move || loop {
                match stealer.steal() {
                    Steal::Success(v) => {
                        stolen_sum.fetch_add(v, Ordering::Relaxed);
                        stolen_count.fetch_add(1, Ordering::Relaxed);
                    }
                    Steal::Retry => std::hint::spin_loop(),
                    Steal::Empty => {
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();

    let mut popped_sum = 0usize;
    let mut popped_count = 0usize;
    let mut next = 0usize;
    while next < pushes {
        // Push a small burst (bounded algorithms may refuse; drain and retry).
        for _ in 0..7 {
            if next >= pushes {
                break;
            }
            match worker.push(next) {
                Ok(()) => next += 1,
                Err(_) => break,
            }
        }
        // Pop a couple back.
        for _ in 0..3 {
            if let Some(v) = worker.pop() {
                popped_sum += v;
                popped_count += 1;
            }
        }
    }
    // Drain whatever the thieves left behind.
    while let Some(v) = worker.pop() {
        popped_sum += v;
        popped_count += 1;
    }
    done.store(true, Ordering::Release);
    for h in handles {
        h.join().unwrap();
    }
    // Late steals after our final pop cannot exist: pop returned None and
    // thieves only observed Empty afterwards. Check conservation.
    let total_count = popped_count + stolen_count.load(Ordering::Relaxed);
    let total_sum = popped_sum + stolen_sum.load(Ordering::Relaxed);
    assert_eq!(total_count, pushes, "token count conserved");
    assert_eq!(total_sum, pushes * (pushes - 1) / 2, "token sum conserved");
}

#[test]
fn cl_conservation_two_thieves() {
    conservation::<Cl>(100_000, 2, 8);
}

#[test]
fn cl_conservation_four_thieves_tiny_buffer() {
    conservation::<Cl>(50_000, 4, 2);
}

#[test]
fn the_conservation_two_thieves() {
    conservation::<The>(100_000, 2, 1024);
}

#[test]
fn the_conservation_four_thieves() {
    conservation::<The>(50_000, 4, 1024);
}

/// The owner's pop and a single thief race for the final element; exactly
/// one of them must receive it, every time.
fn last_element_race<A: DequeAlgo>(rounds: usize) {
    for _ in 0..rounds {
        let (worker, stealer) = A::create::<usize>(8);
        worker.push(42).unwrap();
        let thief = thread::spawn(move || stealer.steal_retrying());
        let popped = worker.pop();
        let stolen = thief.join().unwrap();
        match (popped, stolen) {
            (Some(42), None) | (None, Some(42)) => {}
            other => panic!("last element lost or duplicated: {other:?}"),
        }
    }
}

#[test]
fn cl_last_element_race() {
    last_element_race::<Cl>(2_000);
}

#[test]
fn the_last_element_race() {
    last_element_race::<The>(2_000);
}

/// Thieves racing each other must never duplicate an element.
fn thief_vs_thief<A: DequeAlgo>() {
    let (worker, stealer) = A::create::<usize>(4096);
    let n = 4096;
    for i in 0..n {
        worker.push(i).unwrap();
    }
    let barrier = Arc::new(std::sync::Barrier::new(4));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let stealer = stealer.clone();
            let barrier = barrier.clone();
            thread::spawn(move || {
                barrier.wait();
                let mut got = Vec::new();
                loop {
                    match stealer.steal() {
                        Steal::Success(v) => got.push(v),
                        Steal::Retry => continue,
                        Steal::Empty => break,
                    }
                }
                got
            })
        })
        .collect();
    let mut all: Vec<usize> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n, "no element lost or duplicated");
}

#[test]
fn cl_thief_vs_thief() {
    thief_vs_thief::<Cl>();
}

#[test]
fn the_thief_vs_thief() {
    thief_vs_thief::<The>();
}
