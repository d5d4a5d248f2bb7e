//! Join-coordination mechanisms under contention: Nowa's flat wait-free
//! counter (one `fetch_sub` per join, §IV-B) against a mutex-guarded count
//! (Fibril, Listing 2).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Barrier};

const OPS: usize = 20_000;
const THREADS: usize = 4;

fn contend<F: Fn() + Sync + Send + 'static>(f: Arc<F>) {
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let f = f.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..OPS / THREADS {
                    f();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

fn benches(c: &mut Criterion) {
    c.bench_function("join_mech/flat_counter/uncontended", |b| {
        let counter = AtomicI64::new(i64::MAX);
        b.iter(|| black_box(counter.fetch_sub(1, Ordering::AcqRel)))
    });

    c.bench_function("join_mech/flat_counter/contended", |b| {
        b.iter(|| {
            let counter = Arc::new(AtomicI64::new(i64::MAX));
            let c2 = counter.clone();
            contend(Arc::new(move || {
                black_box(c2.fetch_sub(1, Ordering::AcqRel));
            }));
        })
    });

    c.bench_function("join_mech/mutex_count/contended", |b| {
        b.iter(|| {
            let counter = Arc::new(std::sync::Mutex::new(0i64));
            let c2 = counter.clone();
            contend(Arc::new(move || {
                *c2.lock().unwrap() -= 1;
            }));
        })
    });
}

criterion_group! {
    name = join_mechanisms;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(900)).warm_up_time(std::time::Duration::from_millis(200));
    targets = benches
}
criterion_main!(join_mechanisms);
