//! Work-stealing deque micro-latency: the §II-A/§II-D comparison surface.
//!
//! `push+pop` measures the owner's uncontended hot path (what every spawn
//! pays); `push+steal` measures the thief path; `ping` measures the
//! one-element owner/thief arbitration.

use criterion::{criterion_group, criterion_main, Criterion};
use nowa_deque::{Cl, DequeAlgo, Steal, StealerOps, The, WorkerOps};
use std::hint::black_box;

fn bench_owner_ops<A: DequeAlgo>(c: &mut Criterion) {
    let (worker, _stealer) = A::create::<usize>(1024);
    c.bench_function(&format!("deque/{}/push_pop", A::NAME), |b| {
        b.iter(|| {
            worker.push(black_box(7)).unwrap();
            black_box(worker.pop())
        })
    });
}

fn bench_steal_ops<A: DequeAlgo>(c: &mut Criterion) {
    let (worker, stealer) = A::create::<usize>(1024);
    c.bench_function(&format!("deque/{}/push_steal", A::NAME), |b| {
        b.iter(|| {
            if worker.push(black_box(7)).is_err() {
                // The ABP deque's non-ring indices run off the buffer when
                // only steals free space (§II-D); the owner's pop-on-empty
                // triggers its reset mitigation.
                let _ = worker.pop();
                worker.push(black_box(7)).unwrap();
            }
            match stealer.steal() {
                Steal::Success(v) => black_box(v),
                _ => 0,
            }
        })
    });
}

fn bench_batch<A: DequeAlgo>(c: &mut Criterion) {
    let (worker, stealer) = A::create::<usize>(256);
    c.bench_function(&format!("deque/{}/batch64_mixed", A::NAME), |b| {
        b.iter(|| {
            for i in 0..64 {
                worker.push(i).unwrap();
            }
            for _ in 0..32 {
                black_box(worker.pop());
            }
            for _ in 0..32 {
                black_box(stealer.steal().success());
            }
        })
    });
}

fn benches(c: &mut Criterion) {
    bench_owner_ops::<Cl>(c);
    bench_owner_ops::<The>(c);
    bench_steal_ops::<Cl>(c);
    bench_steal_ops::<The>(c);
    bench_batch::<Cl>(c);
    bench_batch::<The>(c);
}

criterion_group! {
    name = deque_ops;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_millis(600)).warm_up_time(std::time::Duration::from_millis(200));
    targets = benches
}
criterion_main!(deque_ops);
