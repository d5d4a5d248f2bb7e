//! Spawn/sync fast-path overhead per runtime flavor: the price of one
//! `join2` whose continuation is *not* stolen (the common case §II-B
//! optimises for), and the serial-elision baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use nowa_runtime::{join2, Config, Flavor, Runtime};
use std::hint::black_box;

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = join2(|| fib(n - 1), || fib(n - 2));
    a + b
}

fn fib_serial(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib_serial(n - 1) + fib_serial(n - 2)
    }
}

fn benches(c: &mut Criterion) {
    c.bench_function("spawn/serial_elision_fib16", |b| {
        b.iter(|| black_box(fib_serial(black_box(16))))
    });

    for flavor in Flavor::ALL {
        // One worker: every continuation is popped back — pure fast path.
        let rt = Runtime::new(Config::with_workers(1).flavor(flavor)).unwrap();
        c.bench_function(&format!("spawn/{}/fib16_1worker", flavor.name()), |b| {
            b.iter(|| rt.run(|| black_box(fib(black_box(16)))))
        });
    }

    // Per-join2 cost in isolation (two trivial closures).
    let rt = Runtime::new(Config::with_workers(1)).unwrap();
    c.bench_function("spawn/nowa-cl/single_join2", |b| {
        b.iter(|| {
            rt.run(|| {
                let (x, y) = join2(|| black_box(1u64), || black_box(2u64));
                x + y
            })
        })
    });
}

criterion_group! {
    name = spawn_overhead;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_millis(800)).warm_up_time(std::time::Duration::from_millis(200));
    targets = benches
}
criterion_main!(spawn_overhead);
