//! The layer probes: each times calls into one layer's public functions
//! from outside. They do not depend on the workload, so every traced run
//! repeats the same procedure and the numbers are comparable across runs.
//!
//! A cost per operation is the median over [`BATCHES`] batches; the
//! quartiles over those batches are the probe's own noise.

use std::ffi::c_void;
use std::future::Future;
use std::num::NonZeroU64;
use std::pin::{pin, Pin};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use nowa_context::{
    capture_and_run_on, resume, switch, MadvisePolicy, RawContext, Stack, StackPool,
    WorkerStackCache,
};
use nowa_deque::{ClDeque, SplitConfig, SplitDeque, Steal, StealerOps, TheDeque, WorkerOps};
use nowa_runtime::{api, task, time, Config, Flavor, Region, Runtime};
use nowa_sim::{bench_dags, simulate, SimBench, SimConfig, SimFlavor};
use nowa_trace::{Event, EventKind, EventRing, Hist64};

use crate::report::MetricSet;
use crate::serve;
use crate::stats::{self, Summary};
use crate::sys;

const BATCHES: usize = 7;
const STACK_BYTES: usize = 1 << 20;

/// Nanoseconds per iteration of a body that loops `iters` times itself
/// (inside a runtime task, say), over [`BATCHES`] batches.
fn per_iter_ns(iters: u64, mut batch: impl FnMut(u64)) -> Summary {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            batch(iters);
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::summarize(&batches).expect("BATCHES > 0")
}

/// Nanoseconds per call of `op`.
fn per_call_ns(iters: u64, mut op: impl FnMut()) -> Summary {
    per_iter_ns(iters, |n| {
        for _ in 0..n {
            op();
        }
    })
}

fn scaled(s: Summary, factor: f64) -> Summary {
    Summary {
        n: s.n,
        median: s.median * factor,
        q1: s.q1 * factor,
        q3: s.q3 * factor,
    }
}

fn runtime(config: Config) -> Runtime {
    Runtime::new(config).expect("runtime start-up")
}

// ---- nowa-context -----------------------------------------------------------

// SAFETY (contract): `arg` points at the `RawContext` the caller captured.
unsafe extern "C" fn bounce_back(arg: *mut c_void) -> ! {
    // SAFETY: per the contract, `arg` is the live captured context, resumed
    // exactly once, here.
    unsafe { resume(*(arg as *mut RawContext), core::ptr::null_mut()) }
}

struct PingPong {
    main: RawContext,
    coro: RawContext,
}

// SAFETY (contract): `arg` points at a `PingPong` that outlives the stack.
unsafe extern "C" fn pong(arg: *mut c_void) -> ! {
    let st = arg as *mut PingPong;
    loop {
        // SAFETY: `main` was captured by whoever resumed us and is parked
        // in its own `switch`/`capture_and_run_on`; each context is resumed
        // once per capture.
        unsafe { switch(&raw mut (*st).coro, (*st).main, core::ptr::null_mut()) };
    }
}

fn context(out: &mut MetricSet) {
    let stack = Stack::try_map(64 * 1024).expect("probe stack");
    let mut ctx = RawContext::null();
    out.put(
        "context.capture_resume_ns",
        per_call_ns(200_000, || {
            // SAFETY: a mapped stack nobody else uses; `bounce_back`
            // resumes `ctx` exactly once before this call returns.
            unsafe {
                capture_and_run_on(
                    &mut ctx,
                    stack.top(),
                    bounce_back,
                    &raw mut ctx as *mut c_void,
                )
            };
        }),
    );

    let mut st = PingPong {
        main: RawContext::null(),
        coro: RawContext::null(),
    };
    let st_ptr = &raw mut st;
    // SAFETY: enters `pong` on the fresh stack; it switches straight back,
    // leaving `coro` captured.
    unsafe {
        capture_and_run_on(
            &raw mut (*st_ptr).main,
            stack.top(),
            pong,
            st_ptr as *mut c_void,
        )
    };
    let round_trip = per_call_ns(200_000, || {
        // SAFETY: `coro` is parked in its `switch`; it switches back to the
        // `main` saved here. The coroutine is left parked at the end and
        // owns nothing, so dropping its stack is fine.
        unsafe {
            switch(
                &raw mut (*st_ptr).main,
                (*st_ptr).coro,
                core::ptr::null_mut(),
            )
        };
    });
    out.put("context.switch_ns", scaled(round_trip, 0.5));
}

fn stacks(out: &mut MetricSet) {
    let pool = StackPool::new(STACK_BYTES, MadvisePolicy::Keep, 1);
    pool.prefill(2).expect("prefill");
    out.put(
        "stack.pool_getput_ns",
        per_call_ns(200_000, || pool.put(pool.get())),
    );
    let mut cache = WorkerStackCache::new(pool.clone(), 8);
    let warm = cache.get();
    cache.put(warm);
    out.put(
        "stack.cache_getput_ns",
        per_call_ns(1_000_000, || {
            let s = cache.get();
            cache.put(std::hint::black_box(s));
        }),
    );
    out.put(
        "stack.map_unmap_us",
        scaled(
            per_call_ns(2_000, || drop(Stack::try_map(STACK_BYTES).expect("map"))),
            1e-3,
        ),
    );

    // Release of a touched stack: dirty 16 pages below the top, then time
    // only the `madvise(MADV_FREE)` that gives them back.
    let stack = Stack::try_map(STACK_BYTES).expect("map");
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut spent = Duration::ZERO;
            for _ in 0..300 {
                for page in 1..=16 {
                    // SAFETY: inside the usable area of the owned mapping.
                    unsafe { (stack.top() as *mut u8).sub(page * 4096).write_volatile(1) };
                }
                let t0 = Instant::now();
                stack.release_below(stack.top(), MadvisePolicy::Free);
                spent += t0.elapsed();
            }
            spent.as_nanos() as f64 / 300.0 / 1e3
        })
        .collect();
    out.put_samples("stack.madvise_release_us", &batches);
}

// ---- nowa-deque -------------------------------------------------------------

fn push_pop(worker: &impl WorkerOps<usize>) -> Summary {
    per_call_ns(2_000_000, || {
        let _ = worker.push(std::hint::black_box(7));
        std::hint::black_box(worker.pop());
    })
}

/// A thief thread calls `steal()` flat out against an owner thread that
/// keeps pushing (two pushes, one pop): nanoseconds per attempt and the
/// share of attempts that took an item.
fn steal_contest(
    worker: impl WorkerOps<usize> + Send,
    stealer: impl StealerOps<usize>,
) -> (f64, f64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let stop = &stop;
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if worker.push(1).is_err() || worker.push(2).is_err() {
                    while worker.len() > 64 {
                        worker.pop();
                    }
                }
                worker.pop();
            }
        });
        let (mut attempts, mut taken) = (0u64, 0u64);
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(60) {
            for _ in 0..256 {
                attempts += 1;
                taken += u64::from(matches!(stealer.steal(), Steal::Success(_)));
            }
        }
        let ns = t0.elapsed().as_nanos() as f64 / attempts as f64;
        stop.store(true, Ordering::Relaxed);
        (ns, taken as f64 / attempts as f64)
    })
}

/// The owner pushes one item — its push time — then goes quiet; a spinning
/// thief reports how long after the push its `steal()` got it (cap 1 ms,
/// after which the owner takes the item back).
fn publish_lag_us() -> Summary {
    const CAP: Duration = Duration::from_millis(1);
    let (cl_w, cl_s) = ClDeque::<NonZeroU64>::new(1024);
    let (worker, stealer) = SplitDeque::wrap(cl_w, cl_s, SplitConfig::default(), 1024);
    let epoch = Instant::now();
    let stop = AtomicBool::new(false);
    let stolen = AtomicU64::new(0);
    let lags = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                if let Steal::Success(pushed_at) = stealer.steal() {
                    let lag = epoch.elapsed().as_nanos() as u64 - pushed_at.get();
                    lags.lock()
                        .expect("no panics hold it")
                        .push(lag as f64 / 1e3);
                    stolen.fetch_add(1, Ordering::Release);
                }
            }
        });
        for i in 1..=1_500u64 {
            // Quiet long enough for the thief to find the deque empty again.
            let quiet = Instant::now();
            while quiet.elapsed() < Duration::from_micros(20) {
                std::hint::spin_loop();
            }
            let now = NonZeroU64::new(epoch.elapsed().as_nanos() as u64 | 1).expect("odd");
            let _ = worker.push(now);
            let pushed = Instant::now();
            while stolen.load(Ordering::Acquire) < i && pushed.elapsed() < CAP {
                std::hint::spin_loop();
            }
            if stolen.load(Ordering::Acquire) < i {
                // Never published: take it back (or lose the race to a late
                // steal, which then records its own lag).
                if worker.pop().is_some() {
                    lags.lock()
                        .expect("no panics hold it")
                        .push(CAP.as_nanos() as f64 / 1e3);
                    stolen.fetch_add(1, Ordering::Release);
                } else {
                    while stolen.load(Ordering::Acquire) < i {
                        std::hint::spin_loop();
                    }
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    let lags = lags.into_inner().expect("no panics hold it");
    stats::summarize(&lags).expect("1500 samples")
}

fn deques(out: &mut MetricSet) {
    let cap = 8192;
    let split = |cap| {
        let (w, s) = ClDeque::<usize>::new(cap);
        SplitDeque::wrap(w, s, SplitConfig::default(), cap)
    };
    out.put(
        "deque.cl_pushpop_ns",
        push_pop(&ClDeque::<usize>::new(cap).0),
    );
    out.put(
        "deque.the_pushpop_ns",
        push_pop(&TheDeque::<usize>::new(cap).0),
    );
    out.put("deque.split_pushpop_ns", push_pop(&split(cap).0));

    let (w, s) = ClDeque::<usize>::new(cap);
    let (ns, ratio) = steal_contest(w, s);
    out.put_value("deque.cl_steal_ns", ns);
    out.put_value("deque.cl_steal_success_ratio", ratio);
    let (w, s) = TheDeque::<usize>::new(cap);
    out.put_value("deque.the_steal_ns", steal_contest(w, s).0);
    let (w, s) = split(cap);
    let (ns, ratio) = steal_contest(w, s);
    out.put_value("deque.split_steal_ns", ns);
    out.put_value("deque.split_steal_success_ratio", ratio);
    out.put("deque.split_publish_lag_us", publish_lag_us());
}

// ---- nowa-runtime: spawn path, flavors, cancellation ---------------------------

/// One spawn, one owner pop, one trivially satisfied sync per iteration.
fn join_loop(iters: u64) -> u64 {
    let mut acc = 0;
    for _ in 0..iters {
        let (a, b) = api::join2(|| 1u64, || 0u64);
        acc += a + b;
    }
    acc
}

fn join2_ns(rt: &Runtime) -> Summary {
    rt.run(|| join_loop(10_000)); // warm the stack cache
    per_iter_ns(300_000, |n| assert_eq!(rt.run(|| join_loop(n)), n))
}

fn spawn_path(out: &mut MetricSet) -> Summary {
    let rt = runtime(Config::with_workers(1));
    let plain = join2_ns(&rt);
    out.put("spawn.join2_ns", plain);
    out.put(
        "spawn.for_each_item_ns",
        per_iter_ns(300_000, |n| {
            rt.run(|| {
                api::for_each(0..n, &|i| {
                    std::hint::black_box(i);
                })
            })
        }),
    );
    out.put(
        "cancel.checkpoint_ns",
        per_iter_ns(2_000_000, |n| {
            rt.run(|| {
                let region = Region::cancellable();
                for _ in 0..n {
                    std::hint::black_box(&region).checkpoint();
                }
            })
        }),
    );
    out.put(
        "cancel.region_ns",
        per_iter_ns(300_000, |n| {
            rt.run(|| {
                for _ in 0..n {
                    drop(std::hint::black_box(Region::cancellable()));
                }
            })
        }),
    );
    let scoped = per_iter_ns(300_000, |n| {
        rt.run(|| {
            let _scope = Region::cancellable();
            assert_eq!(join_loop(n), n);
        })
    });
    out.put_value("cancel.join2_delta_ns", scoped.median - plain.median);
    drop(rt);

    // The same loop with every other worker hunting for work.
    let contended = runtime(Config::with_workers(sys::nproc()));
    out.put("spawn.join2_contended_ns", join2_ns(&contended));
    drop(contended);

    for (name, config) in [
        ("the", Config::with_workers(1).flavor(Flavor::NOWA_THE)),
        ("fibril", Config::with_workers(1).flavor(Flavor::FIBRIL)),
        (
            "nosplit",
            Config::with_workers(1).split(SplitConfig::disabled()),
        ),
    ] {
        out.put(
            &format!("flavor.{name}_join2_ns"),
            join2_ns(&runtime(config)),
        );
    }
    plain
}

// ---- nowa-runtime: idle engine, injector, start-up ----------------------------

fn idle_and_injector(out: &mut MetricSet) {
    let p = sys::nproc();
    let rt = runtime(Config::with_workers(p));
    rt.run(|| ());

    // Hot: back-to-back root submissions never let the pool park.
    out.put("injector.run_rtt_ns", per_call_ns(3_000, || rt.run(|| ())));

    // Cold: after 3 ms of nothing the workers are parked; the round trip
    // is dominated by the wake.
    let mut rtts: Vec<u64> = (0..1_050)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(3));
            let t0 = Instant::now();
            rt.run(|| ());
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    rtts.sort_unstable();
    for (q, name) in [
        (0.5, "idle.wake_rtt_p50_us"),
        (0.99, "idle.wake_rtt_p99_us"),
    ] {
        let ns = stats::percentile(&rtts, q).expect("1050 samples support p99");
        out.put_value(name, ns as f64 / 1e3);
    }

    // What an idle pool costs: CPU seconds per wall second.
    let (t0, cpu0) = (Instant::now(), sys::process_cpu());
    std::thread::sleep(Duration::from_secs(1));
    let cpu = (sys::process_cpu() - cpu0).as_secs_f64();
    out.put_value("idle.cpu_ratio", cpu / t0.elapsed().as_secs_f64());
    drop(rt);

    let (mut new_ms, mut shutdown_ms) = (Vec::new(), Vec::new());
    for _ in 0..15 {
        let t0 = Instant::now();
        let rt = runtime(Config::with_workers(p));
        new_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        rt.run(|| ());
        let t0 = Instant::now();
        rt.shutdown(Duration::from_secs(5)).expect("clean shutdown");
        shutdown_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    out.put_samples("runtime.new_ms", &new_ms);
    out.put_samples("runtime.shutdown_ms", &shutdown_ms);
}

// ---- nowa-runtime: tasks, reactor, timers ------------------------------------

/// A future the benchmark itself completes from another thread.
#[derive(Default)]
struct Signal {
    ready: AtomicBool,
    waker: Mutex<Option<Waker>>,
}

struct Wait<'a>(&'a Signal);

impl Future for Wait<'_> {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.0.ready.swap(false, Ordering::Acquire) {
            return Poll::Ready(());
        }
        *self.0.waker.lock().expect("no panics hold it") = Some(cx.waker().clone());
        // The signal may have been raised between the check and the store.
        if self.0.ready.swap(false, Ordering::Acquire) {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

/// An outside thread's `wake()` → the parked strand running again.
fn wake_resume_us(rt: &Runtime) -> Summary {
    const ROUNDS: usize = 400;
    let signal = Signal::default();
    let epoch = Instant::now();
    let woke_at_ns = AtomicU64::new(0);
    let lags = std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..ROUNDS {
                // Wait for the strand to park, and then some: the worker
                // should be idle, as it is when a real event arrives.
                let waker = loop {
                    if let Some(w) = signal.waker.lock().expect("no panics hold it").take() {
                        break w;
                    }
                    std::thread::yield_now();
                };
                std::thread::sleep(Duration::from_micros(300));
                woke_at_ns.store(epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
                signal.ready.store(true, Ordering::Release);
                waker.wake();
            }
        });
        rt.run(|| {
            (0..ROUNDS)
                .map(|_| {
                    task::block_on(Wait(&signal));
                    let now = epoch.elapsed().as_nanos() as u64;
                    (now - woke_at_ns.load(Ordering::Relaxed)) as f64 / 1e3
                })
                .collect::<Vec<f64>>()
        })
    });
    stats::summarize(&lags).expect("ROUNDS > 0")
}

fn tasks_reactor_timers(out: &mut MetricSet) {
    let rt = runtime(Config::with_workers(serve::workers()));
    out.put(
        "task.block_on_ready_ns",
        per_iter_ns(300_000, |n| {
            rt.run(|| {
                for i in 0..n {
                    std::hint::black_box(task::block_on(async move { i }));
                }
            })
        }),
    );
    out.put(
        "task.spawn_async_join_ns",
        per_iter_ns(100_000, |n| {
            rt.run(|| {
                let region = pin!(Region::cancellable());
                let region = region.as_ref();
                for i in 0..n {
                    let handle = region.spawn_async(async move { i });
                    std::hint::black_box(region.block_on(handle));
                }
            })
        }),
    );
    out.put("task.wake_resume_us", wake_resume_us(&rt));
    out.put(
        "timer.timeout_ready_ns",
        per_iter_ns(300_000, |n| {
            rt.run(|| {
                for i in 0..n {
                    let done =
                        task::block_on(time::timeout(Duration::from_secs(1), async move { i }));
                    std::hint::black_box(done.expect("ready future cannot time out"));
                }
            })
        }),
    );
    out.put(
        "serve.handler_dag_us",
        scaled(
            per_iter_ns(20_000, |n| {
                rt.run(|| {
                    for _ in 0..n {
                        std::hint::black_box(serve::fib_dag(std::hint::black_box(
                            serve::REQUEST_WORK,
                        )));
                    }
                })
            }),
            1e-3,
        ),
    );

    // How long after its deadline a sleeper runs again.
    let overshoot_ns = |sleep: Duration, rounds: usize| {
        let mut over: Vec<u64> = rt.run(|| {
            task::block_on(async {
                let mut over = Vec::with_capacity(rounds);
                for _ in 0..rounds {
                    let deadline = Instant::now() + sleep;
                    time::sleep(sleep).await;
                    over.push(
                        Instant::now()
                            .saturating_duration_since(deadline)
                            .as_nanos() as u64,
                    );
                }
                over
            })
        });
        over.sort_unstable();
        over
    };
    let one = overshoot_ns(Duration::from_millis(1), 1_050);
    for (q, name) in [
        (0.5, "timer.sleep_1ms_overshoot_p50_us"),
        (0.99, "timer.sleep_1ms_overshoot_p99_us"),
    ] {
        let ns = stats::percentile(&one, q).expect("1050 samples support p99");
        out.put_value(name, ns as f64 / 1e3);
    }
    let ten = overshoot_ns(Duration::from_millis(10), 30);
    out.put_value(
        "timer.sleep_10ms_overshoot_p50_us",
        stats::percentile(&ten, 0.5).expect("30 samples support p50") as f64 / 1e3,
    );
    drop(rt);

    // One connection, closed loop, no handler work: the transport alone.
    let echo = serve::with_server(serve::workers(), 1, |g, _, _| g.closed_loop(1, 12_000, 0));
    assert_eq!(echo.failed, 0, "echo probe lost replies");
    let rtts = echo.latencies_ns();
    for (q, name) in [
        (0.5, "reactor.echo_rtt_p50_us"),
        (0.99, "reactor.echo_rtt_p99_us"),
    ] {
        let ns = stats::percentile(&rtts, q).expect("12000 samples support p99");
        out.put_value(name, ns as f64 / 1e3);
    }
}

// ---- nowa-sim, nowa-trace ------------------------------------------------------

fn sim_and_trace(out: &mut MetricSet) {
    let dag = bench_dags::generate(SimBench::Fib, SimBench::Fib.quick_scale() + 3);
    let mut rates = Vec::new();
    for (flavor, name) in [
        (SimFlavor::NowaCl, "sim.fib_speedup_64_nowa"),
        (SimFlavor::FibrilLock, "sim.fib_speedup_64_fibril"),
    ] {
        let t0 = Instant::now();
        let result = simulate(&dag, SimConfig::new(flavor, 64));
        rates.push(result.events as f64 / t0.elapsed().as_secs_f64());
        out.put_value(name, result.speedup());
    }
    out.put_samples("sim.events_per_s", &rates);

    let ring = EventRing::new(1 << 14);
    let mut drained = Vec::with_capacity(ring.capacity());
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut spent = Duration::ZERO;
            for _ in 0..16 {
                let t0 = Instant::now();
                for i in 0..ring.capacity() as u64 {
                    ring.push(Event::new(i, EventKind::Spawn, i));
                }
                spent += t0.elapsed();
                drained.clear();
                ring.drain_into(&mut drained); // untimed: make room again
            }
            spent.as_nanos() as f64 / (16 * ring.capacity()) as f64
        })
        .collect();
    out.put_samples("trace.ring_push_ns", &batches);
    let hist = Hist64::default();
    let mut v = 1u64;
    out.put(
        "trace.hist_record_ns",
        per_call_ns(2_000_000, || {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            hist.record(v >> 40);
        }),
    );
}

/// Runs every probe and reports the probe metrics.
pub fn run_all(out: &mut MetricSet) {
    context(out);
    stacks(out);
    deques(out);
    spawn_path(out);
    idle_and_injector(out);
    tasks_reactor_timers(out);
    sim_and_trace(out);
}
