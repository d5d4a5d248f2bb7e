//! Async surface integration tests: the §6h reactor/timer/waker bridge
//! under its edge cases.
//!
//! The hazardous configurations: a waker firing from outside the runtime
//! while *every* worker is parked (the only sleeper may be the claimed
//! epoll poller, which the idle engine cannot see — the eventfd kick is
//! the only signal that reaches it); a timer due while the runtime's
//! workers are tied up in a suspended sync; a cancellation that must
//! unwind a strand parked on I/O that will never arrive; and the chaos
//! reactor sites (spurious wakes, injected `EINTR`) armed over a real
//! serving workload.

use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, Once};
use std::task::{Poll, Waker};
use std::time::{Duration, Instant};

use nowa_runtime::{
    api, time, AsyncFd, CancelReason, Cancelled, Config, IdleConfig, Region, Runtime,
};

fn quiet_expected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<Cancelled>().is_none() {
                default(info);
            }
        }));
    });
}

/// Park eagerly with a `max_park` so long that any lost wake (futex *or*
/// eventfd kick) blows the wall-clock bounds below deterministically.
fn eager_park() -> IdleConfig {
    IdleConfig {
        spin_sweeps: 0,
        yield_sweeps: 0,
        steal_retries: 2,
        max_park: Duration::from_secs(5),
    }
}

/// Once every strand of a run has completed, each park has had its resume
/// (and the run did park: the tests that call this wait on something).
fn assert_every_park_resumed(rt: &Runtime) {
    let stats = rt.stats();
    assert!(
        stats.async_parks > 0 && stats.async_parks == stats.async_resumes,
        "{} strand parks but {} resumes after the run completed",
        stats.async_parks,
        stats.async_resumes
    );
}

/// A future completed by an external thread through its stored waker.
#[derive(Default)]
struct Gate {
    fired: AtomicBool,
    waker: Mutex<Option<Waker>>,
}

impl Gate {
    fn open(&self) {
        self.fired.store(true, Ordering::Release);
        if let Some(w) = self.waker.lock().unwrap().take() {
            w.wake();
        }
    }

    async fn wait(self: Arc<Self>) {
        std::future::poll_fn(|cx| {
            if self.fired.load(Ordering::Acquire) {
                return Poll::Ready(());
            }
            *self.waker.lock().unwrap() = Some(cx.waker().clone());
            // Re-check after publishing the waker: an `open` racing the
            // store above may have missed it.
            if self.fired.load(Ordering::Acquire) {
                return Poll::Ready(());
            }
            Poll::Pending
        })
        .await
    }
}

/// An external waker must reach a fully-parked runtime. With one worker
/// the parked worker *is* the claimed epoll poller — no futex sleeper
/// exists, so only the eventfd self-wake path can deliver the wake. With
/// more workers the same wake races the poller claim from either side.
/// `max_park` is 5 s; finishing in a fraction of that proves the kick
/// (not the timeout backstop) delivered it.
#[test]
fn external_waker_reaches_fully_parked_runtime() {
    for workers in [1usize, 4] {
        let rt = Runtime::new(Config::with_workers(workers).idle(eager_park())).unwrap();
        let gate = Arc::new(Gate::default());
        let opener = {
            let gate = gate.clone();
            std::thread::spawn(move || {
                // Give every worker time to descend into its park (the
                // poller claim happens on the way down).
                std::thread::sleep(Duration::from_millis(60));
                gate.open();
            })
        };
        let t0 = Instant::now();
        rt.run({
            let gate = gate.clone();
            move || nowa_runtime::block_on(gate.wait())
        });
        assert!(
            t0.elapsed() < Duration::from_secs(3),
            "{workers} workers: the external wake missed the parked poller \
             and only the max_park timeout recovered it ({:?})",
            t0.elapsed()
        );
        opener.join().unwrap();
        assert_every_park_resumed(&rt);
    }
}

/// A timer must fire while a sync is suspended: one worker is pinned in a
/// blocking child, the other suspends the stolen continuation at the sync
/// and descends idle — it must claim the reactor and serve the due timer
/// instead of napping through it.
#[test]
fn timer_fires_during_suspended_sync() {
    let rt = Runtime::new(Config::with_workers(2).idle(eager_park())).unwrap();
    let woke_after = rt.run(|| {
        let region = pin!(Region::cancellable());
        let region = region.as_ref();
        let t0 = Instant::now();
        let timer = region.spawn_async(async move {
            time::sleep(Duration::from_millis(20)).await;
            t0.elapsed()
        });
        // Pin the owner in uncancellable blocking code long past the
        // timer's deadline; the thief runs the trivial leg and suspends
        // at the sync with the child outstanding.
        api::join2(|| std::thread::sleep(Duration::from_millis(150)), || ());
        region.block_on(timer)
    });
    assert!(
        woke_after >= Duration::from_millis(20),
        "timer fired early: {woke_after:?}"
    );
    assert!(
        woke_after < Duration::from_millis(120),
        "timer was only served after the blocking child released its \
         worker — the idle worker napped through the due wheel slot \
         ({woke_after:?})"
    );
    assert_every_park_resumed(&rt);
}

/// `timeout` must bound a future that never resolves, and must not clip
/// one that does.
#[test]
fn timeout_bounds_forever_pending_io() {
    let rt = Runtime::new(Config::with_workers(2).idle(eager_park())).unwrap();
    rt.run(|| {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let fd = AsyncFd::new(a).unwrap();
        let out = nowa_runtime::block_on(time::timeout(Duration::from_millis(30), async {
            fd.readable().await.ok();
        }));
        assert!(out.is_err(), "nothing was ever written: must elapse");
        let quick = nowa_runtime::block_on(time::timeout(Duration::from_secs(5), async { 6 * 7 }));
        assert_eq!(quick, Ok(42), "a ready future must not be clipped");
        drop(b);
    });
}

/// A sleep past what `Instant` can represent never fires, and arming it
/// does not panic: the timeout around it elapses instead.
#[test]
fn sleep_past_instant_range_never_fires() {
    let rt = Runtime::new(Config::with_workers(2)).unwrap();
    let out = rt.run(|| {
        nowa_runtime::block_on(time::timeout(
            Duration::from_millis(20),
            time::sleep(Duration::MAX),
        ))
    });
    assert_eq!(out, Err(time::Elapsed));
    assert_eq!(rt.snapshot().timers_pending, 0, "both entries disarmed");
}

/// A `timeout` whose future won leaves a disarmed timer behind; the idle
/// runtime must go back to sleeping `max_park` at a time, not treat the
/// disarmed deadline as perpetually due. With the default 1 ms `max_park`
/// two idle workers poll a few hundred times in 300 ms; a poller spinning
/// in `epoll_wait(0)` polls over a million times.
#[test]
fn disarmed_timeout_does_not_spin_the_idle_poller() {
    let rt = Runtime::new(Config::with_workers(2)).unwrap();
    rt.run(|| {
        let out = nowa_runtime::block_on(time::timeout(Duration::from_millis(50), async {
            time::sleep(Duration::from_millis(5)).await
        }));
        assert_eq!(out, Ok(()), "the 5 ms sleep beats the 50 ms timeout");
    });
    // Let the disarmed 50 ms deadline pass, then watch an idle stretch.
    std::thread::sleep(Duration::from_millis(100));
    let before = rt.stats().reactor_polls;
    std::thread::sleep(Duration::from_millis(300));
    let polls = rt.stats().reactor_polls - before;
    assert!(
        polls < 1_000,
        "idle runtime polled the reactor {polls} times in 300 ms: the \
         wheel still reports the disarmed timer as due"
    );
}

/// A registered but quiet socket keeps idle workers busy-polling only on
/// the spin/yield rungs: once they reach the park rung the runtime polls
/// once per `max_park` again, exactly as with no source registered.
#[test]
fn quiet_registered_socket_does_not_spin_the_idle_poller() {
    let rt = Runtime::new(Config::with_workers(2)).unwrap();
    let (a, mut b) = UnixStream::pair().unwrap();
    a.set_nonblocking(true).unwrap();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            rt.run(move || {
                nowa_runtime::block_on(async move {
                    let fd = AsyncFd::new(a).unwrap();
                    fd.readable().await.unwrap();
                })
            })
        });
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(rt.snapshot().reactor_sources, 1, "the socket is registered");
        let before = rt.stats().reactor_polls;
        std::thread::sleep(Duration::from_millis(300));
        let polls = rt.stats().reactor_polls - before;
        b.write_all(&[1]).unwrap();
        server.join().unwrap();
        assert!(
            polls < 1_000,
            "idle runtime with one quiet source polled the reactor {polls} \
             times in 300 ms: busy polling did not stop at the park rung"
        );
    });
}

/// Edge-triggered readiness must not lose an edge that arrives while
/// nobody is parked: the reader consumes one edge, drains the socket, and
/// a second byte lands — and is dispatched — before it awaits again. That
/// edge is latched, so the next `readable()` resolves with no further
/// write.
#[test]
fn an_edge_between_waits_is_latched_not_lost() {
    let rt = Runtime::new(Config::with_workers(2)).unwrap();
    let (a, mut b) = UnixStream::pair().unwrap();
    a.set_nonblocking(true).unwrap();
    let rt_ref = &rt;
    let got = rt.run(move || {
        nowa_runtime::block_on(async move {
            let fd = AsyncFd::new(a).unwrap();
            let mut buf = [0u8; 8];
            b.write_all(&[1]).unwrap();
            time::timeout(Duration::from_secs(2), fd.readable())
                .await
                .expect("the first edge resolves readable()")
                .unwrap();
            assert_eq!((&mut fd.get_ref()).read(&mut buf).unwrap(), 1);
            let drained = (&mut fd.get_ref()).read(&mut buf);
            assert_eq!(drained.unwrap_err().kind(), ErrorKind::WouldBlock);
            // The second byte, while this strand is running (not parked):
            // wait until some idle worker's poll has dispatched its edge.
            let events = rt_ref.stats().reactor_events;
            b.write_all(&[2]).unwrap();
            let t0 = Instant::now();
            while rt_ref.stats().reactor_events == events && t0.elapsed() < Duration::from_secs(2) {
                std::thread::yield_now();
            }
            time::timeout(Duration::from_secs(2), fd.readable())
                .await
                .expect("an edge dispatched while nobody was parked was lost")
                .unwrap();
            let n = (&mut fd.get_ref()).read(&mut buf).unwrap();
            buf[..n].to_vec()
        })
    });
    assert_eq!(got, [2]);
}

/// An fd that is already readable when it is registered reports that as
/// its first edge.
#[test]
fn data_pending_at_registration_is_reported() {
    let rt = Runtime::new(Config::with_workers(2).idle(eager_park())).unwrap();
    let (a, mut b) = UnixStream::pair().unwrap();
    a.set_nonblocking(true).unwrap();
    b.write_all(b"early").unwrap();
    let got = rt.run(move || {
        nowa_runtime::block_on(async move {
            let fd = AsyncFd::new(a).unwrap();
            time::timeout(Duration::from_secs(2), fd.readable())
                .await
                .expect("data pending at registration was never reported")
                .unwrap();
            let mut buf = [0u8; 8];
            let n = (&mut fd.get_ref()).read(&mut buf).unwrap();
            buf[..n].to_vec()
        })
    });
    assert_eq!(got, b"early");
}

/// A peer close wakes both directions: one strand parked on `readable()`
/// of an empty socket and one parked on `writable()` of a full one each
/// resume, and their syscalls report the close (the peer dies with our
/// bytes unread, so both see a reset or a broken pipe rather than a clean
/// end of stream). `max_park` is 5 s, so finishing well inside it proves
/// the hang-up edge woke them.
#[test]
fn peer_close_wakes_parked_reader_and_writer() {
    let rt = Runtime::new(Config::with_workers(2).idle(eager_park())).unwrap();
    let (a, b) = UnixStream::pair().unwrap();
    a.set_nonblocking(true).unwrap();
    let chunk = [0u8; 4096];
    while (&a).write(&chunk).is_ok() {}
    let closer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        drop(b);
    });
    let t0 = Instant::now();
    let reports_close = |r: std::io::Result<usize>| match r {
        Ok(n) => n == 0,
        Err(e) => matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe),
    };
    let (read_saw, write_saw) = rt.run(move || {
        let region = pin!(Region::cancellable());
        let region = region.as_ref();
        let fd = Arc::new(AsyncFd::new(a).unwrap());
        let reader = region.spawn_async({
            let fd = fd.clone();
            async move {
                let mut buf = [0u8; 8];
                loop {
                    match (&mut fd.get_ref()).read(&mut buf) {
                        Err(e) if e.kind() == ErrorKind::WouldBlock => fd.readable().await.unwrap(),
                        other => return reports_close(other),
                    }
                }
            }
        });
        let writer = region.spawn_async(async move {
            loop {
                match (&mut fd.get_ref()).write(&[1]) {
                    Ok(_) => {}
                    Err(e) if e.kind() == ErrorKind::WouldBlock => fd.writable().await.unwrap(),
                    other => return reports_close(other),
                }
            }
        });
        region.block_on(async { (reader.await, writer.await) })
    });
    closer.join().unwrap();
    assert!(read_saw, "the reader's syscall did not report the close");
    assert!(write_saw, "the writer's syscall did not report the close");
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "the hang-up edge did not wake both parked directions ({:?})",
        t0.elapsed()
    );
}

/// Cancelling a region whose strand is parked on I/O that never arrives:
/// the latch must broadcast through the async waiters, the parked
/// `block_on` must observe its scope chain and unwind with the typed
/// payload — not hang until the fd produces bytes (it never will). Two
/// latches: a token cancelled from another thread, and a region deadline,
/// which the reactor poll or the watchdog sweep fires.
#[test]
fn cancel_unwinds_parked_io_future() {
    quiet_expected_panics();
    for reason in [CancelReason::Token, CancelReason::Deadline] {
        let rt = Runtime::new(Config::with_workers(2).idle(eager_park())).unwrap();
        let (tx, rx) = mpsc::channel();
        let canceller = std::thread::spawn(move || {
            let token: Option<nowa_runtime::CancelToken> = rx.recv().unwrap();
            if let Some(token) = token {
                std::thread::sleep(Duration::from_millis(40));
                assert!(token.cancel(), "first cancel latches");
            }
        });
        let t0 = Instant::now();
        let out = rt.run(move || {
            catch_unwind(AssertUnwindSafe(|| {
                let region = match reason {
                    CancelReason::Deadline => Region::with_deadline(Duration::from_millis(40)),
                    _ => Region::cancellable(),
                };
                let token = (reason == CancelReason::Token).then(|| region.cancel_token());
                tx.send(token.flatten()).unwrap();
                let (a, _keep_alive) = UnixStream::pair().unwrap();
                a.set_nonblocking(true).unwrap();
                let fd = AsyncFd::new(a).unwrap();
                region.block_on(async {
                    fd.readable().await.ok();
                    unreachable!("nothing ever arrives on this socket");
                })
            }))
        });
        let payload = out.expect_err("cancelled I/O wait must unwind");
        let cancelled = payload
            .downcast_ref::<Cancelled>()
            .expect("typed Cancelled payload");
        assert_eq!(cancelled.reason, reason);
        assert!(
            t0.elapsed() < Duration::from_secs(3),
            "the {reason} broadcast missed the parked strand; only a timeout \
             backstop recovered it ({:?})",
            t0.elapsed()
        );
        canceller.join().unwrap();
    }
}

/// Serving workload used by the chaos replay test: one echo handler, one
/// external client pushing `count` frames and checking each echo.
#[cfg(feature = "chaos")]
fn echo_round_trip(rt: &Runtime, count: usize) {
    let (server, mut client) = UnixStream::pair().unwrap();
    server.set_nonblocking(true).unwrap();
    let client_thread = std::thread::spawn(move || {
        let mut buf = [0u8; 8];
        for i in 0..count as u64 {
            client.write_all(&i.to_le_bytes()).unwrap();
            client.read_exact(&mut buf).unwrap();
            assert_eq!(u64::from_le_bytes(buf), i * 3, "echo corrupted");
        }
        let _ = client.shutdown(std::net::Shutdown::Write);
    });
    let served = rt.run(move || {
        nowa_runtime::block_on(async move {
            let fd = AsyncFd::new(server).unwrap();
            let mut served = 0u64;
            let mut buf = [0u8; 8];
            'conn: loop {
                let mut got = 0;
                while got < buf.len() {
                    match (&mut fd.get_ref()).read(&mut buf[got..]) {
                        Ok(0) => break 'conn,
                        Ok(n) => got += n,
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            fd.readable().await.unwrap();
                        }
                        Err(e) => panic!("server read: {e}"),
                    }
                }
                let v = u64::from_le_bytes(buf) * 3;
                let out = v.to_le_bytes();
                let mut sent = 0;
                while sent < out.len() {
                    match (&mut fd.get_ref()).write(&out[sent..]) {
                        Ok(n) => sent += n,
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            fd.writable().await.unwrap();
                        }
                        Err(e) => panic!("server write: {e}"),
                    }
                }
                served += 1;
            }
            served
        })
    });
    assert_eq!(served, count as u64, "requests lost");
    client_thread.join().unwrap();
}

/// The reactor chaos site armed hard over a real serving workload: 7/16
/// of polls skip `epoll_wait` (no event dispatched, only the due
/// deadlines fire). Readiness must still be delivered exactly once
/// per edge and timers must still fire — the workload completes with
/// correct results on every replay of the seed. (Poll visit *counts* are
/// wall-clock dependent, so — as with the idle sites — the gate here is
/// replayed correctness, not snapshot equality; see `ChaosConfig`.)
#[cfg(feature = "chaos")]
#[test]
fn serving_survives_reactor_chaos() {
    use nowa_runtime::ChaosConfig;

    for replay in 0..2 {
        let mut chaos = ChaosConfig::with_seed(0xEB0_11E7);
        // 1 - 0.75^2: the two 25% sites this one site replaced, combined.
        chaos.reactor_skip_wait = 28_672;
        let rt = Runtime::new(Config::with_workers(2).idle(eager_park()).chaos(chaos)).unwrap();
        echo_round_trip(&rt, 50);
        // Timers under the same injection: a bounded sleep still lands.
        let t0 = Instant::now();
        rt.run(|| nowa_runtime::block_on(time::sleep(Duration::from_millis(20))));
        assert!(
            t0.elapsed() >= Duration::from_millis(20),
            "replay {replay}: sleep returned early"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(3),
            "replay {replay}: chaos reactor faults stalled the timer wheel \
             ({:?})",
            t0.elapsed()
        );
        let snap = rt.snapshot().chaos.expect("chaos configured");
        assert!(
            snap.ticks.iter().sum::<u64>() > 0,
            "replay {replay}: chaos sites never visited"
        );
    }
}
