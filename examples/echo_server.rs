//! An async echo server over local socket pairs, demonstrating the §6h
//! serving surface end to end: `AsyncFd` readiness futures on the epoll
//! reactor, one `Region::spawn_async` handler per connection, and — the
//! part worth copying — **graceful shutdown**: `Runtime::shutdown` latches
//! the root cancellation scope, the broadcast wakes every handler parked
//! on I/O, and each unwinds with a typed `Cancelled` payload instead of
//! being killed mid-write.
//!
//! ```text
//! cargo run --release --example echo_server
//! ```

use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::pin;
use std::time::Duration;

use nowa::runtime::Cancelled;
use nowa::{AsyncFd, Config, Region, Runtime};

/// One connection's echo loop: read whatever arrives, write it back.
/// Returns the bytes echoed once the peer hangs up. The fd must already be
/// non-blocking — `AsyncFd` only reports readiness edges; the loop
/// (syscall until `WouldBlock`, then await, retry) is ours.
async fn echo(stream: UnixStream) -> std::io::Result<u64> {
    let fd = AsyncFd::new(stream)?;
    let mut total = 0u64;
    let mut buf = [0u8; 4096];
    loop {
        let n = loop {
            match (&mut fd.get_ref()).read(&mut buf) {
                Ok(n) => break n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => fd.readable().await?,
                Err(e) => return Err(e),
            }
        };
        if n == 0 {
            return Ok(total); // peer hung up: a clean exit
        }
        let mut sent = 0;
        while sent < n {
            match (&mut fd.get_ref()).write(&buf[sent..n]) {
                Ok(m) => sent += m,
                Err(e) if e.kind() == ErrorKind::WouldBlock => fd.writable().await?,
                Err(e) => return Err(e),
            }
        }
        total += n as u64;
    }
}

fn main() {
    // The shutdown unwind is *expected* here: silence the default panic
    // hook for typed `Cancelled` payloads so the demo output stays clean.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<Cancelled>().is_none() {
            default_hook(info);
        }
    }));

    let rt = Runtime::new(Config::with_workers(2)).expect("runtime");

    // Two connections: client A is polite and hangs up; client B would
    // chat forever, so only a shutdown can end its handler.
    let (srv_a, mut client_a) = UnixStream::pair().expect("socketpair");
    let (srv_b, mut client_b) = UnixStream::pair().expect("socketpair");
    for s in [&srv_a, &srv_b] {
        s.set_nonblocking(true).expect("non-blocking server end");
    }

    std::thread::scope(|s| {
        // The server: one root task, one async handler per connection,
        // joined through the region so a handler panic cannot leak.
        let server = s.spawn(|| {
            catch_unwind(AssertUnwindSafe(|| {
                rt.run(|| {
                    let region = pin!(Region::cancellable());
                    let region = region.as_ref();
                    let a = region.spawn_async(echo(srv_a));
                    let b = region.spawn_async(echo(srv_b));
                    region.block_on(async { (a.await, b.await) })
                })
            }))
        });

        // Client A: send, verify the echo, hang up cleanly.
        client_a.write_all(b"hello, nowa").expect("client a write");
        let mut back = [0u8; 11];
        client_a.read_exact(&mut back).expect("client a echo");
        assert_eq!(&back, b"hello, nowa");
        println!("client a: echo verified, hanging up");
        let _ = client_a.shutdown(std::net::Shutdown::Write);

        // Client B: send, verify, then linger — its handler parks on
        // `readable()` with nothing left to read.
        client_b.write_all(b"lingering").expect("client b write");
        let mut back = [0u8; 9];
        client_b.read_exact(&mut back).expect("client b echo");
        assert_eq!(&back, b"lingering");
        println!("client b: echo verified, lingering");
        std::thread::sleep(Duration::from_millis(50));

        // Graceful shutdown: the cancellation broadcast wakes B's parked
        // handler, which unwinds with a typed payload; the runtime drains
        // and joins every thread within the bound.
        rt.shutdown(Duration::from_secs(5)).expect("clean shutdown");

        match server.join().expect("server thread") {
            Ok(out) => println!("server drained before the shutdown: {out:?}"),
            Err(payload) => {
                let cancelled = payload
                    .downcast_ref::<Cancelled>()
                    .expect("shutdown unwinds with a typed Cancelled payload");
                println!("server unwound gracefully: {cancelled}");
            }
        }
    });
}
