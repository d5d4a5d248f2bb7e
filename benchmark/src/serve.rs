//! The `serve` workload: an echo server on the runtime's async surface and
//! a single load-generator thread that drives it.
//!
//! Server: one `spawn_async` handler per connection over
//! `AsyncFd<UnixStream>`, 16-byte frames, a `join2` DAG per request.
//! Generator: **one** thread multiplexing every (non-blocking) client end,
//! so server workers + generator never exceed `nproc` busy threads.
//!
//! Closed loop (each connection sends on reply) gives the pass times the
//! fork/join workloads also report; open loop (Poisson arrivals, latency
//! from each request's *due* time) gives latency at a low and a high rate.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::pin::pin;
use std::time::{Duration, Instant};

use nowa_runtime::{api, AsyncFd, Config, Region, Runtime};

use crate::counters::{put_counters, Delta, Reading};
use crate::report::MetricSet;
use crate::rng::{poisson_schedule, Arrival};
use crate::run::{put_pass_times, Opts, Tally};
use crate::span::Recorder;
use crate::stats;
use crate::sys;

/// Wire frame, both ways: `seq: u64 | work: u32 | result: u32`, LE.
const FRAME: usize = 16;
/// Depth of the per-request `join2` DAG (`fib(8)`: 33 spawns).
pub const REQUEST_WORK: u32 = 8;
/// A reply not seen this long after it was due is lost, and the request
/// failed. Generous on purpose: on a shared host the hypervisor can keep a
/// CPU away for well over 50 ms, and a late but correct reply is a latency
/// sample (it shows in the percentiles and `within_limit_ratio`), not a
/// wrong result.
const REPLY_DEADLINE: Duration = Duration::from_secs(1);
/// Latency limit of `serve.within_limit_ratio_*`.
const LATENCY_LIMIT: Duration = Duration::from_millis(2);
pub const LOW_RATE: f64 = 500.0;
pub const HIGH_RATE: f64 = 8000.0;
/// Requests of one closed-loop pass.
const PASS_REQUESTS: u64 = 20_000;
/// Sub-runs behind each open-loop latency figure (seeds `seed + i`).
const SUB_RUNS: u64 = 5;
/// Request spans kept per traced phase.
const SPANS_PER_PHASE: usize = 2_000;

/// Server workers: all hardware threads but the generator's.
pub fn workers() -> usize {
    sys::nproc().saturating_sub(1).max(1)
}

fn connections() -> usize {
    sys::nproc()
}

// ---- server side ----------------------------------------------------------

/// The per-request fork/join DAG.
pub fn fib_dag(n: u32) -> u32 {
    if n < 2 {
        return n;
    }
    let (a, b) = api::join2(|| fib_dag(n - 1), || fib_dag(n - 2));
    a + b
}

fn serve_frame(frame: &mut [u8; FRAME]) {
    let work = u32::from_le_bytes(frame[8..12].try_into().expect("4 bytes"));
    let result = fib_dag(work.min(REQUEST_WORK));
    frame[12..16].copy_from_slice(&result.to_le_bytes());
}

/// Reads one frame; `Ok(false)` on a clean end of stream.
async fn read_frame(fd: &AsyncFd<UnixStream>, buf: &mut [u8; FRAME]) -> std::io::Result<bool> {
    let mut got = 0;
    while got < FRAME {
        match (&mut fd.get_ref()).read(&mut buf[got..]) {
            Ok(0) if got == 0 => return Ok(false),
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => fd.readable().await?,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

async fn write_frame(fd: &AsyncFd<UnixStream>, buf: &[u8; FRAME]) -> std::io::Result<()> {
    let mut sent = 0;
    while sent < FRAME {
        match (&mut fd.get_ref()).write(&buf[sent..]) {
            Ok(n) => sent += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => fd.writable().await?,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One connection's handler; returns when the client closes. An I/O error
/// ends the connection — the generator then counts its requests as failed.
async fn serve_conn(stream: UnixStream) {
    let Ok(fd) = AsyncFd::new(stream) else { return };
    let mut frame = [0u8; FRAME];
    while let Ok(true) = read_frame(&fd, &mut frame).await {
        serve_frame(&mut frame);
        if write_frame(&fd, &frame).await.is_err() {
            return;
        }
    }
}

/// The same protocol on a plain thread that polls its socket, no runtime:
/// the serving path's serial elision. It spins rather than blocks so that,
/// like the generator, it never waits on the kernel's scheduler — whose
/// wake-up latency is the noisiest thing on a shared host.
fn serve_spinning(stream: UnixStream) {
    let mut frame = [0u8; FRAME];
    loop {
        match (&stream).read(&mut frame) {
            Ok(FRAME) => {
                serve_frame(&mut frame);
                if !matches!((&stream).write(&frame), Ok(FRAME)) {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::hint::spin_loop(),
            _ => return, // end of stream, or a frame split by a dying peer
        }
    }
}

fn socket_pairs(n: usize) -> (Vec<UnixStream>, Vec<UnixStream>) {
    (0..n)
        .map(|_| {
            let (server, client) = UnixStream::pair().expect("socketpair");
            client
                .set_nonblocking(true)
                .expect("non-blocking client end");
            (server, client)
        })
        .unzip()
}

/// Starts a runtime with `workers` workers serving `conns` connections and
/// runs `body` on a generator thread while this thread is parked in
/// `Runtime::run`. `body` also gets the instant set-up began.
pub fn with_server<R: Send>(
    workers: usize,
    conns: usize,
    body: impl FnOnce(&mut Generator, &Runtime, Instant) -> R + Send,
) -> R {
    let started = Instant::now();
    let rt = Runtime::new(Config::with_workers(workers)).expect("runtime start-up");
    let (server_ends, client_ends) = socket_pairs(conns);
    for s in &server_ends {
        s.set_nonblocking(true).expect("non-blocking server end");
    }
    std::thread::scope(|scope| {
        let rt = &rt;
        let generator = std::thread::Builder::new()
            .name("generator".to_owned())
            .spawn_scoped(scope, move || {
                // Dropping the generator closes every client end, which
                // ends the handlers and releases the thread in `run`.
                let mut generator = Generator::new(client_ends);
                body(&mut generator, rt, started)
            })
            .expect("generator thread");
        rt.run(move || {
            let region = pin!(Region::cancellable());
            let region = region.as_ref();
            let handles: Vec<_> = server_ends
                .into_iter()
                .map(|s| region.spawn_async(serve_conn(s)))
                .collect();
            region.block_on(async {
                for h in handles {
                    h.await;
                }
            });
        });
        match generator.join() {
            Ok(out) => out,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// Runs `body` against one connection served by a spinning thread, which
/// lives (and occupies a core) only for the duration of `body`.
fn with_spinning_server<R>(body: impl FnOnce(&mut Generator) -> R) -> R {
    let (mut server_ends, client_ends) = socket_pairs(1);
    let server = server_ends.pop().expect("one pair");
    server
        .set_nonblocking(true)
        .expect("non-blocking server end");
    std::thread::scope(|scope| {
        scope.spawn(move || serve_spinning(server));
        body(&mut Generator::new(client_ends))
    })
}

// ---- generator side -------------------------------------------------------

/// The four instants of one request.
#[derive(Clone, Copy)]
pub struct Request {
    pub due: Instant,
    pub send_start: Instant,
    pub send_end: Instant,
    pub reply: Instant,
}

struct InFlight {
    seq: u64,
    work: u32,
    due: Instant,
    send_start: Instant,
    send_end: Instant,
}

struct Conn {
    stream: UnixStream,
    next_seq: u64,
    in_flight: VecDeque<InFlight>,
    /// Bytes of a frame split across reads.
    partial: Vec<u8>,
}

/// What one phase of load saw.
#[derive(Default)]
pub struct Phase {
    pub sent: u64,
    /// Correct replies within [`REPLY_DEADLINE`].
    pub completed: u64,
    pub failed: u64,
    pub wall: Duration,
    /// Per completed request, in completion order.
    pub requests: Vec<Request>,
    /// CPU the server side burnt: process CPU minus this thread's.
    pub server_cpu: Duration,
}

impl Phase {
    /// Due → reply, ascending, in nanoseconds.
    pub fn latencies_ns(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .requests
            .iter()
            .map(|r| (r.reply - r.due).as_nanos() as u64)
            .collect();
        v.sort_unstable();
        v
    }

    /// Due → send, ascending: how late the generator ran.
    fn lateness_ns(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .requests
            .iter()
            .map(|r| (r.send_start - r.due).as_nanos() as u64)
            .collect();
        v.sort_unstable();
        v
    }

    fn within_limit_ratio(&self) -> f64 {
        let within = self
            .requests
            .iter()
            .filter(|r| r.reply - r.due <= LATENCY_LIMIT)
            .count();
        within as f64 / self.sent.max(1) as f64
    }
}

pub struct Generator {
    conns: Vec<Conn>,
}

impl Generator {
    fn new(streams: Vec<UnixStream>) -> Generator {
        Generator {
            conns: streams
                .into_iter()
                .map(|stream| Conn {
                    stream,
                    next_seq: 0,
                    in_flight: VecDeque::new(),
                    partial: Vec::with_capacity(FRAME),
                })
                .collect(),
        }
    }

    /// Writes one request on `conn`.
    fn send(&mut self, conn: usize, work: u32, due: Instant, phase: &mut Phase) {
        let c = &mut self.conns[conn];
        let mut frame = [0u8; FRAME];
        frame[..8].copy_from_slice(&c.next_seq.to_le_bytes());
        frame[8..12].copy_from_slice(&work.to_le_bytes());
        let send_start = Instant::now();
        phase.sent += 1;
        // A 16-byte write to a stream socket is all or nothing; a full
        // buffer means the server stopped reading, and the request fails.
        if !matches!((&c.stream).write(&frame), Ok(FRAME)) {
            phase.failed += 1;
            return;
        }
        c.in_flight.push_back(InFlight {
            seq: c.next_seq,
            work,
            due,
            send_start,
            send_end: Instant::now(),
        });
        c.next_seq += 1;
    }

    /// Collects the replies waiting on `conn`; returns how many arrived.
    fn collect(&mut self, conn: usize, phase: &mut Phase) -> usize {
        let c = &mut self.conns[conn];
        if c.in_flight.is_empty() {
            return 0;
        }
        let mut buf = [0u8; 64 * FRAME];
        let got = match (&c.stream).read(&mut buf) {
            Ok(n) => n,
            Err(_) => return 0, // WouldBlock: nothing yet
        };
        let reply = Instant::now();
        c.partial.extend_from_slice(&buf[..got]);
        let frames = c.partial.len() / FRAME;
        for f in c.partial.chunks_exact(FRAME) {
            let seq = u64::from_le_bytes(f[..8].try_into().expect("8 bytes"));
            let result = u32::from_le_bytes(f[12..16].try_into().expect("4 bytes"));
            let Some(sent) = c.in_flight.pop_front() else {
                phase.failed += 1; // a reply nobody asked for
                continue;
            };
            let correct = seq == sent.seq
                && f[8..12] == sent.work.to_le_bytes()
                && result == fib_reference(sent.work);
            if correct && reply - sent.due <= REPLY_DEADLINE {
                phase.completed += 1;
                phase.requests.push(Request {
                    due: sent.due,
                    send_start: sent.send_start,
                    send_end: sent.send_end,
                    reply,
                });
            } else {
                phase.failed += 1;
            }
        }
        c.partial.drain(..frames * FRAME);
        frames
    }

    fn in_flight(&self) -> usize {
        self.conns.iter().map(|c| c.in_flight.len()).sum()
    }

    /// Gives up on whatever is still in flight: those requests failed.
    fn abandon(&mut self, phase: &mut Phase) {
        for c in &mut self.conns {
            phase.failed += c.in_flight.len() as u64;
            c.in_flight.clear();
        }
    }

    /// Runs `run` as one phase expected to complete `expect` requests.
    fn timed(&mut self, expect: usize, run: impl FnOnce(&mut Generator, &mut Phase)) -> Phase {
        let mut phase = Phase::default();
        // Growing the record mid-phase would stall the generator.
        phase.requests.reserve(expect);
        let (t0, cpu0, own0) = (Instant::now(), sys::process_cpu(), sys::thread_cpu());
        run(self, &mut phase);
        phase.wall = t0.elapsed();
        phase.server_cpu = (sys::process_cpu() - cpu0).saturating_sub(sys::thread_cpu() - own0);
        phase
    }

    /// Open loop: request `i` is sent when `schedule[i]` is due whether or
    /// not earlier replies arrived; latency counts from the due time.
    pub fn open_loop(&mut self, schedule: &[Arrival], work: u32) -> Phase {
        self.timed(schedule.len(), |g, phase| {
            let t0 = Instant::now() + Duration::from_millis(1);
            let mut next = 0;
            let last_due = t0 + Duration::from_nanos(schedule.last().map_or(0, |a| a.due_ns));
            loop {
                let now = Instant::now();
                while next < schedule.len() {
                    let due = t0 + Duration::from_nanos(schedule[next].due_ns);
                    if due > now {
                        break;
                    }
                    g.send(schedule[next].conn, work, due, phase);
                    next += 1;
                }
                for conn in 0..g.conns.len() {
                    g.collect(conn, phase);
                }
                if next == schedule.len() {
                    if g.in_flight() == 0 {
                        break;
                    }
                    if now > last_due + REPLY_DEADLINE {
                        g.abandon(phase);
                        break;
                    }
                }
            }
        })
    }

    /// Closed loop: the first `conns` connections each keep one request in
    /// flight, sending the next on reply, until `total` were sent.
    pub fn closed_loop(&mut self, conns: usize, total: u64, work: u32) -> Phase {
        self.timed(total as usize, |g, phase| {
            for conn in 0..conns.min(total as usize) {
                g.send(conn, work, Instant::now(), phase);
            }
            let mut last_progress = Instant::now();
            while g.in_flight() > 0 {
                for conn in 0..conns {
                    if g.collect(conn, phase) > 0 {
                        last_progress = Instant::now();
                        if phase.sent < total {
                            g.send(conn, work, last_progress, phase);
                        }
                    }
                }
                if last_progress.elapsed() > REPLY_DEADLINE {
                    g.abandon(phase);
                }
            }
        })
    }
}

fn fib_reference(n: u32) -> u32 {
    nowa_kernels::fib::fib_reference(u64::from(n.min(REQUEST_WORK))) as u32
}

// ---- the measurement ------------------------------------------------------

fn count(tally: &mut Tally, phase: &Phase) {
    tally.attempted += phase.sent;
    tally.failed += phase.failed;
}

/// Records `phase` as a span with (a bounded number of) request spans:
/// `req` from due to reply, its child `send` the write itself.
fn record_phase(rec: &mut Recorder, name: &str, start: Instant, phase: &Phase) {
    let id = rec.add(name, None, start, start + phase.wall);
    for r in phase.requests.iter().take(SPANS_PER_PHASE) {
        let req = rec.add("req", Some(id), r.due, r.reply);
        rec.add("send", Some(req), r.send_start, r.send_end);
    }
}

/// One open-loop sub-run at `rate` for `seconds`.
struct OpenLoop {
    phase: Phase,
    delta: Delta,
}

fn open_loop_run(
    g: &mut Generator,
    rt: &Runtime,
    rate: f64,
    seconds: f64,
    seed: u64,
    tally: &mut Tally,
) -> OpenLoop {
    let schedule = poisson_schedule(seed, rate, seconds, g.conns.len());
    let before = Reading::take(rt);
    let phase = g.open_loop(&schedule, REQUEST_WORK);
    let delta = Delta::between(&before, &Reading::take(rt), rt.workers());
    count(tally, &phase);
    OpenLoop { phase, delta }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Reports one rate's latency figures from its sub-runs. A percentile
/// with too few samples beyond it, or a generator that ran late, makes the
/// figure unresolved instead of a number to trust.
fn put_latencies(out: &mut MetricSet, label: &str, rate: f64, runs: &[OpenLoop]) {
    let sorted: Vec<Vec<u64>> = runs.iter().map(|r| r.phase.latencies_ns()).collect();
    let late_ns = runs
        .iter()
        .filter_map(|r| stats::percentile(&r.phase.lateness_ns(), 0.99))
        .max()
        .unwrap_or(0);
    let late = (late_ns as f64 > 0.1 * 1e9 / rate).then(|| {
        format!(
            "generator ran {:.1} us late at p99, over 10 % of the mean gap",
            us(late_ns)
        )
    });
    for (q, tag) in [(0.50, "p50"), (0.99, "p99")] {
        let have: Vec<f64> = sorted
            .iter()
            .filter_map(|lat| stats::percentile(lat, q))
            .map(us)
            .collect();
        if have.is_empty() {
            continue; // nothing measurable: the metric is absent, not zero
        }
        let name = format!("lat_{label}_{tag}_us");
        out.put_samples(&name, &have);
        if have.len() < runs.len() {
            let few = format!(
                "fewer than {} samples beyond {tag} in a sub-run",
                stats::MIN_BEYOND
            );
            out.mark_unresolved(&name, few);
        }
        if let Some(reason) = &late {
            out.mark_unresolved(&name, reason.clone());
        }
    }
}

/// Set-ups per untraced run; cheaper here than in the fork/join runs.
const SETUP_REPS: usize = 5;
/// Closed-loop rounds at the reference `--seconds`; a round lasts ~0.5 s.
const ROUNDS: usize = 12;

pub fn untraced(opts: &Opts, rec: &mut Recorder, out: &mut MetricSet, tally: &mut Tally) {
    let scale = opts.seconds as f64 / 20.0;
    let rounds = ((ROUNDS as f64 * scale) as usize).clamp(5, 60);
    let (p, conns) = (workers(), connections());

    // A set-up as a user pays it: runtime, sockets, handlers and one
    // saturating warm-up pass.
    let warm_up = |g: &mut Generator, tally: &mut Tally| {
        count(tally, &g.closed_loop(conns, PASS_REQUESTS, REQUEST_WORK));
    };
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        setups.push(rec.span("setup", |_| {
            with_server(p, conns, |g, _, started| {
                warm_up(g, tally);
                started.elapsed().as_secs_f64()
            })
        }));
    }
    // The last set-up's server is the one measured.
    with_server(p, conns, |g, rt, started| {
        warm_up(g, tally);
        setups.push(started.elapsed().as_secs_f64());

        // The serial elision of serving — a polling thread, no runtime —
        // takes turns with the two closed-loop configurations, so that a
        // round's three passes see the same machine (its speed drifts over
        // tens of seconds). While it runs, the runtime's worker is parked.
        let closed_loop = |g: &mut Generator, conns: usize, tally: &mut Tally| {
            let phase = g.closed_loop(conns, PASS_REQUESTS, REQUEST_WORK);
            count(tally, &phase);
            phase.wall.as_secs_f64()
        };
        let (mut serial, mut t1, mut tp) = (Vec::new(), Vec::new(), Vec::new());
        with_spinning_server(|g| closed_loop(g, 1, tally)); // warm-up
        for _ in 0..rounds {
            serial.push(with_spinning_server(|g| closed_loop(g, 1, tally)));
            t1.push(closed_loop(g, 1, tally));
            tp.push(closed_loop(g, conns, tally));
        }

        let low_s = 2.3 * scale.max(1.0);
        let high_s = (0.5 * scale).max(0.3);
        let low: Vec<OpenLoop> = (0..SUB_RUNS)
            .map(|i| open_loop_run(g, rt, LOW_RATE, low_s, opts.seed + i, tally))
            .collect();
        let high: Vec<OpenLoop> = (0..SUB_RUNS)
            .map(|i| open_loop_run(g, rt, HIGH_RATE, high_s, opts.seed + SUB_RUNS + i, tally))
            .collect();

        out.put_samples("setup_s", &setups);
        put_pass_times(out, &serial, &t1, &tp);
        put_latencies(out, "low", LOW_RATE, &low);
        put_latencies(out, "high", HIGH_RATE, &high);
        let rps: Vec<f64> = tp.iter().map(|t| PASS_REQUESTS as f64 / t).collect();
        out.put_samples("sat_rps", &rps);
        let cpu: Vec<f64> = low
            .iter()
            .map(|r| r.phase.server_cpu.as_secs_f64() * 1e6 / r.phase.completed.max(1) as f64)
            .collect();
        out.put_samples("cpu_us_per_req_low", &cpu);
    });
}

pub fn traced(opts: &Opts, rec: &mut Recorder, out: &mut MetricSet, tally: &mut Tally) {
    let (p, conns) = (workers(), connections());
    with_server(p, conns, |g, rt, started| {
        count(tally, &g.closed_loop(conns, PASS_REQUESTS, REQUEST_WORK));
        rec.add("setup", None, started, Instant::now());

        // Tracing overhead: the saturating pass with request spans kept
        // and dropped, alternating.
        let (mut off, mut on, mut deltas) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..6 {
            let start = Instant::now();
            let before = Reading::take(rt);
            let phase = g.closed_loop(conns, PASS_REQUESTS, REQUEST_WORK);
            deltas.push(Delta::between(&before, &Reading::take(rt), p));
            count(tally, &phase);
            if i % 2 == 0 {
                off.push(phase.wall.as_secs_f64());
            } else {
                record_phase(rec, "phase[sat]", start, &phase);
                on.push(phase.wall.as_secs_f64());
            }
        }
        put_counters(out, &deltas);
        out.put_value(
            "bench.trace_overhead_ratio",
            stats::median(&on) / stats::median(&off),
        );

        let before = Reading::take(rt);
        for _ in 0..2 {
            count(tally, &g.closed_loop(1, PASS_REQUESTS, REQUEST_WORK));
        }
        let one = Delta::between(&before, &Reading::take(rt), p);
        out.put_value("sched.steals_p1", one.steals as f64);

        for (label, rate, seconds) in [("low", LOW_RATE, 2.3), ("high", HIGH_RATE, 0.5)] {
            let start = Instant::now();
            let run = open_loop_run(g, rt, rate, seconds, opts.seed, tally);
            record_phase(rec, &format!("phase[{label}]"), start, &run.phase);
            let done = run.phase.completed.max(1) as f64;
            let d = &run.delta;
            out.put_value(
                &format!("reactor.polls_per_req_{label}"),
                d.reactor_polls as f64 / done,
            );
            out.put_value(
                &format!("reactor.events_per_req_{label}"),
                d.reactor_events as f64 / done,
            );
            out.put_value(
                &format!("reactor.async_parks_per_req_{label}"),
                d.async_parks as f64 / done,
            );
            if let Some(late) = stats::percentile(&run.phase.lateness_ns(), 0.99) {
                out.put_value(&format!("serve.gen_late_p99_us_{label}"), us(late));
            }
            out.put_value(
                &format!("serve.within_limit_ratio_{label}"),
                run.phase.within_limit_ratio(),
            );
        }
    });
}
