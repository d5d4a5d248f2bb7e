//! The FFT's per-call temporaries must not stay resident after the call.
//!
//! `fft::fft` needs an n-point ping-pong scratch and an n/2-point twiddle
//! table for the length of one call. Taken from `malloc`, they stayed in
//! glibc's per-thread arenas once its dynamic mmap threshold had risen
//! past their size, one copy per arena in rotation, so resident memory
//! grew with every fresh runtime whose worker ran a transform. This test
//! is its own binary so that no concurrent test moves the process's RSS.

use nowa_context::sys::rss_kib;
use nowa_kernels::fft;
use nowa_runtime::Runtime;

/// The smallest size the arena-backed temporaries reliably fail at: with
/// them, `VmRSS` grew 1.9–2.8 MiB over the eight runtimes below (2¹⁴
/// points: 1.0–1.4 MiB, too close to the slack); with mapped temporaries
/// it grows 0.3–0.5 MiB, the fresh runtimes' own bookkeeping.
const LOG_N: u32 = 15;
/// Fresh 2-worker runtimes, each running one transform.
const RUNTIMES: usize = 8;
/// Allowed `VmRSS` growth from after the first call to after the last.
const SLACK_KIB: u64 = 1024;

fn rss() -> u64 {
    rss_kib().expect("VmRSS from /proc/self/status").0
}

#[test]
fn fft_temporaries_leave_no_resident_memory_behind() {
    let signal = fft::random_signal(1 << LOG_N, 7);
    let mut buf = signal.clone();
    // Off-runtime first: on the main thread, this call's free is what
    // raised glibc's mmap threshold past the temporaries' size.
    fft::fft(&mut buf, 256);
    let after_first = rss();
    for _ in 0..RUNTIMES {
        let rt = Runtime::with_workers(2).expect("2-worker runtime");
        buf.copy_from_slice(&signal);
        rt.run(|| fft::fft(&mut buf, 256));
    }
    let after_last = rss();
    assert!(
        after_last <= after_first + SLACK_KIB,
        "VmRSS grew from {after_first} KiB after the first transform to {after_last} KiB \
         after {RUNTIMES} more on fresh runtimes (slack {SLACK_KIB} KiB)"
    );
}
