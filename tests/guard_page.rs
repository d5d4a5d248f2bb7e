//! Guard-page overflow diagnostics, tested in a subprocess.
//!
//! Overflowing a fiber stack is fatal by design — the SIGSEGV handler
//! prints a diagnostic naming the worker and the stack bounds, then
//! re-raises with the default disposition so the process dies with the
//! honest signal. That can only be observed from outside: the test
//! re-executes its own binary with `NOWA_GUARD_CRASH=1`, which unlocks the
//! ignored `crash_helper` test below, and asserts on the child's exit
//! status and stderr.

use std::process::Command;

#[test]
fn stack_overflow_reports_guard_page_hit() {
    let exe = std::env::current_exe().expect("own test binary path");
    let out = Command::new(exe)
        .args([
            "crash_helper",
            "--exact",
            "--include-ignored",
            "--nocapture",
        ])
        .env("NOWA_GUARD_CRASH", "1")
        .output()
        .expect("spawn crash helper");

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "deliberate stack overflow should kill the child, got {:?}\nstderr:\n{stderr}",
        out.status
    );
    assert!(
        stderr.contains("nowa: fiber stack overflow: guard page hit on worker 0"),
        "missing guard-page diagnostic in child stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("stack bounds:"),
        "diagnostic lacks the fiber stack bounds:\n{stderr}"
    );
    assert!(
        stderr.contains("hint: raise Config::stack_size"),
        "diagnostic lacks the remediation hint:\n{stderr}"
    );
}

/// With tracing compiled in and enabled, the crash hook additionally dumps
/// the event rings as they stood at the moment of death.
#[cfg(feature = "trace")]
#[test]
fn stack_overflow_dumps_trace_report() {
    let exe = std::env::current_exe().expect("own test binary path");
    let out = Command::new(exe)
        .args([
            "crash_helper",
            "--exact",
            "--include-ignored",
            "--nocapture",
        ])
        .env("NOWA_GUARD_CRASH", "1")
        .env("NOWA_GUARD_TRACE", "1")
        .output()
        .expect("spawn crash helper");

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(
        stderr.contains("nowa: fiber stack overflow"),
        "missing guard-page diagnostic:\n{stderr}"
    );
    assert!(
        stderr.contains("nowa: event rings at crash"),
        "crash hook did not dump the trace report:\n{stderr}"
    );
}

/// Burns ~1 KiB of stack per frame, touching all of it so the descent
/// cannot skip over the guard page.
#[inline(never)]
fn grind(depth: u64) -> u64 {
    let mut buf = [0u8; 1024];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = (depth as u8).wrapping_add(i as u8);
    }
    let sum: u64 = buf.iter().map(|&b| u64::from(b)).sum();
    if depth == 0 {
        return sum;
    }
    sum.wrapping_add(std::hint::black_box(grind(depth - 1)))
}

/// Not a test on its own: only meaningful when re-executed by
/// `stack_overflow_reports_guard_page_hit` (it dies with SIGSEGV).
#[test]
#[ignore = "crash helper; runs only under NOWA_GUARD_CRASH=1 in a subprocess"]
fn crash_helper() {
    if std::env::var_os("NOWA_GUARD_CRASH").is_none() {
        return;
    }
    let config = nowa::Config::with_workers(1)
        .stack_size(64 * 1024)
        .tracing(std::env::var_os("NOWA_GUARD_TRACE").is_some());
    let rt = nowa::Runtime::new(config).expect("runtime");
    // 64 KiB usable / ~1 KiB per frame: overflows after <100 frames.
    let sum = rt.run(|| grind(1 << 20));
    unreachable!("survived a guaranteed stack overflow (sum {sum})");
}
