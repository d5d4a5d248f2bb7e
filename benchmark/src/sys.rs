//! What the benchmark reads from the operating system: CPU time, peak
//! memory, load, and the identity of the host and toolchain.

use std::time::Duration;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const RUSAGE_SELF: i32 = 0;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// User + system CPU time of the whole process so far.
pub fn process_cpu() -> Duration {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // 64-bit Linux ABI defines; RUSAGE_SELF is always valid.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    Duration::from_secs((ru.utime.sec + ru.stime.sec) as u64)
        + Duration::from_micros((ru.utime.usec + ru.stime.usec) as u64)
}

/// CPU time of the calling thread so far.
pub fn thread_cpu() -> Duration {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec`; the thread CPU
    // clock exists on every Linux this runtime supports.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) cannot fail");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One-minute load average.
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(-1.0)
}

/// `(stolen, busy)` CPU time of the whole machine since boot, in clock
/// ticks: time the hypervisor ran someone else while a CPU here had work,
/// and time spent working. Zeros where `/proc/stat` does not say.
pub fn machine_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal
    match fields.as_slice() {
        [user, nice, system, _idle, _iowait, irq, softirq, steal, ..] => {
            (*steal, user + nice + system + irq + softirq)
        }
        _ => (0, 0),
    }
}

/// Share of the CPU time wanted between two [`machine_ticks`] readings
/// that the hypervisor gave to someone else.
pub fn steal_ratio(before: (u64, u64), after: (u64, u64)) -> f64 {
    let stolen = after.0.saturating_sub(before.0) as f64;
    let busy = after.1.saturating_sub(before.1) as f64;
    if stolen + busy == 0.0 {
        0.0
    } else {
        stolen / (stolen + busy)
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `rustc -V`, or `unknown` when the compiler is not on the path.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git (which would search parent directories); `unknown`
/// outside a repository.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu(), thread_cpu());
        let mut x = 1u64;
        while thread_cpu() - t0 < Duration::from_millis(20) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(process_cpu() - p0 >= Duration::from_millis(10));
        assert!(peak_rss_mib() > 0.0);
        assert!(machine_ticks().1 > 0);
        assert_eq!(steal_ratio((10, 100), (30, 160)), 0.25);
        assert_eq!(steal_ratio((0, 0), (0, 0)), 0.0);
        assert!(nproc() >= 1);
    }
}
