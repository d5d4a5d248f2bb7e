//! R7 fixture, linted together with the real workspace: a `let`-bound
//! lock guard still live across `join2`. rustc accepts it — `join2`
//! bounds its closures by `Send`, not the caller's frame — but a thief
//! may resume everything after the spawn on another worker thread, which
//! then releases a lock it never acquired. Only R7 reports it.

use nowa_runtime::api::join2;
use parking_lot::Mutex;

pub fn total_under_lock(total: &Mutex<u64>, n: u64) -> u64 {
    let guard = total.lock();
    let (a, b) = join2(|| n + 1, || n + 2);
    *guard + a + b
}
