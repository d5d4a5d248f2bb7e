//! R6 — wait-freedom.
//!
//! The paper's headline property: a `// lint: wait-free` fn completes in
//! a bounded number of steps regardless of what other threads do, and
//! on the spawn/steal/join fast path it does so without allocating. The
//! marker is a *claim*; this rule checks it against the effect model:
//! no allocation, lock acquisition, parking, blocking syscall or
//! unbounded retry loop, in two layers:
//!
//! * **Direct** — each of the fn's own leaf facts (a textual needle such
//!   as `Box::new` or `.lock(`, or a `loop`/`while` without a
//!   `// lint: bounded(N)` annotation) is reported at its own line, so an
//!   inline `// lint: allow(R6)` sanctions exactly one site.
//! * **Transitive** — an effect that arrives only through resolved
//!   callees is reported once per effect class, with a witness chain
//!   (`push → grow: .lock(` …).
//!
//! The stronger marker `// lint: wait-free private` additionally claims
//! the §6g zero-shared-atomic fast path: the split deque's private ring
//! ops are owner-only `Cell` state, so any atomic load/store/RMW or fence
//! in such a fn falsifies the layer's whole performance argument. Those
//! fns are scanned for a second, purely textual needle list (atomics
//! never resolve to workspace fns).
//!
//! Conservatism: an *unresolved* call claims nothing here — the deliberate
//! asymmetry with R8 (see `effects`). A by-design exception (the THE
//! deque's arbitration lock, CL's amortized growth) is a reasoned
//! allowlist entry; code that is lock-based through and through (the
//! Fibril protocol) simply carries no marker. The retired `hot-path`
//! marker is reported wherever it is left, since it no longer checks
//! anything.

use crate::diag::Diagnostic;
use crate::effects::{self, Effects};
use crate::Workspace;

/// Effects that falsify a wait-freedom claim, in reporting order.
const BANNED: [effects::EffectSet; 5] = [
    effects::ALLOCATES,
    effects::LOCKS,
    effects::PARKS,
    effects::BLOCKS_SYSCALL,
    effects::UNBOUNDED_LOOP,
];

/// Shared-synchronization constructs banned from `wait-free private` fns:
/// the marker claims the fn runs on owner-only state with no coherence
/// traffic at all, so even a Relaxed probe needs an explicit exception.
const PRIVATE_NEEDLES: &[&str] = &[
    ".load(",
    ".store(",
    ".swap(",
    ".fetch_",
    ".compare_exchange",
    "fence(",
];

/// The marker R6 replaced; left behind, it would claim nothing silently.
const RETIRED_MARKER: &str = "lint: hot-path";

pub fn check(ws: &Workspace, fx: &Effects) -> Vec<Diagnostic> {
    let banned = BANNED.iter().fold(0, |a, b| a | b);
    let mut out = Vec::new();
    for (fi, f) in ws.files.iter().enumerate() {
        for (ni, fun) in f.fns.iter().enumerate() {
            if fun.in_test {
                continue;
            }
            let mut report = |line: u32, message: String| {
                if !f.allowed_inline("R6", line) {
                    out.push(
                        Diagnostic::new(&f.rel_path, line, "R6", message).in_fn(Some(&fun.name)),
                    );
                }
            };
            if f.comment_block_above(fun.line)
                .iter()
                .any(|l| l.contains(RETIRED_MARKER))
            {
                report(
                    fun.line,
                    format!(
                        "fn `{}` carries the retired `hot-path` marker, which checks \
                         nothing — mark it `// lint: wait-free` instead",
                        fun.name
                    ),
                );
            }
            if !fun.wait_free {
                continue;
            }
            let id = (fi, ni);
            let hint = "(bound the loop with `lint: bounded(…)`, or allowlist the \
                        exception with a reason)";

            let mut direct: effects::EffectSet = 0;
            for seed in fx.seeds_of(id) {
                direct |= seed.bits;
                if seed.bits & banned != 0 {
                    report(
                        seed.line,
                        format!(
                            "wait-free fn `{}` {} — {} at line {} {hint}",
                            fun.name,
                            effects::describe(seed.bits & banned),
                            seed.what,
                            seed.line,
                        ),
                    );
                }
            }

            // Effects that arrive purely through callees, once per class.
            let hidden = fx.of(id) & banned & !direct;
            for bit in BANNED.into_iter().filter(|b| hidden & b != 0) {
                let Some(chain) = fx.chain(ws, id, bit) else {
                    continue;
                };
                report(
                    chain.line,
                    format!(
                        "wait-free fn `{}` transitively {} — {} {hint}",
                        fun.name,
                        effects::describe(bit),
                        chain.text,
                    ),
                );
            }

            if !fun.wait_free_private {
                continue;
            }
            let Some((start, end)) = fun.body else {
                continue;
            };
            for line in start..=end {
                let Some(raw) = f.lines.get((line - 1) as usize) else {
                    break;
                };
                // Strip a trailing line comment (private bodies do not put
                // `//` inside string literals).
                let code = raw.split("//").next().unwrap_or("");
                for needle in PRIVATE_NEEDLES.iter().filter(|n| code.contains(**n)) {
                    report(
                        line,
                        format!(
                            "wait-free private fn `{}` uses `{}` — the `private` \
                             marker claims a zero-shared-atomic path (drop the \
                             marker or allowlist it with a reason)",
                            fun.name,
                            needle.trim_start_matches('.').trim_end_matches('('),
                        ),
                    );
                }
            }
        }
    }
    out
}
