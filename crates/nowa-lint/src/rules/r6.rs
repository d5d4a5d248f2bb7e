//! R6 — wait-freedom.
//!
//! The paper's headline property: a `// lint: wait-free` fn completes in
//! a bounded number of steps regardless of what other threads do. The
//! marker is a *claim*; this rule checks it against the transitive effect
//! set: no lock acquisition, no parking, no blocking syscall, and no
//! unbounded retry loop anywhere in the resolved call closure. A CAS
//! retry loop that genuinely is bounded (the idle mask claim, the wake
//! state machine) is sanctioned at the loop with `// lint: bounded(N)`,
//! which removes its `UNBOUNDED_LOOP` seed.
//!
//! Conservatism: an *unresolved* call claims nothing here — the deliberate
//! asymmetry with R8 (see `effects`). A by-design exception (the THE
//! deque's arbitration lock, CL's amortized growth) is a reasoned allowlist
//! entry, exactly like R5's; code that is lock-based through and through
//! (the Fibril protocol) simply carries no marker.

use crate::diag::Diagnostic;
use crate::effects::{self, Effects};
use crate::Workspace;

/// Effects that falsify a wait-freedom claim.
const BANNED: effects::EffectSet =
    effects::LOCKS | effects::PARKS | effects::BLOCKS_SYSCALL | effects::UNBOUNDED_LOOP;

pub fn check(ws: &Workspace, fx: &Effects) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (fi, f) in ws.files.iter().enumerate() {
        for (ni, fun) in f.fns.iter().enumerate() {
            if !fun.wait_free || fun.in_test {
                continue;
            }
            let id = (fi, ni);
            let have = fx.of(id) & BANNED;
            // Report each offending effect class once, with provenance.
            for bit in [
                effects::LOCKS,
                effects::PARKS,
                effects::BLOCKS_SYSCALL,
                effects::UNBOUNDED_LOOP,
            ] {
                if have & bit == 0 {
                    continue;
                }
                let Some(chain) = fx.chain(ws, id, bit) else {
                    continue;
                };
                if f.allowed_inline("R6", chain.line) || f.allowed_inline("R6", fun.line) {
                    continue;
                }
                out.push(
                    Diagnostic::new(
                        &f.rel_path,
                        chain.line,
                        "R6",
                        format!(
                            "wait-free fn `{}` transitively {} — {} (bound the \
                             loop with `lint: bounded(…)`, or allowlist the \
                             exception with a reason)",
                            fun.name,
                            effects::describe(bit),
                            chain.text,
                        ),
                    )
                    .in_fn(Some(&fun.name)),
                );
            }
        }
    }
    out
}
