//! The rule set. Each rule consumes the parsed [`Workspace`] and returns
//! diagnostics; scoping (which crates/files a rule applies to) lives here
//! so the whole policy is visible in one place. DESIGN.md §7c is the
//! human-readable catalogue of these rules.

use crate::diag::Diagnostic;
use crate::{callgraph, effects, Workspace};

pub mod r1;
pub mod r2;
pub mod r4;
pub mod r6;
pub mod r7;
pub mod r8;

/// R2: modules ported to the loom shims — every atomic/lock in them must go
/// through `crate::sync`, or the model checker silently loses sight of it.
pub const SHIM_MODULES: &[&str] = &[
    "nowa-deque/src/cl.rs",
    "nowa-deque/src/the.rs",
    "nowa-deque/src/split.rs",
    "nowa-runtime/src/idle.rs",
    "nowa-runtime/src/injector.rs",
    "nowa-runtime/src/record.rs",
    "nowa-runtime/src/nowa.rs",
    "nowa-runtime/src/worker.rs",
    "nowa-runtime/src/task.rs",
    "nowa-runtime/src/reactor.rs",
];

/// R1: crates whose `Ordering::` sites the DESIGN.md §7b audit must cover.
pub const AUDIT_SCOPE: &[&str] = &["nowa-deque/src/", "nowa-runtime/src/"];

/// R4: crates whose `unsafe` requires documented contracts.
pub const SAFETY_SCOPE: &[&str] = &["nowa-context/src/", "nowa-runtime/src/"];

/// Does `rel_path` fall under one of the scope fragments?
pub(crate) fn in_scope(rel_path: &str, scope: &[&str]) -> bool {
    scope.iter().any(|s| rel_path.contains(s))
}

/// Runs every rule over the workspace (allowlist not yet applied). The
/// call graph and effect sets are computed once and shared by R6–R8.
pub fn run_all(ws: &Workspace) -> Vec<Diagnostic> {
    let fx = effects::compute(ws, callgraph::build(ws));
    let mut out = Vec::new();
    out.extend(r1::check(ws));
    out.extend(r2::check(ws));
    out.extend(r4::check(ws));
    out.extend(r6::check(ws, &fx));
    out.extend(r7::check(ws, &fx));
    out.extend(r8::check(ws, &fx));
    out
}
