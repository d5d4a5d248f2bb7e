//! Name resolution over the per-file call sites: an intra-workspace call
//! graph.
//!
//! The parser records every `name(…)` / `.name(…)` / `path::name(…)` site;
//! this module resolves each to a workspace fn by its final path segment,
//! with a resolution radius that depends on how the call is written:
//!
//! * **bare** `name(…)`: exactly one non-test fn with that name in the
//!   same file wins, else exactly one anywhere in the workspace
//!   (cross-file calls like `find_work` → `park_worker`);
//! * **method** `.name(…)`: same-file unique only. The receiver's type is
//!   invisible to a lexer, and workspace-global method matching is wrong
//!   far more often than right (every `.load(…)` is *not* the one fn
//!   named `load`) — so a method either hits the enclosing impl's
//!   sibling (`self.grow(…)`, the THE deque's tail-recursive
//!   `self.push(item)`) or stays unresolved for the needle fallback;
//! * **path** `seg::…::name(…)`: `Self::`/`self::`/`crate::`/`super::`
//!   and lowercase (module-ish) heads resolve like bare calls; a
//!   type-qualified call (`Ring::new(…)`) resolves same-file only, and
//!   only when that type is *defined* in the file — `Vec::new(…)` must
//!   never hit an unrelated local `fn new`.
//!
//! Anything else stays *unresolved* — std/external calls, and any
//! ambiguous name (`new`, `poll`, `len`, …). Ambiguity never guesses.
//!
//! Unresolved sites are kept (minus a short benign-builtin list) so effect
//! inference can stay conservative about them: a textual needle match on
//! an unresolved call is still a *known* leaf fact (`.lock(`,
//! `thread::sleep`), while an unresolved bare call with an unknown name is
//! an *unknown* — no effect is claimed for R6 and R7, worst case is
//! assumed for R8 (see `effects`).

use std::collections::HashMap;

use crate::parse::{CallKind, CallSite};
use crate::Workspace;

/// A function node: (file index, fn index) into the workspace model.
pub type FnId = (usize, usize);

/// One resolved call edge.
#[derive(Debug, Clone)]
pub struct Edge {
    pub callee: FnId,
    pub line: u32,
    /// Final path segment of the callee as written (for line-level
    /// needle/resolution cross-checks).
    pub name: String,
}

/// The resolved call graph. Keys are caller [`FnId`]s; fns without calls
/// simply have no entry.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub edges: HashMap<FnId, Vec<Edge>>,
    /// Call sites that resolved to no workspace fn, per caller.
    pub unresolved: HashMap<FnId, Vec<CallSite>>,
}

/// Files excluded from the call graph (callers *and* targets): the lint
/// tool's own sources. R1, R2 and R4 still see them, but no effect-based
/// rule consumes them, and their common fn names (`load`, `build`,
/// `render`) would otherwise capture unrelated production call sites.
fn analyzed(rel_path: &str) -> bool {
    !rel_path.contains("nowa-lint/src")
}

/// Bare-call names that are common std builtins, never effectful enough
/// to matter here: an unresolved bare call to one of these is not an
/// "unknown" for R8's worst-case rule. The raw `syscallN` trampolines in
/// `nowa-context/src/sys.rs` are also benign-by-name: their *named*
/// wrappers (`futex_wait`, `epoll_wait`, …) are the effect seed points,
/// and the trampoline's arch cfg-twins make it unresolvable anyway.
const BENIGN_BARE: &[&str] = &[
    "drop",
    "forget",
    "min",
    "max",
    "size_of",
    "align_of",
    "size_of_val",
    "replace",
    "swap",
    "take",
    "identity",
    "black_box",
    "from_fn",
    "null",
    "null_mut",
    "addr_of",
    "addr_of_mut",
    "transmute",
    "spin_loop",
    "compiler_fence",
    // Diverging std control flow: never returns, so never "blocks".
    "resume_unwind",
    "catch_unwind",
    "abort",
];

impl CallGraph {
    /// Resolved out-edges of `f` (empty slice when none).
    pub fn edges_of(&self, f: FnId) -> &[Edge] {
        self.edges.get(&f).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Unresolved call sites of `f` (empty slice when none).
    pub fn unresolved_of(&self, f: FnId) -> &[CallSite] {
        self.unresolved.get(&f).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Did any call named `name` on `line` of `f` resolve to a workspace
    /// fn? Effect needles consult this: resolution beats the textual
    /// fallback (this is what retires "`self.push(item)` is not
    /// `Vec::push`"-style suppressions).
    pub fn resolved_on_line(&self, f: FnId, line: u32, name: &str) -> bool {
        self.edges_of(f)
            .iter()
            .any(|e| e.line == line && e.name == name)
    }
}

/// Builds the graph. Test-only fns are excluded both as callers and as
/// resolution targets — a test helper must never capture a production
/// call by name.
pub fn build(ws: &Workspace) -> CallGraph {
    // Definition maps: name → fns, workspace-wide and per file; plus the
    // type names each file defines (gates type-qualified path calls).
    let mut global: HashMap<&str, Vec<FnId>> = HashMap::new();
    let mut local: HashMap<(usize, &str), Vec<usize>> = HashMap::new();
    let mut types: HashMap<(usize, &str), ()> = HashMap::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if !analyzed(&file.rel_path) {
            continue;
        }
        for (ni, f) in file.fns.iter().enumerate() {
            if f.in_test || f.body.is_none() {
                continue;
            }
            global.entry(&f.name).or_default().push((fi, ni));
            local.entry((fi, f.name.as_str())).or_default().push(ni);
        }
        for item in &file.items {
            types.insert((fi, item.name.as_str()), ());
        }
    }

    let mut g = CallGraph::default();
    for (fi, file) in ws.files.iter().enumerate() {
        if !analyzed(&file.rel_path) {
            continue;
        }
        for call in &file.calls {
            let Some(ci) = call.enclosing_fn else {
                continue; // static initializers etc.
            };
            if file.fns[ci].in_test {
                continue;
            }
            let caller: FnId = (fi, ci);
            let name = call.name();

            // Same-file lookup: `Some(Some(_))` = unique hit,
            // `Some(None)` = ambiguous (never fall through to global),
            // `None` = no same-file candidate.
            let same_file = match local.get(&(fi, name)).map(Vec::as_slice) {
                Some([one]) => Some(Some((fi, *one))),
                Some(_) => Some(None),
                None => None,
            };
            let global_unique = || match global.get(name).map(Vec::as_slice) {
                Some([one]) => Some(*one),
                _ => None,
            };

            let target = match call.kind {
                CallKind::Bare => same_file.unwrap_or_else(global_unique),
                // A method receiver's type is invisible to a lexer:
                // workspace-global matching is wrong far more often than
                // right, so methods resolve same-file only.
                CallKind::Method => same_file.flatten(),
                CallKind::Path => {
                    let head = call.callee.split("::").next().unwrap_or("");
                    let module_ish = matches!(head, "Self" | "self" | "crate" | "super")
                        || head.starts_with(|c: char| c.is_ascii_lowercase());
                    if module_ish {
                        same_file.unwrap_or_else(global_unique)
                    } else if types.contains_key(&(fi, head)) {
                        // Type-qualified, and the type lives here: its
                        // methods can only be same-file.
                        same_file.flatten()
                    } else {
                        // `Vec::new(…)`, `String::from(…)`: a foreign
                        // type must never hit an unrelated local fn.
                        None
                    }
                }
            };

            match target {
                Some(callee) => {
                    let edges = g.edges.entry(caller).or_default();
                    if !edges
                        .iter()
                        .any(|e| e.callee == callee && e.line == call.line)
                    {
                        edges.push(Edge {
                            callee,
                            line: call.line,
                            name: name.to_string(),
                        });
                    }
                }
                None => {
                    if call.kind == CallKind::Bare
                        && (BENIGN_BARE.contains(&name) || name.starts_with("syscall"))
                    {
                        continue;
                    }
                    g.unresolved.entry(caller).or_default().push(call.clone());
                }
            }
        }
    }
    g
}
