//! Call-graph builder and effect-inference unit tests: resolution radius
//! per call shape, ambiguity conservatism, the R6/R7-vs-R8 asymmetry for
//! unknown callees, and fixpoint convergence under mutual recursion.

use nowa_lint::allow::Allowlist;
use nowa_lint::callgraph::{self, FnId};
use nowa_lint::effects::{self, LOCKS, SUSPENDS, UNKNOWN_CALL};
use nowa_lint::parse::FileModel;
use nowa_lint::{audit, run_lint, Workspace};

fn workspace(files: &[(&str, &str)]) -> Workspace {
    Workspace {
        files: files
            .iter()
            .map(|(path, text)| FileModel::parse(path, text))
            .collect(),
        audit: audit::parse("DESIGN.md", ""),
    }
}

/// Locates a fn by name across the workspace (must be unique).
fn fn_id(ws: &Workspace, name: &str) -> FnId {
    let mut hit = None;
    for (fi, file) in ws.files.iter().enumerate() {
        for (ni, f) in file.fns.iter().enumerate() {
            if f.name == name {
                assert!(hit.is_none(), "fn `{name}` is not unique in the fixture");
                hit = Some((fi, ni));
            }
        }
    }
    hit.unwrap_or_else(|| panic!("fn `{name}` not found"))
}

/// Names of the resolved callees of `name`, sorted.
fn callees(ws: &Workspace, name: &str) -> Vec<String> {
    let g = callgraph::build(ws);
    let mut out: Vec<String> = g
        .edges_of(fn_id(ws, name))
        .iter()
        .map(|e| {
            let (fi, ni) = e.callee;
            ws.files[fi].fns[ni].name.clone()
        })
        .collect();
    out.sort();
    out
}

#[test]
fn bare_call_prefers_same_file_over_global() {
    let ws = workspace(&[
        (
            "crates/nowa-runtime/src/a.rs",
            "fn helper() -> u64 { 1 }\npub fn caller() -> u64 { helper() }\n",
        ),
        ("crates/nowa-runtime/src/b.rs", "fn helper() -> u64 { 2 }\n"),
    ]);
    let g = callgraph::build(&ws);
    let caller = fn_id(&ws, "caller");
    let edges = g.edges_of(caller);
    assert_eq!(edges.len(), 1);
    assert_eq!(
        edges[0].callee.0, caller.0,
        "the same-file `helper` shadows the global one"
    );
}

#[test]
fn bare_call_resolves_cross_file_when_globally_unique() {
    let ws = workspace(&[
        (
            "crates/nowa-runtime/src/a.rs",
            "pub fn caller() { park_worker(); }\n",
        ),
        ("crates/nowa-runtime/src/b.rs", "pub fn park_worker() {}\n"),
    ]);
    assert_eq!(callees(&ws, "caller"), vec!["park_worker"]);
}

#[test]
fn ambiguous_bare_call_stays_unresolved() {
    let ws = workspace(&[
        (
            "crates/nowa-runtime/src/a.rs",
            "pub fn caller() { dup(); }\n",
        ),
        ("crates/nowa-runtime/src/b.rs", "pub fn dup() {}\n"),
        ("crates/nowa-runtime/src/c.rs", "pub fn dup() {}\n"),
    ]);
    let g = callgraph::build(&ws);
    let id = fn_id(&ws, "caller");
    assert!(g.edges_of(id).is_empty(), "ambiguity must never guess");
    assert_eq!(g.unresolved_of(id).len(), 1);
}

#[test]
fn method_call_resolves_same_file_but_never_cross_file() {
    let ws = workspace(&[
        (
            "crates/nowa-runtime/src/a.rs",
            "impl W {\n    fn helper(&self) {}\n    pub fn near(&self) { self.helper(); }\n}\n",
        ),
        (
            "crates/nowa-runtime/src/b.rs",
            "pub fn far(w: &W) { w.helper(); }\n",
        ),
    ]);
    assert_eq!(callees(&ws, "near"), vec!["helper"]);
    let g = callgraph::build(&ws);
    let far = fn_id(&ws, "far");
    assert!(
        g.edges_of(far).is_empty(),
        "a method receiver's type is invisible: no cross-file resolution"
    );
}

#[test]
fn foreign_type_path_call_does_not_hit_local_fn() {
    let ws = workspace(&[(
        "crates/nowa-runtime/src/a.rs",
        "pub struct Ring;\n\
         impl Ring {\n    fn new() -> Ring { Ring }\n}\n\
         pub fn local() -> Ring { Ring::new() }\n\
         pub fn foreign() -> Vec<u64> { Vec::new() }\n",
    )]);
    assert_eq!(callees(&ws, "local"), vec!["new"], "Ring is defined here");
    assert_eq!(
        callees(&ws, "foreign"),
        Vec::<String>::new(),
        "Vec is not defined here: `Vec::new` must not hit `Ring::new`"
    );
}

#[test]
fn mutual_recursion_reaches_a_fixpoint() {
    let ws = workspace(&[(
        "crates/nowa-runtime/src/a.rs",
        "pub fn ping(n: u64) { if n > 0 { pong(n - 1) } }\n\
         pub fn pong(n: u64) {\n    let g = STATE.lock();\n    if n > 0 { ping(n - 1) }\n}\n",
    )]);
    let fx = effects::compute(&ws, callgraph::build(&ws));
    assert_ne!(fx.of(fn_id(&ws, "pong")) & LOCKS, 0);
    assert_ne!(
        fx.of(fn_id(&ws, "ping")) & LOCKS,
        0,
        "the lock propagates around the cycle"
    );
}

#[test]
fn unknown_bare_call_is_worst_case_for_r8_only() {
    // R6 claims nothing from an unknown callee; R8 assumes the worst.
    let src = "// lint: wait-free\n\
               pub fn fast() { mystery(); }\n\
               pub async fn serve() { mystery(); }\n";
    let ws = workspace(&[("crates/nowa-runtime/src/a.rs", src)]);
    let fx = effects::compute(&ws, callgraph::build(&ws));
    assert_ne!(fx.of(fn_id(&ws, "fast")) & UNKNOWN_CALL, 0);

    let diags = run_lint(&ws, &Allowlist::default());
    assert!(
        !diags.iter().any(|d| d.rule == "R6"),
        "R6 must not fire on an unknown callee: {diags:?}"
    );
    let r8: Vec<_> = diags.iter().filter(|d| d.rule == "R8").collect();
    assert_eq!(r8.len(), 1, "{diags:?}");
    assert!(
        r8[0].message.contains("cannot be proven non-blocking"),
        "{diags:?}"
    );
}

#[test]
fn closure_parameter_invocation_is_not_unknown() {
    let ws = workspace(&[(
        "crates/nowa-runtime/src/a.rs",
        "pub fn apply(body: impl FnOnce() -> u64) -> u64 { body() }\n\
         pub async fn serve() -> u64 { apply(|| 7) }\n",
    )]);
    let fx = effects::compute(&ws, callgraph::build(&ws));
    assert_eq!(
        fx.of(fn_id(&ws, "apply")) & UNKNOWN_CALL,
        0,
        "a call to the fn's own parameter is a closure invocation"
    );
    let diags = run_lint(&ws, &Allowlist::default());
    assert!(!diags.iter().any(|d| d.rule == "R8"), "{diags:?}");
}

#[test]
fn statement_attributes_are_not_calls() {
    // `cfg(`/`not(` inside an in-body attribute must not read as unknown
    // bare calls — R8 would then reject every async fn reaching a
    // feature-gated statement.
    let ws = workspace(&[(
        "crates/nowa-runtime/src/a.rs",
        "pub fn emit(n: u64) {\n    #[cfg(not(feature = \"trace\"))]\n    let _ = n;\n}\n\
         pub async fn serve() { emit(1) }\n",
    )]);
    let fx = effects::compute(&ws, callgraph::build(&ws));
    assert_eq!(fx.of(fn_id(&ws, "emit")) & UNKNOWN_CALL, 0);
    let diags = run_lint(&ws, &Allowlist::default());
    assert!(!diags.iter().any(|d| d.rule == "R8"), "{diags:?}");
}

#[test]
fn suspension_flows_through_resolved_edges() {
    let ws = workspace(&[(
        "crates/nowa-runtime/src/a.rs",
        "fn inner() { block_on(fut()); }\n\
         pub fn outer() { inner(); }\n",
    )]);
    let fx = effects::compute(&ws, callgraph::build(&ws));
    assert_ne!(fx.of(fn_id(&ws, "outer")) & SUSPENDS, 0);
    let chain = fx
        .chain(&ws, fn_id(&ws, "outer"), SUSPENDS)
        .expect("witness chain exists");
    assert!(chain.text.contains("outer → inner"), "{}", chain.text);
    assert_eq!(chain.callee.as_deref(), Some("inner"));
}
