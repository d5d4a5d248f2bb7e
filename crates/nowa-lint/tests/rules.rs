//! Fixture tests: each rule must fire on its violating fixture and stay
//! silent on the passing one. Fixtures are parsed under *mapped* paths
//! (e.g. `crates/nowa-deque/src/cl.rs`) so the shipped scope configuration
//! — shim module lists, audit scope — is what gets exercised,
//! not a parallel test-only configuration.

use nowa_lint::allow::Allowlist;
use nowa_lint::audit;
use nowa_lint::parse::FileModel;
use nowa_lint::{run_lint, Workspace};

fn workspace(files: &[(&str, &str)], audit_md: &str) -> Workspace {
    Workspace {
        files: files
            .iter()
            .map(|(path, text)| FileModel::parse(path, text))
            .collect(),
        audit: audit::parse("DESIGN.md", audit_md),
    }
}

/// Diagnostics of one rule, with no allowlist in play.
fn findings(ws: &Workspace, rule: &str) -> Vec<String> {
    run_lint(ws, &Allowlist::default())
        .into_iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.to_string())
        .collect()
}

const AUDIT: &str = include_str!("fixtures/r1_audit.md");
const AUDIT_STALE: &str = include_str!("fixtures/r1_audit_stale.md");

#[test]
fn r1_pass_fixture_is_clean() {
    let ws = workspace(
        &[(
            "crates/nowa-deque/src/r1fix.rs",
            include_str!("fixtures/r1_pass.rs"),
        )],
        AUDIT,
    );
    assert_eq!(findings(&ws, "R1"), Vec::<String>::new());
}

#[test]
fn r1_fires_on_unaudited_ordering_site() {
    let ws = workspace(
        &[(
            "crates/nowa-deque/src/r1fix.rs",
            include_str!("fixtures/r1_fail.rs"),
        )],
        AUDIT,
    );
    let out = findings(&ws, "R1");
    assert_eq!(out.len(), 1, "exactly the `sneak` site drifts: {out:?}");
    assert!(out[0].contains("sneak"), "{out:?}");
}

#[test]
fn r1_fires_on_stale_audit_anchor() {
    let ws = workspace(
        &[(
            "crates/nowa-deque/src/r1fix.rs",
            include_str!("fixtures/r1_pass.rs"),
        )],
        AUDIT_STALE,
    );
    let out = findings(&ws, "R1");
    assert_eq!(out.len(), 1, "exactly the `ghost` row is stale: {out:?}");
    assert!(out[0].contains("ghost"), "{out:?}");
}

#[test]
fn r2_pass_fixture_is_clean() {
    let ws = workspace(
        &[(
            "crates/nowa-deque/src/cl.rs",
            include_str!("fixtures/r2_pass.rs"),
        )],
        AUDIT,
    );
    assert_eq!(findings(&ws, "R2"), Vec::<String>::new());
}

#[test]
fn r2_fires_on_direct_atomic_import_in_shim_module() {
    let ws = workspace(
        &[(
            "crates/nowa-deque/src/cl.rs",
            include_str!("fixtures/r2_fail.rs"),
        )],
        AUDIT,
    );
    let out = findings(&ws, "R2");
    assert!(!out.is_empty());
    assert!(out[0].contains("core::sync::atomic"), "{out:?}");
}

#[test]
fn r2_ignores_the_same_import_outside_shim_modules() {
    let ws = workspace(
        &[(
            "crates/nowa-runtime/src/stats.rs",
            include_str!("fixtures/r2_fail.rs"),
        )],
        AUDIT,
    );
    assert_eq!(findings(&ws, "R2"), Vec::<String>::new());
}

#[test]
fn r4_pass_fixture_is_clean() {
    let ws = workspace(
        &[(
            "crates/nowa-runtime/src/fix4.rs",
            include_str!("fixtures/r4_pass.rs"),
        )],
        AUDIT,
    );
    assert_eq!(findings(&ws, "R4"), Vec::<String>::new());
}

#[test]
fn r4_fires_on_undocumented_unsafe() {
    let ws = workspace(
        &[(
            "crates/nowa-runtime/src/fix4.rs",
            include_str!("fixtures/r4_fail.rs"),
        )],
        AUDIT,
    );
    let out = findings(&ws, "R4");
    // The undocumented unsafe fn, the bare block in `caller`, and the
    // bare `unsafe impl Send`. The block *inside* the unsafe fn is exempt
    // (the fn-level contract covers it; rustc's own
    // `unsafe_op_in_unsafe_fn` handles the mechanics).
    assert_eq!(out.len(), 3, "{out:?}");
}

#[test]
fn r4_ignores_files_outside_safety_scope() {
    let ws = workspace(
        &[(
            "crates/nowa-deque/src/fix4.rs",
            include_str!("fixtures/r4_fail.rs"),
        )],
        AUDIT,
    );
    assert_eq!(findings(&ws, "R4"), Vec::<String>::new());
}

#[test]
fn r6_pass_fixture_is_clean() {
    let ws = workspace(
        &[(
            "crates/nowa-deque/src/r6fix.rs",
            include_str!("fixtures/r6_pass.rs"),
        )],
        AUDIT,
    );
    assert_eq!(findings(&ws, "R6"), Vec::<String>::new());
}

#[test]
fn r6_fires_on_unbounded_loop_and_transitive_lock() {
    let ws = workspace(
        &[(
            "crates/nowa-deque/src/r6fix.rs",
            include_str!("fixtures/r6_fail.rs"),
        )],
        AUDIT,
    );
    let out = findings(&ws, "R6");
    assert_eq!(out.len(), 2, "acquire's loop and settle's lock: {out:?}");
    assert!(
        out.iter()
            .any(|d| d.contains("`acquire`") && d.contains("unbounded retry loop")),
        "{out:?}"
    );
    assert!(
        out.iter().any(|d| d.contains("`settle`")
            && d.contains("acquires a lock")
            && d.contains("slow_settle")),
        "the lock is reported with its witness chain: {out:?}"
    );
}

#[test]
fn r6_fires_on_direct_and_transitive_allocation() {
    let ws = workspace(
        &[(
            "crates/nowa-runtime/src/r6alloc.rs",
            include_str!("fixtures/r6_alloc_fail.rs"),
        )],
        AUDIT,
    );
    let out = findings(&ws, "R6");
    assert_eq!(
        out.len(),
        2,
        "fast's Box::new and fast_via_helper's: {out:?}"
    );
    assert!(
        out.iter()
            .any(|d| d.contains("`fast`") && d.contains("allocates") && d.contains("Box::new")),
        "{out:?}"
    );
    assert!(
        out.iter().any(|d| d.contains("`fast_via_helper`")
            && d.contains("transitively allocates")
            && d.contains("fast_via_helper → boxed")),
        "the allocation is reported with its witness chain: {out:?}"
    );
}

#[test]
fn r6_private_pass_fixture_is_clean() {
    let ws = workspace(
        &[(
            "crates/nowa-deque/src/r6priv.rs",
            include_str!("fixtures/r6_private_pass.rs"),
        )],
        AUDIT,
    );
    assert_eq!(findings(&ws, "R6"), Vec::<String>::new());
}

#[test]
fn r6_private_fires_on_shared_atomic() {
    let ws = workspace(
        &[(
            "crates/nowa-deque/src/r6priv.rs",
            include_str!("fixtures/r6_private_fail.rs"),
        )],
        AUDIT,
    );
    let out = findings(&ws, "R6");
    assert_eq!(out.len(), 1, "exactly the `load` probe fires: {out:?}");
    assert!(out[0].contains("load"), "{out:?}");
    assert!(out[0].contains("zero-shared-atomic"), "{out:?}");
}

#[test]
fn r6_plain_wait_free_marker_permits_atomics() {
    // The same body under the *plain* marker is legal — atomics are the
    // point of most wait-free paths; only the `private` claim bans them.
    let src = include_str!("fixtures/r6_private_fail.rs").replace("wait-free private", "wait-free");
    let ws = workspace(&[("crates/nowa-deque/src/r6priv.rs", src.as_str())], AUDIT);
    assert_eq!(findings(&ws, "R6"), Vec::<String>::new());
}

#[test]
fn r6_reports_the_retired_hot_path_marker_and_checks_its_loop_once_remarked() {
    let src = include_str!("fixtures/r6_hot_path_loop.rs");
    let ws = workspace(&[("crates/nowa-trace/src/r6ring.rs", src)], AUDIT);
    let out = findings(&ws, "R6");
    assert_eq!(out.len(), 1, "the stale marker, nothing else: {out:?}");
    assert!(
        out[0].contains("`record`") && out[0].contains("retired `hot-path` marker"),
        "{out:?}"
    );

    let remarked = src.replace("lint: hot-path", "lint: wait-free");
    let ws = workspace(
        &[("crates/nowa-trace/src/r6ring.rs", remarked.as_str())],
        AUDIT,
    );
    let out = findings(&ws, "R6");
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(
        out[0].contains("`record`") && out[0].contains("unbounded retry loop"),
        "{out:?}"
    );
}

#[test]
fn allowlist_suppresses_and_reports_stale_entries() {
    let ws = workspace(
        &[(
            "crates/nowa-runtime/src/r6alloc.rs",
            include_str!("fixtures/r6_alloc_fail.rs"),
        )],
        AUDIT,
    );
    let list = Allowlist::parse(
        "nowa-lint.allow",
        "R6 | src/r6alloc.rs | * | Box::new | fixture exception\n\
         R6 | src/gone.rs    | * | *        | suppresses nothing\n",
    );
    let out = run_lint(&ws, &list);
    assert!(
        !out.iter().any(|d| d.rule == "R6"),
        "both R6 findings are suppressed: {out:?}"
    );
    assert!(
        out.iter()
            .any(|d| d.rule == "ALLOW" && d.message.contains("stale")),
        "the unused entry is reported: {out:?}"
    );
}

/// The defect only R2 catches (DESIGN §7c): a shim module's atomic that
/// the loom build compiles and every loom model passes with. Mapped to
/// `record.rs`, it draws an R2 finding and nothing else.
#[test]
fn r2_alone_catches_a_loom_blind_atomic() {
    const FIXTURE: &str = "crates/nowa-runtime/src/record.rs";
    let ws = workspace(
        &[(FIXTURE, include_str!("fixtures/r2_loom_blind.rs"))],
        AUDIT,
    );
    let out: Vec<_> = run_lint(&ws, &Allowlist::default())
        .into_iter()
        .filter(|d| d.file == FIXTURE)
        .collect();
    let rules: Vec<&str> = out.iter().map(|d| d.rule).collect();
    assert_eq!(rules, ["R2"], "{out:?}");
    assert!(out[0].message.contains("core::sync::atomic"), "{out:?}");
}

#[test]
fn r7_pass_fixture_is_clean() {
    let ws = workspace(
        &[(
            "crates/nowa-runtime/src/r7fix.rs",
            include_str!("fixtures/r7_pass.rs"),
        )],
        AUDIT,
    );
    assert_eq!(findings(&ws, "R7"), Vec::<String>::new());
}

#[test]
fn r7_fires_on_guard_live_across_suspension() {
    let ws = workspace(
        &[(
            "crates/nowa-runtime/src/r7fix.rs",
            include_str!("fixtures/r7_fail.rs"),
        )],
        AUDIT,
    );
    let out = findings(&ws, "R7");
    assert_eq!(
        out.len(),
        2,
        "the guard and the ManuallyDrop region: {out:?}"
    );
    assert!(
        out.iter()
            .any(|d| d.contains("lock guard `guard`") && d.contains("block_on")),
        "{out:?}"
    );
    assert!(
        out.iter()
            .any(|d| d.contains("ManuallyDrop region `staged`") && d.contains("sync_suspend_here")),
        "the resolved suspending callee is named: {out:?}"
    );
}

/// The defect only R7 catches (DESIGN §7c): a lock guard live across
/// `join2`, which rustc accepts. Linted with the real workspace, so the
/// finding rests on the effect inference of the shipped `join2`.
#[test]
fn r7_alone_catches_a_guard_live_across_join2() {
    const FIXTURE: &str = "examples/r7_join2.rs";
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut ws = Workspace::load(&root).expect("workspace loads");
    ws.files.push(FileModel::parse(
        FIXTURE,
        include_str!("fixtures/r7_join2.rs"),
    ));
    let out: Vec<_> = run_lint(&ws, &Allowlist::default())
        .into_iter()
        .filter(|d| d.file == FIXTURE)
        .collect();
    let rules: Vec<&str> = out.iter().map(|d| d.rule).collect();
    assert_eq!(rules, ["R7"], "{out:?}");
    assert!(
        out[0].message.contains("lock guard `guard`") && out[0].message.contains("`join2`"),
        "{out:?}"
    );
}

#[test]
fn r7_ignores_files_outside_scope() {
    let ws = workspace(
        &[(
            "crates/nowa-trace/src/r7fix.rs",
            include_str!("fixtures/r7_fail.rs"),
        )],
        AUDIT,
    );
    assert_eq!(findings(&ws, "R7"), Vec::<String>::new());
}

#[test]
fn r8_pass_fixture_is_clean() {
    let ws = workspace(
        &[(
            "crates/nowa-runtime/src/r8fix.rs",
            include_str!("fixtures/r8_pass.rs"),
        )],
        AUDIT,
    );
    assert_eq!(findings(&ws, "R8"), Vec::<String>::new());
}

#[test]
fn r8_fires_on_blocking_async_surface() {
    let ws = workspace(
        &[(
            "crates/nowa-runtime/src/r8fix.rs",
            include_str!("fixtures/r8_fail.rs"),
        )],
        AUDIT,
    );
    let out = findings(&ws, "R8");
    assert_eq!(out.len(), 3, "handle, retry, on_timer: {out:?}");
    assert!(
        out.iter()
            .any(|d| d.contains("`handle`") && d.contains("blocks in a syscall")),
        "{out:?}"
    );
    assert!(
        out.iter()
            .any(|d| d.contains("`retry`") && d.contains("backoff")),
        "the transitive sleep is reported with its chain: {out:?}"
    );
    assert!(
        out.iter()
            .any(|d| d.contains("`on_timer`") && d.contains("parks the thread")),
        "the async-context marker roots the callback: {out:?}"
    );
}
