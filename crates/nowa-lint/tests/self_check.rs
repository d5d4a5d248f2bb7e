//! The repo self-check: the shipped tree must be lint-clean under its own
//! allowlist. This is the test that turns the lint from a tool you *can*
//! run into an invariant `cargo test` enforces — seeding an unaudited
//! `Ordering::` site, a shim bypass, a bare `unsafe`, an allocation in a
//! `wait-free` fn, or a stale suppression anywhere in the workspace fails
//! here.

use std::path::Path;

use nowa_lint::allow::Allowlist;
use nowa_lint::parse::ItemKind;
use nowa_lint::{run_lint, Workspace};

#[test]
fn workspace_is_lint_clean() {
    let started = std::time::Instant::now();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::load(&root).expect("workspace loads");
    assert!(
        !ws.files.is_empty(),
        "workspace walk found no sources — wrong root?"
    );
    assert!(
        ws.files.iter().any(|f| f.rel_path.starts_with("examples/")),
        "the workspace walk must lint examples/ — they carry the same \
         async-surface obligations as runtime code"
    );
    assert!(
        !ws.audit.entries.is_empty(),
        "DESIGN.md §7b parsed to zero audit rows — wrong root or broken appendix?"
    );

    let allow_text = std::fs::read_to_string(root.join("nowa-lint.allow")).unwrap_or_default();
    let allowlist = Allowlist::parse("nowa-lint.allow", &allow_text);

    // The title claim, pinned: the file defining the wait-free protocol
    // (`Nowa<D>`) is checked with *no* suppression — its `lint: wait-free`
    // markers hold unconditionally, not modulo this list. A lock-taking
    // arm sharing its bodies would need entries here.
    let nowa_files: Vec<&str> = ws
        .files
        .iter()
        .filter(|f| {
            f.rel_path.contains("nowa-runtime/src/")
                && f.items
                    .iter()
                    .any(|i| i.kind == ItemKind::Struct && i.name == "Nowa")
        })
        .map(|f| f.rel_path.as_str())
        .collect();
    let [nowa_file] = nowa_files[..] else {
        panic!(
            "expected exactly one nowa-runtime file defining `struct Nowa`, found {nowa_files:?}"
        );
    };
    let suppressed: Vec<_> = allowlist
        .entries
        .iter()
        .filter(|e| nowa_file.ends_with(&e.file_suffix))
        .collect();
    assert!(
        suppressed.is_empty(),
        "the wait-free protocol file `{nowa_file}` must need no allowlist entries, found {suppressed:?}"
    );

    // The exceptions are by design and few: THE's arbitration lock in
    // `push`, `pop` and `steal`, and CL's amortized growth under `push`.
    // A new entry needs a new reason, not a quiet fifth line.
    assert!(
        allowlist.entries.len() <= 4,
        "nowa-lint.allow grew to {} entries (at most 4: THE push/pop/steal, CL push)",
        allowlist.entries.len()
    );

    let diags = run_lint(&ws, &allowlist);
    assert!(
        diags.is_empty(),
        "nowa-lint found {} finding(s):\n{}",
        diags.len(),
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );

    // Runtime budget: the self-check gates every `cargo test`, so the
    // whole load → parse → call graph → fixpoint → rules pipeline must
    // stay interactive. 5 s is ~20× the current cost — the gate catches
    // an accidental quadratic blowup, not normal growth.
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(5),
        "lint self-check took {elapsed:?} — the interprocedural pass must stay under 5 s"
    );
}
