//! nowa-lint: project-specific concurrency lints for the Nowa workspace.
//!
//! A self-contained (zero-dependency) static analysis pass that keeps
//! three artifacts in lock-step: the shipping source, the loom shims, and
//! the DESIGN.md §7b memory-ordering audit. `rustc` and `clippy` cannot
//! see any of these contracts — they are project conventions, not
//! language rules — so this tool walks the workspace with a hand-rolled
//! lexer and a small item model and enforces them:
//!
//! * **R1 ordering-audit-drift** — `Ordering::` sites ↔ §7b audit rows.
//! * **R2 shim-discipline** — loom-shimmed modules never bypass
//!   `crate::sync`.
//! * **R4 safety-comments** — every `unsafe` carries its written contract.
//! * **R6 wait-freedom** — `// lint: wait-free` fns are transitively free
//!   of allocation, locks, parks, blocking syscalls and unbounded retry
//!   loops (`lint: bounded(N)` sanctions a bounded one); `wait-free
//!   private` fns also touch no shared atomic.
//! * **R7 suspension-safety** — no lock guard or `ManuallyDrop` region
//!   live across a call that transitively suspends the continuation.
//! * **R8 blocking-in-async** — nothing reachable from the async surface
//!   (async fns, future `poll`s, reactor/timer callbacks) blocks in a
//!   syscall.
//!
//! R6–R8 share an interprocedural layer: `callgraph` resolves
//! intra-workspace call sites by name (conservative on ambiguity), and
//! `effects` propagates per-fn effect sets — allocates / locks / parks /
//! blocks-syscall / suspends / unbounded-loop — to a fixpoint over that
//! graph, seeded from leaf facts.
//!
//! Diagnostics print as `file:line: rule-id: message` (or as GitHub
//! workflow annotations, see `--format`). Suppressions are either inline
//! (`// lint: allow(R2)` on or above the offending line) or reasoned
//! entries in `nowa-lint.allow` at the workspace root; stale
//! suppressions are themselves errors. See DESIGN.md §7c for the
//! rule catalogue.

pub mod allow;
pub mod audit;
pub mod callgraph;
pub mod diag;
pub mod effects;
pub mod lexer;
pub mod parse;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use parse::FileModel;

/// The parsed workspace: every `crates/*/src/**/*.rs` and `examples/*.rs`
/// plus the §7b audit.
pub struct Workspace {
    pub files: Vec<FileModel>,
    pub audit: audit::Audit,
}

impl Workspace {
    /// Loads and parses the workspace rooted at `root`.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut rs_files: Vec<PathBuf> = Vec::new();
        let crates = root.join("crates");
        if crates.is_dir() {
            let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates)?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_dir())
                .collect();
            crate_dirs.sort();
            for dir in crate_dirs {
                let src = dir.join("src");
                if src.is_dir() {
                    collect_rs(&src, &mut rs_files)?;
                }
            }
        }
        // Examples ship to users verbatim: lint them too (they carry the
        // same async-surface obligations as runtime code).
        let examples = root.join("examples");
        if examples.is_dir() {
            for e in fs::read_dir(&examples)? {
                let p = e?.path();
                if p.extension().is_some_and(|e| e == "rs") {
                    rs_files.push(p);
                }
            }
        }
        rs_files.sort();

        let mut files = Vec::with_capacity(rs_files.len());
        for p in rs_files {
            let text = fs::read_to_string(&p)?;
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(FileModel::parse(&rel, &text));
        }

        let design = fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default();
        let audit = audit::parse("DESIGN.md", &design);
        Ok(Workspace { files, audit })
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Runs every rule, applies the allowlist, and returns sorted diagnostics.
pub fn run_lint(ws: &Workspace, allowlist: &allow::Allowlist) -> Vec<diag::Diagnostic> {
    let raw = rules::run_all(ws);
    let mut out = allowlist.apply(raw);
    diag::sort(&mut out);
    out
}
