//! R4 — safety-comments.
//!
//! Every `unsafe` site in the scoped crates carries its proof obligation
//! in writing:
//!
//! * `unsafe fn` — a `/// # Safety` doc section (or `// SAFETY:` comment)
//!   directly above, unless an `#[allow(clippy::missing_safety_doc)]` is
//!   in scope (`nowa-context`'s raw syscall wrappers use that
//!   deliberately: each one's contract is the syscall's own);
//! * `unsafe {}` block — an adjacent `// SAFETY:` comment, except inside
//!   an `unsafe fn` body, where the fn-level contract governs (and is
//!   itself checked);
//! * `unsafe impl` / `unsafe trait` — an adjacent `// SAFETY:` comment.
//!
//! Test code is *not* exempt: tests exercise the raw context-switch API
//! directly and are exactly where a stale safety assumption bites first.

use crate::diag::Diagnostic;
use crate::parse::UnsafeKind;
use crate::rules::{in_scope, SAFETY_SCOPE};
use crate::Workspace;

pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in ws
        .files
        .iter()
        .filter(|f| in_scope(&f.rel_path, SAFETY_SCOPE))
    {
        let file_allows = f
            .inner_attrs
            .iter()
            .any(|a| a.contains("missing_safety_doc"));

        for fun in f.fns.iter().filter(|fun| fun.is_unsafe) {
            if fun.has_safety_comment
                || file_allows
                || fun
                    .attrs
                    .iter()
                    .chain(fun.scope_attrs.iter())
                    .any(|a| a.contains("missing_safety_doc"))
                || f.allowed_inline("R4", fun.line)
            {
                continue;
            }
            out.push(
                Diagnostic::new(
                    &f.rel_path,
                    fun.line,
                    "R4",
                    format!(
                        "unsafe fn `{}` has no `/// # Safety` section or \
                         `// SAFETY:` comment stating its contract",
                        fun.name
                    ),
                )
                .in_fn(Some(&fun.name)),
            );
        }

        for u in &f.unsafe_sites {
            let needs_comment = match u.kind {
                UnsafeKind::Block => !u.inside_unsafe_fn,
                UnsafeKind::Impl | UnsafeKind::Trait => true,
                UnsafeKind::Fn => false, // handled via FnItem above
            };
            if !needs_comment
                || f.line_or_block_above_contains(u.line, "SAFETY:")
                || f.allowed_inline("R4", u.line)
            {
                continue;
            }
            let what = match u.kind {
                UnsafeKind::Block => match u.enclosing_fn.as_deref() {
                    Some(name) => format!("unsafe block in `{name}`"),
                    None => "unsafe block".to_string(),
                },
                UnsafeKind::Impl => format!(
                    "unsafe impl{}",
                    u.name
                        .as_deref()
                        .map(|n| format!(" `{n}`"))
                        .unwrap_or_default()
                ),
                UnsafeKind::Trait => format!(
                    "unsafe trait{}",
                    u.name
                        .as_deref()
                        .map(|n| format!(" `{n}`"))
                        .unwrap_or_default()
                ),
                UnsafeKind::Fn => unreachable!(),
            };
            out.push(
                Diagnostic::new(
                    &f.rel_path,
                    u.line,
                    "R4",
                    format!("{what} has no adjacent `// SAFETY:` comment"),
                )
                .in_fn(u.enclosing_fn.as_deref()),
            );
        }
    }
    out
}
