//! Parser for the DESIGN.md §7b memory-ordering audit tables.
//!
//! The audit appendix is the contract R1 enforces. Its machine-readable
//! structure:
//!
//! * `### Audit table — `crate`` headings set the crate context.
//! * Bold module headers (`**`cl.rs` (…)**`) set the file context; a
//!   header may name several files (`**`nowa.rs` / `record.rs` (…)**`),
//!   in which case rows anchor into any of them.
//! * Each table row's Site cell *leads* with one or more backticked fn
//!   anchors separated by `/` or `,` — `` `pop` `` or
//!   `` `wake_one`/`wake_scan` `` — followed by free-text describing the
//!   site. `Type::method` anchors bind to the method name; a trailing
//!   `()` is stripped; a trailing `*` is a prefix glob; `(all sites)`
//!   blankets the whole file.
//!
//! Fenced code blocks inside §7b are skipped.

use crate::diag::Diagnostic;

/// One audit-table row, resolved to (crate, files, fn anchors).
#[derive(Debug, Clone)]
pub struct AuditEntry {
    /// Crate the enclosing `### Audit table — …` names, e.g. `nowa-deque`.
    pub crate_name: String,
    /// File names from the enclosing bold header, e.g. `["cl.rs"]`.
    pub files: Vec<String>,
    /// Lowercased fn anchors (last `::` segment, `()` stripped; may end
    /// in `*` for a prefix glob).
    pub anchors: Vec<String>,
    /// Row said `(all sites)`: every site in the file(s) is covered.
    pub blanket: bool,
    /// Line of the row in the audit document.
    pub line: u32,
    /// Raw Site cell text, for messages.
    pub site_text: String,
}

/// The parsed audit plus structural errors (rows the parser cannot
/// anchor are themselves drift).
#[derive(Debug, Default)]
pub struct Audit {
    pub entries: Vec<AuditEntry>,
    pub errors: Vec<Diagnostic>,
    pub rel_path: String,
}

impl AuditEntry {
    /// Does this entry's (crate, file) pair cover the source file at
    /// workspace-relative `rel_path`?
    pub fn covers_path(&self, rel_path: &str) -> bool {
        let p = rel_path.replace('\\', "/");
        p.contains(&format!("/{}/", self.crate_name))
            && self
                .files
                .iter()
                .any(|f| p.ends_with(&format!("/{f}")) || p == *f)
    }

    /// Does any anchor of this row match the (lowercased) fn name?
    pub fn anchors_fn(&self, fn_name_lower: &str) -> bool {
        self.anchors
            .iter()
            .any(|a| anchor_matches(a, fn_name_lower))
    }
}

/// Glob-aware anchor match (`wake_*` matches `wake_one`).
pub fn anchor_matches(anchor: &str, fn_name_lower: &str) -> bool {
    match anchor.strip_suffix('*') {
        Some(prefix) => fn_name_lower.starts_with(prefix),
        None => anchor == fn_name_lower,
    }
}

/// Parses the §7b appendix out of `text` (the whole DESIGN.md).
pub fn parse(rel_path: &str, text: &str) -> Audit {
    let mut audit = Audit {
        rel_path: rel_path.to_string(),
        ..Audit::default()
    };
    let mut in_7b = false;
    let mut in_fence = false;
    let mut crate_name: Option<String> = None;
    let mut files: Vec<String> = Vec::new();

    for (i, raw) in text.lines().enumerate() {
        let line_no = (i + 1) as u32;
        let l = raw.trim();

        if l.starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        if l.starts_with("## ") && !l.starts_with("## 7b") {
            if in_7b {
                break; // end of the appendix
            }
            continue;
        }
        if l.starts_with("## 7b") {
            in_7b = true;
            continue;
        }
        if !in_7b {
            continue;
        }

        if let Some(rest) = l.strip_prefix("### Audit table") {
            crate_name = backticked(rest).into_iter().next();
            files.clear();
            if crate_name.is_none() {
                audit.errors.push(Diagnostic::new(
                    rel_path,
                    line_no,
                    "R1",
                    "audit-table heading names no crate (expected `### Audit table — \\`crate\\``)",
                ));
            }
            continue;
        }

        if l.starts_with("**") {
            // Module header: collect every backticked `*.rs` name. A bold
            // line without one ends the file context (prose emphasis).
            let rs: Vec<String> = backticked(l)
                .into_iter()
                .filter(|n| n.ends_with(".rs"))
                .collect();
            files = rs;
            continue;
        }

        if l.starts_with('|') {
            let cells: Vec<&str> = l.trim_matches('|').split('|').map(|c| c.trim()).collect();
            let site = match cells.first() {
                Some(s) if !s.is_empty() => *s,
                _ => continue,
            };
            if site == "Site" || site.chars().all(|c| "-: ".contains(c)) {
                continue; // header or separator row
            }
            let blanket = site.contains("(all sites)");
            let anchors = if blanket {
                Vec::new()
            } else {
                leading_anchors(site)
            };
            let (Some(krate), false) = (crate_name.clone(), files.is_empty()) else {
                audit.errors.push(Diagnostic::new(
                    rel_path,
                    line_no,
                    "R1",
                    format!(
                        "audit row `{site}` is not anchored to a crate/file \
                         (no `**\\`file.rs\\`**` header above it)"
                    ),
                ));
                continue;
            };
            if anchors.is_empty() && !blanket {
                audit.errors.push(Diagnostic::new(
                    rel_path,
                    line_no,
                    "R1",
                    format!(
                        "audit row `{site}` has no leading backticked fn anchor \
                         (write `\\`fn_name\\` …` or `(all sites)`)"
                    ),
                ));
                continue;
            }
            audit.entries.push(AuditEntry {
                crate_name: krate,
                files: files.clone(),
                anchors,
                blanket,
                line: line_no,
                site_text: site.to_string(),
            });
        }
    }

    if !in_7b {
        audit.errors.push(Diagnostic::new(
            rel_path,
            1,
            "R1",
            "no `## 7b` memory-ordering audit appendix found",
        ));
    }
    audit
}

/// All backtick-delimited spans in `s`, in order.
fn backticked(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = s;
    while let Some(start) = rest.find('`') {
        let after = &rest[start + 1..];
        let Some(end) = after.find('`') else { break };
        out.push(after[..end].to_string());
        rest = &after[end + 1..];
    }
    out
}

/// The leading fn anchors of a Site cell: backticked names at the start,
/// chained by `/` or `,`. Stops at the first plain word — in
/// `` `pop` `bottom` load `` only `pop` anchors (space-adjacent backticks
/// are site detail, not extra fns).
fn leading_anchors(cell: &str) -> Vec<String> {
    let mut anchors = Vec::new();
    let mut rest = cell.trim_start();
    while let Some(tail) = rest.strip_prefix('`') {
        let Some(end) = tail.find('`') else { break };
        anchors.push(normalize_anchor(&tail[..end]));
        rest = tail[end + 1..].trim_start();
        match rest.strip_prefix('/').or_else(|| rest.strip_prefix(',')) {
            Some(next) => rest = next.trim_start(),
            None => break,
        }
    }
    anchors
}

/// `Stealer::len` → `len`; `sleepers()` → `sleepers`; lowercased.
fn normalize_anchor(raw: &str) -> String {
    let s = raw.trim().trim_end_matches("()");
    let s = s.rsplit("::").next().unwrap_or(s);
    s.to_ascii_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "\
# Design
## 7b. Appendix
### Audit table — `nowa-deque`
```rust
| fake | row | in | fence |
```
**`cl.rs` (Chase–Lev)**

| Site | Ordering | Invariant | Model |
|---|---|---|---|
| `push` `bottom` load | Relaxed | owner | — |
| `len`/`Stealer::len` loads | Relaxed | racy | — |
| `Drop::drop` buffer load | Relaxed | exclusive | — |

**`stats.rs` / `chaos.rs` (diagnostics)**

| Site | Ordering | Invariant |
|---|---|---|
| (all sites) monotone counters | Relaxed | skew-tolerant |
| `wake_*` mask CAS | AcqRel | claim |

## 8. Next section
| `after` the end | x | y |
";

    #[test]
    fn parses_crates_files_anchors() {
        let a = parse("DESIGN.md", DOC);
        assert!(a.errors.is_empty(), "{:?}", a.errors);
        assert_eq!(a.entries.len(), 5);
        let push = &a.entries[0];
        assert_eq!(push.crate_name, "nowa-deque");
        assert_eq!(push.files, vec!["cl.rs"]);
        assert_eq!(push.anchors, vec!["push"]); // `bottom` is detail, not an anchor
        let len = &a.entries[1];
        assert_eq!(len.anchors, vec!["len", "len"]);
        let drop_row = &a.entries[2];
        assert_eq!(drop_row.anchors, vec!["drop"]);
        let blanket = &a.entries[3];
        assert!(blanket.blanket);
        assert_eq!(blanket.files, vec!["stats.rs", "chaos.rs"]);
        let glob = &a.entries[4];
        assert!(glob.anchors_fn("wake_one"));
        assert!(!glob.anchors_fn("park"));
    }

    #[test]
    fn covers_path_is_crate_scoped() {
        let a = parse("DESIGN.md", DOC);
        let push = &a.entries[0];
        assert!(push.covers_path("crates/nowa-deque/src/cl.rs"));
        assert!(!push.covers_path("crates/nowa-runtime/src/cl.rs"));
        assert!(!push.covers_path("crates/nowa-deque/src/the.rs"));
    }

    #[test]
    fn unanchored_rows_are_errors() {
        let doc = "## 7b. X\n### Audit table — `c`\n| `f` load | Relaxed | x |\n";
        let a = parse("D.md", doc);
        assert_eq!(a.entries.len(), 0);
        assert!(a.errors.iter().any(|e| e.message.contains("not anchored")));
    }

    #[test]
    fn missing_appendix_is_an_error() {
        let a = parse("D.md", "# nothing here\n");
        assert!(a.errors.iter().any(|e| e.message.contains("no `## 7b`")));
    }
}
