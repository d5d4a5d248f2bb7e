//! The explicit allowlist: `nowa-lint.allow` at the workspace root.
//!
//! One suppression per line, pipe-separated:
//!
//! ```text
//! <rule> | <file-suffix> | <fn or *> | <message-needle or *> | <reason>
//! ```
//!
//! The reason is mandatory — an allowlist entry is a documented decision,
//! not an escape hatch. Blank lines and `#` comments are ignored. A
//! diagnostic is suppressed when the rule matches, the diagnostic's file
//! path ends with `<file-suffix>`, the enclosing fn equals `<fn>` (or `*`),
//! and the message contains `<message-needle>` (or `*`).

use crate::diag::Diagnostic;

/// One parsed allowlist entry.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub rule: String,
    pub file_suffix: String,
    pub fn_name: String,
    pub needle: String,
    pub reason: String,
    /// Line in the allowlist file (for unused-entry reporting).
    pub line: u32,
}

/// The parsed allowlist plus any parse errors (reported as diagnostics
/// against the allowlist file itself).
#[derive(Debug, Default)]
pub struct Allowlist {
    pub entries: Vec<AllowEntry>,
    pub errors: Vec<Diagnostic>,
    /// Path the list was loaded from (workspace-relative), for messages.
    pub rel_path: String,
}

impl Allowlist {
    /// Parses allowlist text. `rel_path` labels parse errors.
    pub fn parse(rel_path: &str, text: &str) -> Allowlist {
        let mut list = Allowlist {
            rel_path: rel_path.to_string(),
            ..Allowlist::default()
        };
        for (i, raw) in text.lines().enumerate() {
            let line = (i + 1) as u32;
            let l = raw.trim();
            if l.is_empty() || l.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = l.split('|').map(|f| f.trim()).collect();
            if fields.len() != 5 {
                list.errors.push(Diagnostic::new(
                    rel_path,
                    line,
                    "ALLOW",
                    format!(
                        "malformed allowlist entry (want `rule | file | fn | needle | reason`, got {} fields)",
                        fields.len()
                    ),
                ));
                continue;
            }
            if fields[4].is_empty() {
                list.errors.push(Diagnostic::new(
                    rel_path,
                    line,
                    "ALLOW",
                    "allowlist entry has an empty reason — document why the suppression is sound",
                ));
                continue;
            }
            list.entries.push(AllowEntry {
                rule: fields[0].to_string(),
                file_suffix: fields[1].to_string(),
                fn_name: fields[2].to_string(),
                needle: fields[3].to_string(),
                reason: fields[4].to_string(),
                line,
            });
        }
        list
    }

    /// Does any entry suppress `d`? Returns the entry index for
    /// used-entry accounting.
    pub fn suppresses(&self, d: &Diagnostic) -> Option<usize> {
        self.entries.iter().position(|e| {
            e.rule == d.rule
                && d.file.ends_with(&e.file_suffix)
                && (e.fn_name == "*" || d.context_fn.as_deref() == Some(e.fn_name.as_str()))
                && (e.needle == "*" || d.message.contains(&e.needle))
        })
    }

    /// Filters `diags` through the list; returns surviving diagnostics and
    /// appends an `ALLOW` diagnostic per entry that suppressed nothing
    /// (stale suppressions are drift too).
    pub fn apply(&self, diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
        let mut used = vec![false; self.entries.len()];
        let mut out: Vec<Diagnostic> = Vec::new();
        for d in diags {
            match self.suppresses(&d) {
                Some(i) => used[i] = true,
                None => out.push(d),
            }
        }
        for (i, e) in self.entries.iter().enumerate() {
            if !used[i] {
                out.push(Diagnostic::new(
                    &self.rel_path,
                    e.line,
                    "ALLOW",
                    format!(
                        "stale allowlist entry ({} {} {} {}): it suppresses nothing — remove it",
                        e.rule, e.file_suffix, e.fn_name, e.needle
                    ),
                ));
            }
        }
        out.extend(self.errors.iter().cloned());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_match_and_stale() {
        let list = Allowlist::parse(
            "nowa-lint.allow",
            "# comment\n\nR6 | src/the.rs | push | .lock( | THE locks by design\nR6 | src/gone.rs | * | * | stale\n",
        );
        assert_eq!(list.entries.len(), 2);
        let hit = Diagnostic::new("crates/d/src/the.rs", 10, "R6", "calls .lock( in hot path")
            .in_fn(Some("push"));
        let miss = Diagnostic::new("crates/d/src/the.rs", 11, "R6", "calls .lock( in hot path")
            .in_fn(Some("steal"));
        let out = list.apply(vec![hit, miss.clone()]);
        // miss survives; the gone.rs entry is stale.
        assert!(out.iter().any(|d| d == &miss));
        assert!(out
            .iter()
            .any(|d| d.rule == "ALLOW" && d.message.contains("stale")));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn malformed_and_empty_reason() {
        let list = Allowlist::parse("a", "R1 | f.rs | x\nR1 | f.rs | * | * |  ");
        assert_eq!(list.entries.len(), 0);
        assert_eq!(list.errors.len(), 2);
    }
}
