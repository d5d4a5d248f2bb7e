//! Diagnostics: one machine-readable line per finding.

use std::fmt;

/// A single lint finding. Renders as `file:line: rule-id: message` —
/// stable, greppable, and editor-clickable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    pub line: u32,
    /// Rule id, e.g. `R2`.
    pub rule: &'static str,
    pub message: String,
    /// Enclosing function, when known (used for allowlist matching).
    pub context_fn: Option<String>,
}

impl Diagnostic {
    pub fn new(
        file: &str,
        line: u32,
        rule: &'static str,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            file: file.to_string(),
            line,
            rule,
            message: message.into(),
            context_fn: None,
        }
    }

    pub fn in_fn(mut self, f: Option<&str>) -> Diagnostic {
        self.context_fn = f.map(|s| s.to_string());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Sorts diagnostics for stable output: by file, then line, then rule.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
}

/// Output format for the CLI (`--format`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// `file:line: rule-id: message` — the editor-clickable default.
    #[default]
    Text,
    /// GitHub workflow commands (`::error file=…,line=…::…`) so findings
    /// surface inline on PR diffs.
    Github,
}

impl Format {
    /// Parses a `--format` argument value.
    pub fn parse(s: &str) -> Option<Format> {
        match s {
            "text" => Some(Format::Text),
            "github" => Some(Format::Github),
            _ => None,
        }
    }
}

/// Renders `diags` in `format` to a string (no trailing newline).
pub fn render(diags: &[Diagnostic], format: Format) -> String {
    match format {
        Format::Text => diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n"),
        Format::Github => diags
            .iter()
            .map(|d| {
                // Workflow-command data: escape %, CR, LF per the spec.
                let msg = format!("{}: {}", d.rule, d.message)
                    .replace('%', "%25")
                    .replace('\r', "%0D")
                    .replace('\n', "%0A");
                format!(
                    "::error file={},line={},title=nowa-lint {}::{}",
                    d.file, d.line, d.rule, msg
                )
            })
            .collect::<Vec<_>>()
            .join("\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_formats() {
        let d = vec![
            Diagnostic::new("a/b.rs", 3, "R6", "needs \"quotes\" escaped").in_fn(Some("push")),
            Diagnostic::new("c.rs", 9, "R8", "plain"),
        ];
        assert_eq!(
            render(&d, Format::Text),
            "a/b.rs:3: R6: needs \"quotes\" escaped\nc.rs:9: R8: plain"
        );
        let gh = render(&d, Format::Github);
        assert!(
            gh.contains("::error file=a/b.rs,line=3,title=nowa-lint R6::R6:"),
            "{gh}"
        );
        assert_eq!(render(&[], Format::Text), "");
    }
}
