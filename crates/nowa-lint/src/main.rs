//! CLI entry point: `cargo run -p nowa-lint [-- --root <dir>]`.
//!
//! Exit status: 0 clean, 1 findings, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use nowa_lint::diag::{render, Format};
use nowa_lint::{allow::Allowlist, run_lint, Workspace};

const ALLOWLIST_NAME: &str = "nowa-lint.allow";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--format" => {
                let val = args.next().unwrap_or_default();
                match Format::parse(&val) {
                    Some(f) => format = f,
                    None => {
                        eprintln!("nowa-lint: unknown format `{val}` (want text or github)");
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => {
                println!(
                    "nowa-lint: project-specific concurrency lints (see DESIGN.md §7c)\n\
                     \n\
                     usage: nowa-lint [--root <workspace-dir>] [--format text|github]\n\
                     \n\
                     Walks crates/*/src and examples/, parses the DESIGN.md §7b audit\n\
                     and the {ALLOWLIST_NAME} suppression file, and prints one\n\
                     finding per line: `file:line: rule-id: message` (text) or an\n\
                     `::error` workflow annotation (github)."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("nowa-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root.or_else(find_root) {
        Some(r) => r,
        None => {
            eprintln!(
                "nowa-lint: no workspace root found (looked for DESIGN.md + crates/ \
                 upward from the current directory; pass --root)"
            );
            return ExitCode::from(2);
        }
    };

    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!(
                "nowa-lint: failed to read workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };

    let allowlist = match std::fs::read_to_string(root.join(ALLOWLIST_NAME)) {
        Ok(text) => Allowlist::parse(ALLOWLIST_NAME, &text),
        Err(_) => Allowlist::default(),
    };

    let diags = run_lint(&ws, &allowlist);
    let rendered = render(&diags, format);
    if !rendered.is_empty() {
        println!("{rendered}");
    }
    if diags.is_empty() {
        eprintln!(
            "nowa-lint: clean — {} files, {} audit rows, {} allowlist entries",
            ws.files.len(),
            ws.audit.entries.len(),
            allowlist.entries.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("nowa-lint: {} finding(s)", diags.len());
        ExitCode::FAILURE
    }
}

/// Walks upward from the current directory to the workspace root.
fn find_root() -> Option<PathBuf> {
    let mut d = std::env::current_dir().ok()?;
    loop {
        if d.join("DESIGN.md").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        if !d.pop() {
            return None;
        }
    }
}
