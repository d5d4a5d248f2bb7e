//! A lightweight item/scope model over the token stream.
//!
//! One linear scan with a scope stack recovers everything the rules need:
//! which function encloses each line, which code is `#[cfg(test)]`, where
//! the `unsafe` sites are, where `Ordering::X` is mentioned, which struct
//! and enum types a file defines, and which lines carry lint markers.
//! It is deliberately *not* a full parser — the input already compiles
//! under `rustc`, so the model only has to be right about the shapes that
//! actually occur (and the fixture tests pin those).

use crate::lexer::{lex, Token, TokenKind};

/// Atomic `Ordering` variants — used to tell `sync::atomic::Ordering::X`
/// apart from `cmp::Ordering::Less` and friends.
const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// A `Ordering::<variant>` mention in code.
#[derive(Debug, Clone)]
pub struct OrderingSite {
    pub line: u32,
    pub variant: String,
    /// Innermost enclosing function, if any.
    pub enclosing_fn: Option<String>,
    pub in_test: bool,
}

/// A direct `std::sync::atomic` / `core::sync::atomic` /
/// `std::sync::{Mutex,RwLock,Condvar}` reference (import or inline path).
#[derive(Debug, Clone)]
pub struct AtomicPathSite {
    pub line: u32,
    /// The offending path prefix, e.g. `std::sync::atomic`.
    pub path: String,
    pub in_test: bool,
}

/// Kind of an `unsafe` site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafeKind {
    Block,
    Fn,
    Impl,
    Trait,
}

/// An `unsafe` block, fn, impl or trait.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    pub line: u32,
    pub kind: UnsafeKind,
    /// Name, for fns/impls/traits.
    pub name: Option<String>,
    /// For blocks: the innermost enclosing fn, if any.
    pub enclosing_fn: Option<String>,
    /// For blocks: true when lexically inside an `unsafe fn`'s body.
    pub inside_unsafe_fn: bool,
    pub in_test: bool,
}

/// How a call site is written at the call position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `ident(…)` with no receiver or path qualifier.
    Bare,
    /// `.ident(…)` (including `.ident::<T>(…)` turbofish).
    Method,
    /// `a::b::ident(…)` qualified path call.
    Path,
}

/// One call site inside a fn body. `callee` is the text as written
/// (`grow`, `lock`, `crate::task::block_on`); resolution to a workspace
/// fn happens later, in `callgraph`.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub line: u32,
    pub callee: String,
    pub kind: CallKind,
    /// Index into [`FileModel::fns`] of the innermost enclosing fn.
    pub enclosing_fn: Option<usize>,
}

impl CallSite {
    /// The final path segment — the name resolution keys on.
    pub fn name(&self) -> &str {
        self.callee.rsplit("::").next().unwrap_or(&self.callee)
    }
}

/// Kind of a potentially-unbounded loop (`for` is exempt: it is bounded
/// by its iterator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    Loop,
    While,
}

/// A `loop`/`while` site. Unless sanctioned by `// lint: bounded(…)` on
/// the line or in the comment block above, effect inference treats it as
/// an unbounded retry loop.
#[derive(Debug, Clone)]
pub struct LoopSite {
    pub line: u32,
    pub kind: LoopKind,
    pub enclosing_fn: Option<usize>,
    pub bounded: bool,
}

/// A parsed function.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Inclusive body line span; `None` for bodyless signatures.
    pub body: Option<(u32, u32)>,
    /// Header from the parameter list to the body (or `;`), tokens joined
    /// by single spaces.
    pub sig: String,
    pub is_unsafe: bool,
    pub in_test: bool,
    /// `// lint: wait-free` marker (R6): the fn claims to complete in a
    /// bounded number of steps without allocating — transitively
    /// allocation/lock/park/retry-free.
    pub wait_free: bool,
    /// `// lint: wait-free private` marker: the fn additionally claims to
    /// touch no shared atomic at all (§6g owner-private fast path).
    pub wait_free_private: bool,
    /// `async fn` qualifier (an R8 root).
    pub is_async: bool,
    /// `// lint: async-context` marker: the fn runs on the async surface
    /// (reactor/timer callback) even though it is not `async fn` (R8 root).
    pub async_context: bool,
    /// `/// # Safety` doc section or adjacent `// SAFETY:` comment.
    pub has_safety_comment: bool,
    /// Attributes attached to the fn (full bracket text, spaces stripped).
    pub attrs: Vec<String>,
    /// Attributes inherited from enclosing `mod` scopes (e.g. a module-wide
    /// `#[allow(clippy::missing_safety_doc)]`).
    pub scope_attrs: Vec<String>,
}

/// Kind of a module-level type definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    Struct,
    Enum,
}

/// A struct or enum defined at module-item position: the type names a
/// file defines (the callgraph gates type-qualified calls on them).
#[derive(Debug, Clone)]
pub struct Item {
    pub kind: ItemKind,
    pub name: String,
}

/// The per-file model all rules consume.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative path, as printed in diagnostics.
    pub rel_path: String,
    /// Raw source lines (0-indexed storage; line N is `lines[N-1]`).
    pub lines: Vec<String>,
    pub fns: Vec<FnItem>,
    pub items: Vec<Item>,
    pub unsafe_sites: Vec<UnsafeSite>,
    pub ordering_sites: Vec<OrderingSite>,
    pub atomic_paths: Vec<AtomicPathSite>,
    /// Call sites inside fn bodies (callgraph input).
    pub calls: Vec<CallSite>,
    /// `loop`/`while` sites inside fn bodies (effect-inference input).
    pub loops: Vec<LoopSite>,
    /// File-level inner attributes (`#![…]`, spaces stripped).
    pub inner_attrs: Vec<String>,
}

#[derive(Debug, Clone)]
enum Scope {
    Mod {
        is_test: bool,
        attrs: Vec<String>,
    },
    Fn {
        index: usize,
        is_unsafe: bool,
        is_test: bool,
    },
    Impl,
    Other,
}

impl FileModel {
    /// Parses `src`, labeling diagnostics with `rel_path`.
    pub fn parse(rel_path: &str, src: &str) -> FileModel {
        let tokens = lex(src);
        let lines: Vec<String> = src.lines().map(|l| l.to_string()).collect();
        let mut m = FileModel {
            rel_path: rel_path.to_string(),
            lines,
            fns: Vec::new(),
            items: Vec::new(),
            unsafe_sites: Vec::new(),
            ordering_sites: Vec::new(),
            atomic_paths: Vec::new(),
            calls: Vec::new(),
            loops: Vec::new(),
            inner_attrs: Vec::new(),
        };
        m.scan(&tokens);
        m.extract_calls_and_loops(&tokens);
        m
    }

    /// Is any part of the scope stack test-only?
    fn stack_in_test(stack: &[Scope]) -> bool {
        stack.iter().any(|s| match s {
            Scope::Mod { is_test, .. } => *is_test,
            Scope::Fn { is_test, .. } => *is_test,
            Scope::Impl | Scope::Other => false,
        })
    }

    fn innermost_fn(stack: &[Scope], fns: &[FnItem]) -> Option<String> {
        stack.iter().rev().find_map(|s| match s {
            Scope::Fn { index, .. } => Some(fns[*index].name.clone()),
            _ => None,
        })
    }

    fn inside_unsafe_fn(stack: &[Scope]) -> bool {
        stack
            .iter()
            .rev()
            .find_map(|s| match s {
                Scope::Fn { is_unsafe, .. } => Some(*is_unsafe),
                _ => None,
            })
            .unwrap_or(false)
    }

    /// Attributes inherited from enclosing `mod` scopes, outermost first.
    fn inherited_attrs(stack: &[Scope]) -> Vec<String> {
        stack
            .iter()
            .flat_map(|s| match s {
                Scope::Mod { attrs, .. } => attrs.clone(),
                _ => Vec::new(),
            })
            .collect()
    }

    /// True when the scanner sits at module-item position: every enclosing
    /// scope is a `mod` (so impl methods, trait members and statements in
    /// fn bodies are not mistaken for module items).
    fn item_position(stack: &[Scope]) -> bool {
        stack.iter().all(|s| matches!(s, Scope::Mod { .. }))
    }

    fn scan(&mut self, tokens: &[Token]) {
        // Indices of non-comment tokens; comments are consulted by line.
        let nc: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        let tok = |p: usize| -> Option<&Token> { nc.get(p).map(|&i| &tokens[i]) };
        let text = |p: usize| -> &str { tok(p).map(|t| t.text.as_str()).unwrap_or("") };

        let mut stack: Vec<Scope> = Vec::new();
        // Scope kind to assign to the next `{`.
        let mut pending: Option<Scope> = None;
        // Attributes accumulated since the last item/statement boundary.
        let mut pending_attrs: Vec<String> = Vec::new();

        let mut p = 0usize;
        while p < nc.len() {
            let t = tok(p).unwrap();
            match (t.kind, t.text.as_str()) {
                (TokenKind::Punct, "#") => {
                    // #[…] or #![…]: consume the balanced bracket group.
                    let mut q = p + 1;
                    let inner = text(q) == "!";
                    if inner {
                        q += 1;
                    }
                    if text(q) == "[" {
                        let mut depth = 0usize;
                        let start = q;
                        while q < nc.len() {
                            match text(q) {
                                "[" => depth += 1,
                                "]" => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            q += 1;
                        }
                        let attr: String = (start..=q.min(nc.len().saturating_sub(1)))
                            .map(text)
                            .collect::<Vec<_>>()
                            .concat();
                        if inner {
                            self.inner_attrs.push(attr);
                        } else {
                            pending_attrs.push(attr);
                        }
                        p = q + 1;
                        continue;
                    }
                    p += 1;
                }
                (TokenKind::Ident, "macro_rules") => {
                    // macro_rules! name { … } — skip the whole definition;
                    // its body is token soup, not items.
                    let mut q = p;
                    while q < nc.len() && text(q) != "{" {
                        q += 1;
                    }
                    let mut depth = 0usize;
                    while q < nc.len() {
                        match text(q) {
                            "{" => depth += 1,
                            "}" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        q += 1;
                    }
                    pending_attrs.clear();
                    p = q + 1;
                }
                (TokenKind::Ident, "mod") => {
                    let is_test = pending_attrs.iter().any(|a| a.contains("cfg(test)"))
                        || Self::stack_in_test(&stack);
                    if text(p + 2) == "{" {
                        pending = Some(Scope::Mod {
                            is_test,
                            attrs: pending_attrs.clone(),
                        });
                        p += 2; // land on `{`, handled below
                    } else {
                        p += 3; // `mod name;`
                    }
                    pending_attrs.clear();
                }
                (TokenKind::Ident, "use") => {
                    // Consume to `;`, recording any shim-bypassing path
                    // mention.
                    let mut q = p + 1;
                    let mut joined = String::new();
                    while q < nc.len() && text(q) != ";" {
                        joined.push_str(text(q));
                        q += 1;
                    }
                    self.record_atomic_paths(&joined, t.line, Self::stack_in_test(&stack));
                    pending_attrs.clear();
                    p = q + 1;
                }
                (TokenKind::Ident, "fn")
                    if tok(p + 1).map(|t| t.kind) == Some(TokenKind::Ident) =>
                {
                    let (item, body_open) = self.parse_fn(tokens, &nc, p, &stack, &pending_attrs);
                    let is_unsafe = item.is_unsafe;
                    let is_test = item.in_test;
                    self.fns.push(item);
                    let index = self.fns.len() - 1;
                    pending_attrs.clear();
                    match body_open {
                        Some(open_p) => {
                            pending = Some(Scope::Fn {
                                index,
                                is_unsafe,
                                is_test,
                            });
                            p = open_p; // land on `{`
                        }
                        None => {
                            // Signature only (trait method): already past `;`.
                            p = self.after_fn_header(&nc, tokens, p);
                        }
                    }
                }
                (
                    TokenKind::Ident,
                    kw @ ("struct" | "enum" | "trait" | "union" | "type" | "static" | "const"),
                ) if tok(p + 1).map(|t| t.kind) == Some(TokenKind::Ident)
                    && text(p + 1) != "fn" =>
                {
                    let kind = match kw {
                        "struct" => Some(ItemKind::Struct),
                        "enum" => Some(ItemKind::Enum),
                        _ => None,
                    };
                    if let Some(kind) = kind.filter(|_| Self::item_position(&stack)) {
                        self.items.push(Item {
                            kind,
                            name: text(p + 1).to_string(),
                        });
                    }
                    pending_attrs.clear();
                    p += 1;
                }
                (TokenKind::Ident, "impl") if Self::item_position(&stack) => {
                    // The next `{` opens the impl body: its methods are not
                    // module items.
                    pending = Some(Scope::Impl);
                    p += 1;
                }
                (TokenKind::Ident, "unsafe") => {
                    let next = text(p + 1);
                    if next == "{" {
                        self.unsafe_sites.push(UnsafeSite {
                            line: t.line,
                            kind: UnsafeKind::Block,
                            name: None,
                            enclosing_fn: Self::innermost_fn(&stack, &self.fns),
                            inside_unsafe_fn: Self::inside_unsafe_fn(&stack),
                            in_test: Self::stack_in_test(&stack),
                        });
                    } else if next == "impl" {
                        let name = (p + 2..p + 8)
                            .map(text)
                            .find(|s| {
                                !s.is_empty()
                                    && s.chars()
                                        .next()
                                        .is_some_and(|c| c.is_alphabetic() || c == '_')
                                    && !matches!(*s, "impl" | "for" | "unsafe")
                            })
                            .map(|s| s.to_string());
                        self.unsafe_sites.push(UnsafeSite {
                            line: t.line,
                            kind: UnsafeKind::Impl,
                            name,
                            enclosing_fn: None,
                            inside_unsafe_fn: false,
                            in_test: Self::stack_in_test(&stack),
                        });
                    } else if next == "trait" {
                        self.unsafe_sites.push(UnsafeSite {
                            line: t.line,
                            kind: UnsafeKind::Trait,
                            name: Some(text(p + 2).to_string()),
                            enclosing_fn: None,
                            inside_unsafe_fn: false,
                            in_test: Self::stack_in_test(&stack),
                        });
                    }
                    // `unsafe fn` / `unsafe extern "C" fn` are recorded when
                    // the scan reaches the `fn` token itself.
                    p += 1;
                }
                (TokenKind::Ident, "Ordering") if text(p + 1) == ":" && text(p + 2) == ":" => {
                    let variant = text(p + 3).to_string();
                    if ATOMIC_ORDERINGS.contains(&variant.as_str()) {
                        self.ordering_sites.push(OrderingSite {
                            line: t.line,
                            variant,
                            enclosing_fn: Self::innermost_fn(&stack, &self.fns),
                            in_test: Self::stack_in_test(&stack),
                        });
                    }
                    p += 4;
                }
                (TokenKind::Ident, root @ ("std" | "core")) if text(p + 1) == ":" => {
                    // Inline qualified paths: std::sync::atomic::…,
                    // std::sync::Mutex::… (imports are caught in `use`).
                    let span: String = (p..p + 9).map(text).collect::<Vec<_>>().concat();
                    let in_test = Self::stack_in_test(&stack);
                    if span.starts_with(&format!("{root}::sync::atomic")) {
                        self.atomic_paths.push(AtomicPathSite {
                            line: t.line,
                            path: format!("{root}::sync::atomic"),
                            in_test,
                        });
                    } else {
                        for prim in ["Mutex", "RwLock", "Condvar"] {
                            if span.starts_with(&format!("{root}::sync::{prim}")) {
                                self.atomic_paths.push(AtomicPathSite {
                                    line: t.line,
                                    path: format!("{root}::sync::{prim}"),
                                    in_test,
                                });
                            }
                        }
                    }
                    p += 1;
                }
                (TokenKind::Punct, "{") => {
                    stack.push(pending.take().unwrap_or(Scope::Other));
                    p += 1;
                }
                (TokenKind::Punct, "}") => {
                    if let Some(Scope::Fn { index, .. }) = stack.last() {
                        let end = t.line;
                        let fnd = &mut self.fns[*index];
                        if let Some((start, _)) = fnd.body {
                            fnd.body = Some((start, end));
                        }
                    }
                    stack.pop();
                    p += 1;
                }
                (TokenKind::Punct, ";") => {
                    pending_attrs.clear();
                    p += 1;
                }
                _ => p += 1,
            }
        }
    }

    /// Records shim-bypassing prefixes found in a flattened `use` path.
    fn record_atomic_paths(&mut self, joined: &str, line: u32, in_test: bool) {
        for root in ["std", "core"] {
            let atomic = format!("{root}::sync::atomic");
            if joined.contains(&atomic) {
                self.atomic_paths.push(AtomicPathSite {
                    line,
                    path: atomic,
                    in_test,
                });
            }
            for prim in ["Mutex", "RwLock", "Condvar"] {
                let path = format!("{root}::sync::{prim}");
                // Match both `use std::sync::Mutex` and `use std::sync::{Mutex, …}`.
                let braced_root = format!("{root}::sync::{{");
                let hit = joined.contains(&path)
                    || (joined.contains(&braced_root)
                        && joined.split_once(&braced_root).is_some_and(|(_, rest)| {
                            rest.split('}')
                                .next()
                                .is_some_and(|inner| inner.split(',').any(|n| n.trim() == prim))
                        }));
                if hit {
                    self.atomic_paths.push(AtomicPathSite {
                        line,
                        path,
                        in_test,
                    });
                }
            }
        }
    }

    /// Parses a fn header at non-comment position `p` (the `fn` token).
    /// Returns the item plus the nc-position of the body `{`, if any.
    fn parse_fn(
        &self,
        tokens: &[Token],
        nc: &[usize],
        p: usize,
        stack: &[Scope],
        pending_attrs: &[String],
    ) -> (FnItem, Option<usize>) {
        let txt = |q: usize| -> &str { nc.get(q).map(|&i| tokens[i].text.as_str()).unwrap_or("") };
        let line_of = |q: usize| -> u32 { nc.get(q).map(|&i| tokens[i].line).unwrap_or(0) };
        let name = txt(p + 1).to_string();
        let fn_line = line_of(p);

        // Backward walk for qualifiers.
        let (mut is_unsafe, mut is_async) = (false, false);
        let mut q = p;
        while q > 0 {
            q -= 1;
            match txt(q) {
                "unsafe" => is_unsafe = true,
                "async" => is_async = true,
                "const" | "extern" => {}
                s if s.starts_with('"') => {}
                _ => break,
            }
        }

        // Forward scan: skip generics to the parameter list, then take the
        // header up to the body `{` or the `;` of a bodyless fn.
        let mut q = p + 2;
        let mut angle: i32 = 0;
        while q < nc.len() {
            match txt(q) {
                "<" => angle += 1,
                ">" if txt(q.wrapping_sub(1)) != "-" => angle -= 1,
                "(" if angle <= 0 => break,
                _ => {}
            }
            q += 1;
        }
        let mut sig: Vec<&str> = Vec::new();
        let mut depth = 0i32;
        let mut body_open = None;
        while q < nc.len() {
            match txt(q) {
                "(" => depth += 1,
                ")" => depth -= 1,
                "{" if depth == 0 => {
                    body_open = Some(q);
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            sig.push(txt(q));
            q += 1;
        }

        let in_test = Self::stack_in_test(stack)
            || pending_attrs
                .iter()
                .any(|a| a == "[test]" || a.contains("[test]"));
        // Markers live in the comment block directly above the fn (doc
        // comments, line comments and attribute lines form one block).
        let block = self.comment_block_above(fn_line);
        let marked = |m: &str| block.iter().any(|l| l.contains(m));
        let body = body_open.map(|b| (line_of(b), line_of(b))); // end patched at `}`

        (
            FnItem {
                name,
                line: fn_line,
                body,
                sig: sig.join(" "),
                is_unsafe,
                in_test,
                wait_free: marked("lint: wait-free"),
                wait_free_private: marked("lint: wait-free private"),
                is_async,
                async_context: marked("lint: async-context"),
                has_safety_comment: marked("SAFETY:") || marked("# Safety"),
                attrs: pending_attrs.to_vec(),
                scope_attrs: Self::inherited_attrs(stack),
            },
            body_open,
        )
    }

    /// nc-position just past a bodyless fn header's `;`.
    fn after_fn_header(&self, nc: &[usize], tokens: &[Token], p: usize) -> usize {
        let txt = |q: usize| -> &str { nc.get(q).map(|&i| tokens[i].text.as_str()).unwrap_or("") };
        let mut q = p;
        let mut depth = 0i32;
        while q < nc.len() {
            match txt(q) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ";" if depth == 0 => return q + 1,
                "{" => return q, // default body; let the main loop handle it
                _ => {}
            }
            q += 1;
        }
        q
    }

    /// Innermost fn whose body span contains `line` (fns never share a
    /// line, and nesting is rare enough that smallest-span wins).
    pub fn enclosing_fn_index(&self, line: u32) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.body.is_some_and(|(s, e)| s <= line && line <= e))
            .min_by_key(|(_, f)| f.body.map(|(s, e)| e - s).unwrap_or(u32::MAX))
            .map(|(i, _)| i)
    }

    /// Second token pass: call sites and loop sites. Runs after `scan` so
    /// fn body spans are known (the enclosing fn is found by line).
    fn extract_calls_and_loops(&mut self, tokens: &[Token]) {
        let nc: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
        let text = |i: usize| -> &str { nc.get(i).map(|t| t.text.as_str()).unwrap_or("") };
        let kind = |i: usize| -> Option<TokenKind> { nc.get(i).map(|t| t.kind) };

        let mut i = 0usize;
        while i < nc.len() {
            let t = nc[i];
            // An attribute (`#[cfg(not(feature = "x"))]` on a statement) is
            // not code: skip to its closing bracket, or `cfg(`/`not(` read
            // as unresolvable bare calls.
            if t.text == "#" && text(i + 1) == "[" {
                let mut depth = 0i32;
                i += 1;
                while i < nc.len() {
                    match text(i) {
                        "[" => depth += 1,
                        "]" => depth -= 1,
                        _ => {}
                    }
                    i += 1;
                    if depth == 0 {
                        break;
                    }
                }
                continue;
            }
            if t.kind != TokenKind::Ident {
                i += 1;
                continue;
            }
            match t.text.as_str() {
                "loop" | "while" => {
                    self.loops.push(LoopSite {
                        line: t.line,
                        kind: if t.text == "loop" {
                            LoopKind::Loop
                        } else {
                            LoopKind::While
                        },
                        enclosing_fn: self.enclosing_fn_index(t.line),
                        bounded: self.line_or_block_above_contains(t.line, "lint: bounded("),
                    });
                    i += 1;
                    continue;
                }
                kw if is_keyword(kw) => {
                    i += 1;
                    continue;
                }
                _ => {}
            }

            // A call needs `(` right after the name, optionally with a
            // `::<…>` turbofish in between.
            let mut j = i + 1;
            if text(j) == ":" && text(j + 1) == ":" && text(j + 2) == "<" {
                let mut depth = 0i32;
                let mut k = j + 2;
                let mut steps = 0;
                while k < nc.len() && steps < 64 {
                    match text(k) {
                        "<" => depth += 1,
                        ">" if text(k.wrapping_sub(1)) != "-" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                    steps += 1;
                }
                j = k + 1;
            }
            if text(j) != "(" {
                i += 1;
                continue;
            }
            // Definitions (`fn name(`) are not calls.
            if i > 0 && text(i - 1) == "fn" {
                i += 1;
                continue;
            }

            let (callee, ckind) = if i > 0 && text(i - 1) == "." {
                (t.text.clone(), CallKind::Method)
            } else if i >= 2 && text(i - 1) == ":" && text(i - 2) == ":" {
                // Walk the path back: `seg :: seg :: name(`.
                let mut segs = vec![t.text.clone()];
                let mut pos = i;
                while pos >= 3
                    && text(pos - 1) == ":"
                    && text(pos - 2) == ":"
                    && kind(pos - 3) == Some(TokenKind::Ident)
                {
                    segs.push(text(pos - 3).to_string());
                    pos -= 3;
                }
                segs.reverse();
                (segs.join("::"), CallKind::Path)
            } else {
                (t.text.clone(), CallKind::Bare)
            };

            // Uppercase-initial names at the call position are tuple-struct
            // or enum-variant constructors (`Some(…)`, `Poll::Ready(…)`),
            // not calls the effect analysis cares about.
            let ctor = t.text.chars().next().is_some_and(|c| c.is_uppercase());
            if !ctor {
                self.calls.push(CallSite {
                    line: t.line,
                    callee,
                    kind: ckind,
                    enclosing_fn: self.enclosing_fn_index(t.line),
                });
            }
            i += 1;
        }
    }

    /// The contiguous run of comment/attribute lines directly above `line`
    /// (1-based), top-down order.
    pub fn comment_block_above(&self, line: u32) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            let Some(raw) = self.lines.get((l - 1) as usize) else {
                break;
            };
            let t = raw.trim_start();
            if t.starts_with("//")
                || t.starts_with("#[")
                || t.starts_with("#!")
                || t.starts_with("*")
                || t.starts_with("/*")
            {
                out.push(t);
                l -= 1;
            } else {
                break;
            }
        }
        out.reverse();
        out
    }

    /// True if `line` (1-based) itself, or the comment block directly above
    /// it, contains `needle`.
    pub fn line_or_block_above_contains(&self, line: u32, needle: &str) -> bool {
        if let Some(raw) = self.lines.get((line - 1) as usize) {
            if let Some(pos) = raw.find("//") {
                if raw[pos..].contains(needle) {
                    return true;
                }
            }
        }
        self.comment_block_above(line)
            .iter()
            .any(|l| l.contains(needle))
    }

    /// Inline suppression: `// lint: allow(Rn[, …])` on the line or in the
    /// comment block directly above it.
    pub fn allowed_inline(&self, rule: &str, line: u32) -> bool {
        let check = |s: &str| -> bool {
            s.find("lint: allow(").is_some_and(|i| {
                s[i..]
                    .split_once('(')
                    .and_then(|(_, rest)| rest.split_once(')'))
                    .is_some_and(|(inner, _)| {
                        inner
                            .split(',')
                            .any(|r| r.trim().eq_ignore_ascii_case(rule))
                    })
            })
        };
        if let Some(raw) = self.lines.get((line - 1) as usize) {
            if let Some(pos) = raw.find("//") {
                if check(&raw[pos..]) {
                    return true;
                }
            }
        }
        self.comment_block_above(line).iter().any(|l| check(l))
    }

    /// All fn names (lowercased) defined in this file.
    pub fn fn_names_lower(&self) -> std::collections::HashSet<String> {
        self.fns.iter().map(|f| f.name.to_lowercase()).collect()
    }

    /// Non-test `Ordering::` sites inside the named fn (case-insensitive).
    pub fn ordering_sites_in_fn(&self, fn_name_lower: &str) -> usize {
        self.ordering_sites
            .iter()
            .filter(|s| {
                !s.in_test
                    && s.enclosing_fn
                        .as_deref()
                        .is_some_and(|f| f.to_lowercase() == fn_name_lower)
            })
            .count()
    }
}

/// Keywords (and primitive-ish idents) that can precede `(` without being
/// a call: `match (a, b)`, `if (…)`, `return (…)`, `Fn(…)` bounds, etc.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "while"
            | "loop"
            | "for"
            | "in"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "fn"
            | "pub"
            | "use"
            | "mod"
            | "impl"
            | "trait"
            | "struct"
            | "enum"
            | "union"
            | "type"
            | "const"
            | "static"
            | "unsafe"
            | "extern"
            | "crate"
            | "super"
            | "self"
            | "Self"
            | "as"
            | "dyn"
            | "where"
            | "async"
            | "await"
            | "yield"
            | "box"
            | "true"
            | "false"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
use core::sync::atomic::{AtomicU64, Ordering};

pub struct S { x: u64 }

impl S {
    /// Docs.
    // lint: wait-free
    #[inline]
    pub fn load_it(&self) -> u64 {
        self.inner.load(Ordering::Acquire)
    }

    // lint: wait-free private
    #[inline]
    pub fn owner_bump(&mut self) -> u64 {
        self.x += 1;
        self.x
    }

    /// # Safety
    /// Caller must hold the lock.
    pub unsafe fn dangerous(&self, p: *mut u64) {
        unsafe { *p = 1 };
    }
}

pub fn free_standing(x: u64) -> u64 {
    // SAFETY: x is valid by construction.
    let y = unsafe { core::mem::transmute::<u64, u64>(x) };
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn t() {
        let _ = Ordering::SeqCst;
    }
}
"#;

    #[test]
    fn model_basics() {
        let m = FileModel::parse("fixture.rs", SRC);
        assert!(m
            .atomic_paths
            .iter()
            .any(|a| a.path == "core::sync::atomic"));
        assert!(m
            .items
            .iter()
            .any(|i| i.kind == ItemKind::Struct && i.name == "S"));
        let load = m.fns.iter().find(|f| f.name == "load_it").unwrap();
        assert!(load.wait_free);
        assert!(!load.wait_free_private);
        assert!(!load.in_test);
        assert!(load.sig.contains("self") && load.sig.contains("u64"));
        let bump = m.fns.iter().find(|f| f.name == "owner_bump").unwrap();
        assert!(bump.wait_free, "`wait-free private` implies wait-free");
        assert!(bump.wait_free_private);
        let dang = m.fns.iter().find(|f| f.name == "dangerous").unwrap();
        assert!(dang.is_unsafe);
        assert!(dang.has_safety_comment);
        let sites: Vec<_> = m.ordering_sites.iter().filter(|s| !s.in_test).collect();
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].enclosing_fn.as_deref(), Some("load_it"));
        let test_sites: Vec<_> = m.ordering_sites.iter().filter(|s| s.in_test).collect();
        assert_eq!(test_sites.len(), 1);
        // unsafe block inside documented unsafe fn + one in a safe fn
        assert_eq!(m.unsafe_sites.len(), 2);
        let in_safe = m
            .unsafe_sites
            .iter()
            .find(|u| u.enclosing_fn.as_deref() == Some("free_standing"))
            .unwrap();
        assert!(!in_safe.inside_unsafe_fn);
        assert!(m.line_or_block_above_contains(in_safe.line, "SAFETY:"));
    }
}
