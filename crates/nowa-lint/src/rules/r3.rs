//! R3 — cfg-twin parity.
//!
//! A cfg-twinned file ships two arms of the same module — one compiled
//! normally, one under a cfg (`loom`, `feature = "trace"`, …) — and the
//! whole zero-cost pattern rests on the arms being drop-in replacements.
//! This rule checks, per cfg key that appears with both polarities:
//!
//! * every public name one arm exports, the other exports too;
//! * when both arms define a fn of the same name, the normalized
//!   signatures match (parameter names may differ, types may not).
//!
//! Two shapes are understood uniformly: mod-twins (`#[cfg(X)] mod imp`
//! next to `#[cfg(not(X))] mod imp`, as in `chaos.rs` — items
//! inherit their mod's cfg) and direct item twins (cfg on the items
//! themselves, as in the `sync.rs` shims). One asymmetry is sanctioned:
//! a cfg-gated `pub use imp::{…}` that elevates *extra* API out of a twin
//! mod (the `chaos` feature's inspection surface) — rooted in the twin,
//! the extra names demonstrably exist only by the twin author's explicit
//! choice, not by accident.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::Diagnostic;
use crate::parse::{FileModel, Item, ItemKind};
use crate::rules::TWIN_FILES;
use crate::Workspace;

pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in &ws.files {
        if TWIN_FILES.iter().any(|m| f.rel_path.ends_with(m)) {
            check_file(f, &mut out);
        }
    }
    out
}

/// `[cfg(loom)]` → `("loom", true)`; `[cfg(not(loom))]` → `("loom", false)`.
fn cfg_key(attr: &str) -> Option<(String, bool)> {
    let inner = attr.strip_prefix("[cfg(")?.strip_suffix(")]")?;
    match inner.strip_prefix("not(").and_then(|s| s.strip_suffix(')')) {
        Some(k) => Some((k.to_string(), false)),
        None => Some((inner.to_string(), true)),
    }
}

/// The item's polarity w.r.t. `key`: `Some(true)` in the positive arm,
/// `Some(false)` in the negative, `None` if shared.
fn polarity(item: &Item, key: &str) -> Option<bool> {
    item.cfgs
        .iter()
        .find_map(|c| cfg_key(c).filter(|(k, _)| k == key).map(|(_, p)| p))
}

fn check_file(f: &FileModel, out: &mut Vec<Diagnostic>) {
    // Keys that occur with both polarities form twin pairs.
    let mut pos_keys: BTreeSet<String> = BTreeSet::new();
    let mut neg_keys: BTreeSet<String> = BTreeSet::new();
    for item in &f.items {
        for c in &item.cfgs {
            if let Some((k, pol)) = cfg_key(c) {
                if pol {
                    pos_keys.insert(k)
                } else {
                    neg_keys.insert(k)
                };
            }
        }
    }

    for key in pos_keys.intersection(&neg_keys) {
        // Mod names twinned under this key.
        let twin_mods: BTreeSet<&str> = f
            .items
            .iter()
            .filter(|i| i.kind == ItemKind::Mod && polarity(i, key) == Some(true))
            .flat_map(|i| i.names.iter())
            .filter(|n| {
                f.items.iter().any(|j| {
                    j.kind == ItemKind::Mod
                        && polarity(j, key) == Some(false)
                        && j.names.contains(n)
                })
            })
            .map(|n| n.as_str())
            .collect();

        // Sanctioned elevations: cfg-gated re-exports rooted in a twin mod.
        let roots_in_twin = |item: &Item| -> bool {
            item.kind == ItemKind::Use
                && item.use_path.as_deref().is_some_and(|p| {
                    let p = p.strip_prefix("self::").unwrap_or(p);
                    twin_mods.contains(p.split(':').next().unwrap_or(""))
                })
        };
        let elevated: BTreeSet<(bool, &str)> = f
            .items
            .iter()
            .filter(|i| roots_in_twin(i))
            .filter_map(|i| polarity(i, key).map(|pol| (i, pol)))
            .flat_map(|(i, pol)| i.names.iter().map(move |n| (pol, n.as_str())))
            .collect();

        // Arm surfaces, grouped by module path.
        type Surface<'a> = BTreeMap<String, &'a Item>;
        let mut groups: BTreeMap<&[String], (Surface, Surface)> = BTreeMap::new();
        for item in &f.items {
            if !item.vis.starts_with("pub") {
                continue;
            }
            let Some(pol) = polarity(item, key) else {
                continue;
            };
            if roots_in_twin(item) {
                continue;
            }
            let entry = groups.entry(&item.mod_path).or_default();
            let side = if pol { &mut entry.0 } else { &mut entry.1 };
            for n in item.names.iter().filter(|n| n.as_str() != "*") {
                side.insert(n.clone(), item);
            }
        }

        for (pos, neg) in groups.values() {
            let one_sided = [(pos, neg, true), (neg, pos, false)];
            for (have, lack, pol) in one_sided {
                for (n, item) in have.iter() {
                    if lack.contains_key(n)
                        || elevated.contains(&(pol, n.as_str()))
                        || f.allowed_inline("R3", item.line)
                    {
                        continue;
                    }
                    let (this, other) = if pol {
                        (format!("cfg({key})"), format!("cfg(not({key}))"))
                    } else {
                        (format!("cfg(not({key}))"), format!("cfg({key})"))
                    };
                    out.push(Diagnostic::new(
                        &f.rel_path,
                        item.line,
                        "R3",
                        format!(
                            "`{n}` is exported only under {this} — the {other} twin \
                             arm must export it too (or elevate it explicitly from \
                             the twin mod)"
                        ),
                    ));
                }
            }
            for (n, pi) in pos {
                let Some(ni) = neg.get(n) else { continue };
                let (Some(pf), Some(nf)) = (pi.fn_index, ni.fn_index) else {
                    continue;
                };
                let (ps, ns) = (&f.fns[pf].sig, &f.fns[nf].sig);
                if ps != ns && !f.allowed_inline("R3", pi.line) {
                    out.push(Diagnostic::new(
                        &f.rel_path,
                        pi.line,
                        "R3",
                        format!(
                            "fn `{n}` differs between cfg({key}) arms: \
                             `{ps}` vs `{ns}`"
                        ),
                    ));
                }
            }
        }
    }
}
