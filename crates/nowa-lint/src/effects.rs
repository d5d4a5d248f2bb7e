//! Transitive effect inference over the call graph.
//!
//! Each fn gets a small bitset of effects, seeded from *leaf facts* and
//! propagated to a fixpoint along resolved call edges (a monotone union,
//! so cycles — recursion, mutual recursion — converge). Three kinds of
//! leaf fact:
//!
//! * **definition-name seeds** — fns that *are* a primitive by name
//!   (`futex_wait`, `capture_and_run_on`, the `lock` shim): their bodies
//!   are raw syscalls/asm the needles cannot see;
//! * **textual needles** on body lines (`Box::new`, `.lock(`,
//!   `thread::sleep`, `epoll_wait`, …) — a textual fallback, applied
//!   only where name resolution did not already claim the call (a
//!   resolved `self.push(item)` is not `Vec::push`);
//! * **structural facts** — `loop`/`while` without a `// lint:
//!   bounded(…)` annotation is an unbounded retry loop; an unresolved
//!   *bare* call with an unknown name is an [`UNKNOWN_CALL`] (R8 treats
//!   it as worst-case; R6 and R7 claim nothing from it). A bare call to one
//!   of the enclosing fn's own *parameters* (`a(…)` inside
//!   `join2(a, b)`) is exempt: that is a closure invocation, and closure
//!   bodies are attributed to the fn that defines them — the effects
//!   already flow through the closure's definition site.
//!
//! Diagnostics want provenance, not just a verdict, so [`Effects::chain`]
//! reconstructs a shortest witness path from any fn to a seed of the
//! offending effect.

use std::collections::{HashMap, VecDeque};

use crate::callgraph::{CallGraph, FnId};
use crate::Workspace;

pub type EffectSet = u8;

/// Heap allocation (`Box::new`, `Vec::push`, `format!`, …).
pub const ALLOCATES: EffectSet = 1 << 0;
/// Mutex/RwLock acquisition.
pub const LOCKS: EffectSet = 1 << 1;
/// Parks the thread (futex/condvar/epoll wait).
pub const PARKS: EffectSet = 1 << 2;
/// Blocking syscall or unbounded OS-level wait (`thread::sleep`,
/// `JoinHandle::join`, channel `recv`, stdout locking prints).
pub const BLOCKS_SYSCALL: EffectSet = 1 << 3;
/// May suspend the current continuation (`sync` join miss, `block_on`,
/// `checkpoint` unwind, reactor park).
pub const SUSPENDS: EffectSet = 1 << 4;
/// Contains a `loop`/`while` not sanctioned by `// lint: bounded(…)`.
pub const UNBOUNDED_LOOP: EffectSet = 1 << 5;
/// Calls a bare fn the graph cannot resolve and no needle recognises.
pub const UNKNOWN_CALL: EffectSet = 1 << 6;

/// Human label for the highest set bit in `bits` (diagnostic text).
pub fn describe(bits: EffectSet) -> &'static str {
    if bits & LOCKS != 0 {
        "acquires a lock"
    } else if bits & PARKS != 0 {
        "parks the thread"
    } else if bits & BLOCKS_SYSCALL != 0 {
        "blocks in a syscall"
    } else if bits & SUSPENDS != 0 {
        "suspends the continuation"
    } else if bits & UNBOUNDED_LOOP != 0 {
        "runs an unbounded retry loop"
    } else if bits & ALLOCATES != 0 {
        "allocates"
    } else if bits & UNKNOWN_CALL != 0 {
        "calls an unresolvable fn"
    } else {
        "has no tracked effect"
    }
}

/// One leaf fact attached to a fn.
#[derive(Debug, Clone)]
pub struct Seed {
    pub bits: EffectSet,
    pub line: u32,
    /// What was seen, for diagnostics: `` `.lock(` ``, `` unbounded `loop` ``.
    pub what: String,
}

/// A textual leaf fact: substring → effect bits.
struct NeedleFact {
    needle: &'static str,
    bits: EffectSet,
}

const NEEDLE_FACTS: &[NeedleFact] = &[
    // Allocation.
    NeedleFact {
        needle: "Box::new",
        bits: ALLOCATES,
    },
    NeedleFact {
        needle: "vec!",
        bits: ALLOCATES,
    },
    NeedleFact {
        needle: "Vec::new",
        bits: ALLOCATES,
    },
    NeedleFact {
        needle: "Vec::with_capacity",
        bits: ALLOCATES,
    },
    NeedleFact {
        needle: ".push(",
        bits: ALLOCATES,
    },
    NeedleFact {
        needle: "String::new",
        bits: ALLOCATES,
    },
    NeedleFact {
        needle: "String::from",
        bits: ALLOCATES,
    },
    NeedleFact {
        needle: ".to_string(",
        bits: ALLOCATES,
    },
    NeedleFact {
        needle: ".to_owned(",
        bits: ALLOCATES,
    },
    NeedleFact {
        needle: "format!",
        bits: ALLOCATES,
    },
    NeedleFact {
        needle: "HashMap::new",
        bits: ALLOCATES,
    },
    NeedleFact {
        needle: "BTreeMap::new",
        bits: ALLOCATES,
    },
    NeedleFact {
        needle: "Arc::new",
        bits: ALLOCATES,
    },
    // Locks.
    NeedleFact {
        needle: ".lock(",
        bits: LOCKS,
    },
    // Parking.
    NeedleFact {
        needle: ".wait(",
        bits: PARKS,
    },
    NeedleFact {
        needle: ".park(",
        bits: PARKS,
    },
    NeedleFact {
        needle: "futex_wait",
        bits: PARKS | BLOCKS_SYSCALL,
    },
    NeedleFact {
        needle: "epoll_wait",
        bits: PARKS | BLOCKS_SYSCALL,
    },
    // Blocking syscalls / OS-level waits (stdout prints lock + write).
    NeedleFact {
        needle: "thread::sleep",
        bits: BLOCKS_SYSCALL,
    },
    NeedleFact {
        needle: ".join(",
        bits: BLOCKS_SYSCALL,
    },
    NeedleFact {
        needle: ".recv(",
        bits: BLOCKS_SYSCALL,
    },
    NeedleFact {
        needle: "println!",
        bits: BLOCKS_SYSCALL,
    },
    NeedleFact {
        needle: "eprintln!",
        bits: BLOCKS_SYSCALL,
    },
    NeedleFact {
        needle: "print!(",
        bits: BLOCKS_SYSCALL,
    },
    NeedleFact {
        needle: "eprint!(",
        bits: BLOCKS_SYSCALL,
    },
    // Suspension points (§IV-B join miss, async surface, cancellation).
    NeedleFact {
        needle: "block_on(",
        bits: SUSPENDS,
    },
    NeedleFact {
        needle: "checkpoint(",
        bits: SUSPENDS,
    },
    NeedleFact {
        needle: "checkpoint_ambient(",
        bits: SUSPENDS,
    },
    NeedleFact {
        needle: "sync_suspend",
        bits: SUSPENDS,
    },
    NeedleFact {
        needle: "capture_and_run_on",
        bits: SUSPENDS,
    },
];

/// Fns that *are* effect primitives, by definition name: their bodies are
/// raw syscalls, asm, or self-resolving shim wrappers the needles miss.
const DEF_SEEDS: &[(&str, EffectSet)] = &[
    ("futex_wait", PARKS | BLOCKS_SYSCALL),
    ("lock", LOCKS),
    ("wait", PARKS),
    ("capture_and_run_on", SUSPENDS),
    ("block_on", SUSPENDS),
    ("block_on_worker", SUSPENDS),
    ("block_on_thread", SUSPENDS | BLOCKS_SYSCALL),
    ("checkpoint", SUSPENDS),
    ("checkpoint_ambient", SUSPENDS),
];

/// Computed effects for the whole workspace, plus the graph they came
/// from (rules use both).
pub struct Effects {
    pub graph: CallGraph,
    eff: HashMap<FnId, EffectSet>,
    seeds: HashMap<FnId, Vec<Seed>>,
}

/// A witness path from a fn to a seed of some effect.
pub struct Chain {
    /// Line *in the starting fn* a diagnostic should anchor to: the seed
    /// line when the fact is local, else the first call edge's line.
    pub line: u32,
    /// Name of the first callee on the path (`None` when the fact is
    /// local to the starting fn).
    pub callee: Option<String>,
    /// Rendered provenance, e.g. `` push → grow: `.lock(` at
    /// crates/nowa-deque/src/cl.rs:201 ``.
    pub text: String,
}

/// First SUSPENDS needle matching `code`, if any (R7's textual fallback
/// for unresolved calls).
pub fn suspend_needle(code: &str) -> Option<&'static str> {
    NEEDLE_FACTS
        .iter()
        .find(|f| f.bits & SUSPENDS != 0 && code.contains(f.needle))
        .map(|f| f.needle)
}

impl Effects {
    /// Transitive effect set of `f` (0 when unknown to the model).
    pub fn of(&self, f: FnId) -> EffectSet {
        self.eff.get(&f).copied().unwrap_or(0)
    }

    /// Leaf facts attached directly to `f`.
    pub fn seeds_of(&self, f: FnId) -> &[Seed] {
        self.seeds.get(&f).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Shortest witness from `from` to a seed overlapping `bits`. Returns
    /// `None` when `from` does not transitively carry `bits`.
    pub fn chain(&self, ws: &Workspace, from: FnId, bits: EffectSet) -> Option<Chain> {
        let local = |f: FnId| self.seeds_of(f).iter().find(|s| s.bits & bits != 0);

        // BFS over resolved edges, parent-tracking for reconstruction.
        let mut prev: HashMap<FnId, (FnId, u32)> = HashMap::new();
        let mut queue = VecDeque::from([from]);
        let mut seed_at: Option<FnId> = None;
        if local(from).is_some() {
            seed_at = Some(from);
        }
        while seed_at.is_none() {
            let Some(cur) = queue.pop_front() else {
                break;
            };
            for e in self.graph.edges_of(cur) {
                if e.callee == from || prev.contains_key(&e.callee) {
                    continue;
                }
                // Only descend where the effect actually lives.
                if self.of(e.callee) & bits == 0 {
                    continue;
                }
                prev.insert(e.callee, (cur, e.line));
                if local(e.callee).is_some() {
                    seed_at = Some(e.callee);
                    break;
                }
                queue.push_back(e.callee);
            }
        }

        let seed_fn = seed_at?;
        let seed = local(seed_fn)?.clone();
        let mut path: Vec<FnId> = vec![seed_fn];
        let mut cur = seed_fn;
        while let Some((p, _)) = prev.get(&cur) {
            path.push(*p);
            cur = *p;
        }
        path.reverse(); // from → … → seed_fn

        let name = |f: FnId| ws.files[f.0].fns[f.1].name.clone();
        let file_of = |f: FnId| ws.files[f.0].rel_path.clone();
        let line = if path.len() == 1 {
            seed.line
        } else {
            prev.get(&path[1]).map(|(_, l)| *l).unwrap_or(seed.line)
        };
        let text = if path.len() == 1 {
            format!("{} at line {}", seed.what, seed.line)
        } else {
            format!(
                "via {} ({} at {}:{})",
                path.iter()
                    .map(|&f| name(f))
                    .collect::<Vec<_>>()
                    .join(" → "),
                seed.what,
                file_of(seed_fn),
                seed.line
            )
        };
        let callee = path.get(1).map(|&f| name(f));
        Some(Chain { line, callee, text })
    }
}

/// Is `name` declared as a parameter of `f`? Checked against the raw
/// declaration lines — the normalized sig drops parameter names. A bare
/// call to a parameter is a closure invocation, not an unknown callee:
/// the closure's own effects are attributed to its defining fn.
fn is_param(lines: &[String], f: &crate::parse::FnItem, name: &str) -> bool {
    let header_end = f.body.map(|(start, _)| start).unwrap_or(f.line);
    for ln in f.line..=header_end {
        let Some(raw) = lines.get((ln - 1) as usize) else {
            break;
        };
        let bytes = raw.as_bytes();
        let mut from = 0;
        while let Some(pos) = raw[from..].find(name) {
            let at = from + pos;
            let after = at + name.len();
            let boundary_before = at == 0 || {
                let c = bytes[at - 1] as char;
                !c.is_ascii_alphanumeric() && c != '_'
            };
            let rest = raw[after..].trim_start();
            if boundary_before && rest.starts_with(':') && !rest.starts_with("::") {
                return true;
            }
            from = after;
        }
    }
    false
}

/// Seeds every fn and propagates to a fixpoint.
pub fn compute(ws: &Workspace, graph: CallGraph) -> Effects {
    let needle_names: Vec<&str> = NEEDLE_FACTS
        .iter()
        .map(|f| f.needle.trim_start_matches('.').trim_end_matches('('))
        .chain(DEF_SEEDS.iter().map(|(n, _)| *n))
        .collect();

    let mut seeds: HashMap<FnId, Vec<Seed>> = HashMap::new();
    for (fi, file) in ws.files.iter().enumerate() {
        for (ni, f) in file.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            let id: FnId = (fi, ni);
            let mut v: Vec<Seed> = Vec::new();

            if let Some((_, bits)) = DEF_SEEDS.iter().find(|(n, _)| *n == f.name) {
                v.push(Seed {
                    bits: *bits,
                    line: f.line,
                    what: format!("`fn {}` is an effect primitive by name", f.name),
                });
            }

            if let Some((start, end)) = f.body {
                for line in start..=end {
                    let Some(raw) = file.lines.get((line - 1) as usize) else {
                        break;
                    };
                    let code = raw.split("//").next().unwrap_or("");
                    for fact in NEEDLE_FACTS {
                        if !code.contains(fact.needle) {
                            continue;
                        }
                        // Resolution beats the textual fallback for
                        // method-shaped needles: `self.push(item)` that
                        // resolved to a workspace fn is not `Vec::push`.
                        if fact.needle.starts_with('.') {
                            let nm = fact.needle.trim_start_matches('.').trim_end_matches('(');
                            if graph.resolved_on_line(id, line, nm) {
                                continue;
                            }
                        }
                        v.push(Seed {
                            bits: fact.bits,
                            line,
                            what: format!("`{}`", fact.needle),
                        });
                    }
                }
            }

            for lp in file.loops.iter().filter(|l| l.enclosing_fn == Some(ni)) {
                if !lp.bounded {
                    v.push(Seed {
                        bits: UNBOUNDED_LOOP,
                        line: lp.line,
                        what: "unbounded `loop`/`while` (no `lint: bounded(…)`)".to_string(),
                    });
                }
            }

            for call in graph.unresolved_of(id) {
                if call.kind == crate::parse::CallKind::Bare
                    && !needle_names.contains(&call.name())
                    && !is_param(&file.lines, f, call.name())
                {
                    v.push(Seed {
                        bits: UNKNOWN_CALL,
                        line: call.line,
                        what: format!("unresolved call `{}(…)`", call.callee),
                    });
                }
            }

            if !v.is_empty() {
                seeds.insert(id, v);
            }
        }
    }

    // Monotone fixpoint: union callee effects into callers until stable.
    let mut eff: HashMap<FnId, EffectSet> = seeds
        .iter()
        .map(|(id, v)| (*id, v.iter().fold(0, |a, s| a | s.bits)))
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for (caller, edges) in &graph.edges {
            let mut bits = eff.get(caller).copied().unwrap_or(0);
            let before = bits;
            for e in edges {
                bits |= eff.get(&e.callee).copied().unwrap_or(0);
            }
            if bits != before {
                eff.insert(*caller, bits);
                changed = true;
            }
        }
    }

    Effects { graph, eff, seeds }
}
