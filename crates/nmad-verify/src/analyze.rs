//! The unified structural rule engine behind `xtask analyze`.
//!
//! One pass per file — [`crate::lexer::lex`] then
//! [`crate::tree::parse_items`] — feeds two layers:
//!
//! 1. The seven lexical rules from [`crate::lint`], re-run over the
//!    lexer's stripped view (one stripping pass, one engine).
//! 2. Five structural families over a name-based intra-workspace call
//!    graph rooted at `// HOT-PATH`-annotated functions:
//!    * `hot-panic-freedom` — no `unwrap`/`expect`/panic macros
//!      reachable from a hot root, and no slice indexing without `get`
//!      directly inside a hot-marked function; `// PANIC-OK: <reason>`
//!      (reason mandatory) is the escape hatch.
//!    * `hot-alloc` — no `Vec::`/`Box::new`/`vec!`/`format!`/
//!      `to_vec`/`to_owned`/`to_string`/`clone` directly inside a
//!      hot-marked function unless `// ALLOC-OK: <reason>`.
//!    * `hot-blocking` — no `thread::sleep`/`park`/`join`/condvar
//!      waits/OS-clock reads reachable from a hot root unless
//!      `// BLOCKING-OK: <reason>`; the sync facade and the shims are
//!      the allowed implementation sites.
//!    * `lock-order-cycle` — per-function Mutex acquisition nesting,
//!      propagated through the call graph (a lock held across a call
//!      orders before every lock the callee transitively takes), must
//!      form an acyclic global lock-order graph.
//!    * `atomic-ordering-audit` — `Ordering::Relaxed` outside the sync
//!      facades needs `// ORDERING: <reason>`, and a
//!      `store(_, Ordering::Release)` on a field with no
//!      Acquire/SeqCst read of the same field anywhere is flagged.
//!
//! ## Approximations (deliberate)
//!
//! The call graph is name-based, with three resolution tiers:
//! qualified calls (`Type::f(..)`, `Self` mapped to the caller's impl
//! type) edge only to that impl's `f`, falling back to free functions
//! for module-qualified paths; bare free calls (`f(..)`) edge only to
//! free functions — so `drop(x)` never reaches `Drop` impls and
//! `Vec::new()` never reaches a constructor; method calls (`x.push(..)`)
//! edge to *every* in-scope function named `push`, because the receiver
//! type is unknown and trait dispatch through `Driver` is real. That
//! still over-approximates reachability — safe for the panic/blocking
//! rules (false positives are silenced with a justified annotation,
//! never false negatives within the name scheme) — and merges
//! same-named locks/fields across types, so propagated self-edges in
//! the lock graph are dropped (direct self-nesting inside one function
//! is kept) and lock-order propagation follows only calls that resolve
//! to exactly one function — an ambiguous `push` edge to dozens of
//! unrelated targets would manufacture cycles with no escape hatch. Allocation and
//! indexing checks are direct-only in hot-marked functions: transitive
//! closure over `clone`/indexing would indict the whole workspace; the
//! hot scopes are where the per-message cost lives. Test functions,
//! test modules, benches, examples, and the verification crate itself
//! are outside the graph.

use crate::lexer::{lex, Lexed, Tok, TokKind};
use crate::lint::{self, Violation};
use crate::tree::{is_call, parse_items, FnItem};
use std::collections::{BTreeMap, BTreeSet};

/// One structural rule family.
pub struct Rule {
    pub name: &'static str,
    pub description: &'static str,
}

/// The five structural families layered on the call graph.
pub static STRUCTURAL_RULES: &[Rule] = &[
    Rule {
        name: "hot-panic-freedom",
        description: "no unwrap/expect/panic!/assert!/unreachable! reachable from a \
                      // HOT-PATH root, and no slice indexing without get directly in \
                      a hot function, unless // PANIC-OK: <reason>",
    },
    Rule {
        name: "hot-alloc",
        description: "no Vec::/Box::new/vec!/format!/to_vec/to_owned/to_string/clone \
                      directly inside a // HOT-PATH function unless // ALLOC-OK: <reason>",
    },
    Rule {
        name: "hot-blocking",
        description: "no thread::sleep/park/join/condvar waits/Instant::now/\
                      SystemTime::now reachable from a // HOT-PATH root unless \
                      // BLOCKING-OK: <reason> (sync facade and shims are the \
                      implementation sites)",
    },
    Rule {
        name: "lock-order-cycle",
        description: "Mutex acquisition nesting per function, propagated through the \
                      call graph, must form an acyclic global lock-order graph",
    },
    Rule {
        name: "atomic-ordering-audit",
        description: "Ordering::Relaxed outside the sync facades needs // ORDERING: \
                      <reason>; a Release store on a field with no Acquire/SeqCst \
                      read of that field anywhere is flagged",
    },
];

/// The full 12-rule catalog: the 7 lexical rules plus the 5 structural
/// families, in evaluation order.
pub fn rule_catalog() -> Vec<(&'static str, &'static str)> {
    lint::RULES
        .iter()
        .map(|r| (r.name, r.description))
        .chain(STRUCTURAL_RULES.iter().map(|r| (r.name, r.description)))
        .collect()
}

/// Marker comments. `HOT-PATH` is presence-only; the rest demand a
/// nonempty reason after the colon.
const HOT_MARKER: &str = "HOT-PATH";
const PANIC_OK: &str = "PANIC-OK:";
const ALLOC_OK: &str = "ALLOC-OK:";
const BLOCKING_OK: &str = "BLOCKING-OK:";
const ORDERING_OK: &str = "ORDERING:";

/// Files whose functions join the call graph: the engine, transports,
/// simulator, and shims — not benches, tests, examples, xtask, or the
/// verification crate itself.
fn graph_scope(path: &str) -> bool {
    (path.starts_with("crates/nmad-core/src/")
        || path.starts_with("crates/nmad-net/src/")
        || path.starts_with("crates/nmad-sim/src/")
        || (path.starts_with("shims/") && path.contains("/src/")))
        && !path.contains("/bin/")
}

/// Implementation sites for blocking primitives: the facade that wraps
/// them and the shims that implement them.
fn blocking_allowed(path: &str) -> bool {
    path == "crates/nmad-core/src/sync.rs" || path.starts_with("shims/")
}

fn panic_macro(name: &str) -> bool {
    matches!(
        name,
        "panic" | "assert" | "assert_eq" | "assert_ne" | "unreachable" | "todo" | "unimplemented"
    )
}

fn blocking_call(name: &str) -> bool {
    matches!(
        name,
        "sleep" | "park" | "park_timeout" | "join" | "wait" | "wait_timeout" | "recv_timeout"
    )
}

fn atomic_rmw(name: &str) -> bool {
    name.starts_with("fetch_") || name.starts_with("compare_exchange") || name == "swap"
}

fn alloc_method(name: &str) -> bool {
    matches!(name, "to_vec" | "to_owned" | "to_string" | "clone")
}

#[derive(Clone, Debug)]
struct Site {
    line: u32,
    what: String,
}

/// One call site, as precisely as the token stream identifies it.
/// `Q::f(..)` keeps the qualifier, `.f(..)` is a method call, bare
/// `f(..)` is a free call — each resolves differently (see
/// [`analyze_files`]).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct CallRef {
    qual: Option<String>,
    name: String,
    method: bool,
}

/// Everything the rules need from one function body.
#[derive(Default)]
struct Facts {
    calls: BTreeSet<CallRef>,
    panics: Vec<Site>,
    indexes: Vec<Site>,
    allocs: Vec<Site>,
    blocking: Vec<Site>,
    relaxed: Vec<Site>,
    /// field → store site, for `.store(_, Ordering::Release)` exactly.
    release_stores: Vec<(String, Site)>,
    /// fields read with Acquire/AcqRel/SeqCst anywhere in the body.
    acquire_reads: BTreeSet<String>,
    /// held-lock → acquired-lock, with the acquisition line.
    lock_edges: Vec<(String, String, u32)>,
    /// locks acquired anywhere in this function.
    locks: BTreeSet<String>,
    /// held-lock → callee called while holding it, with the call line.
    calls_under_lock: Vec<(String, CallRef, u32)>,
}

enum HoldEnd {
    /// Let-bound guard: held until the enclosing block closes
    /// (acquisition depth recorded).
    Block(i32),
    /// Plain temporary guard (`x.lock().bump();`, `if x.lock().ok()`):
    /// held until the next `;` at acquisition depth, or until a block
    /// opens at that depth (an `if` condition's temporaries drop
    /// before the body runs), or the enclosing block closes.
    Semi(i32),
    /// `match`/`if let`/`while let` scrutinee temporary: Rust extends
    /// it to the end of the whole statement, so when the body block
    /// opens this converts to a Block hold over it.
    Scrutinee(i32),
}

struct Hold {
    name: String,
    end: HoldEnd,
}

/// Orderings mentioned in one atomic-call argument list.
#[derive(Default)]
struct OrderingArgs {
    relaxed: bool,
    acquire: bool,
    release: bool,
    acqrel: bool,
    seqcst: bool,
}

fn scan_ordering_args(toks: &[Tok], open_paren: usize) -> (OrderingArgs, usize) {
    let mut args = OrderingArgs::default();
    let mut depth = 0i32;
    let mut j = open_paren;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "Relaxed" => args.relaxed = true,
                "Acquire" => args.acquire = true,
                "Release" => args.release = true,
                "AcqRel" => args.acqrel = true,
                "SeqCst" => args.seqcst = true,
                _ => {}
            }
        }
        j += 1;
    }
    (args, j)
}

/// Extracts [`Facts`] from the body token range of one function.
fn extract_facts(toks: &[Tok], open: usize, close: usize) -> Facts {
    let mut f = Facts::default();
    let mut depth = 0i32;
    let mut holds: Vec<Hold> = Vec::new();
    let mut j = open + 1;
    while j < close {
        let t = &toks[j];
        if t.is_punct('{') {
            for h in &mut holds {
                if let HoldEnd::Scrutinee(d) = h.end {
                    if d == depth {
                        h.end = HoldEnd::Block(depth + 1);
                    }
                }
            }
            holds.retain(|h| !matches!(h.end, HoldEnd::Semi(d) if d == depth));
            depth += 1;
            j += 1;
            continue;
        }
        if t.is_punct('}') {
            depth -= 1;
            holds.retain(|h| match h.end {
                HoldEnd::Block(d) | HoldEnd::Semi(d) | HoldEnd::Scrutinee(d) => depth >= d,
            });
            j += 1;
            continue;
        }
        if t.is_punct(';') {
            holds.retain(
                |h| !matches!(h.end, HoldEnd::Semi(d) | HoldEnd::Scrutinee(d) if d == depth),
            );
            j += 1;
            continue;
        }
        if t.kind == TokKind::Ident {
            let name = t.text.as_str();
            let next_is = |c: char| toks.get(j + 1).is_some_and(|n| n.is_punct(c));

            // Macro invocation: `name!`.
            if next_is('!') {
                if panic_macro(name) {
                    f.panics.push(Site {
                        line: t.line,
                        what: format!("{name}! macro"),
                    });
                } else if name == "vec" || name == "format" {
                    f.allocs.push(Site {
                        line: t.line,
                        what: format!("{name}! macro"),
                    });
                }
                j += 2;
                continue;
            }

            // Path segment: `Name::...`.
            if next_is(':')
                && toks.get(j + 2).is_some_and(|n| n.is_punct(':'))
                && toks.get(j + 3).is_some_and(|n| n.kind == TokKind::Ident)
            {
                let seg = toks[j + 3].text.as_str();
                match (name, seg) {
                    ("Vec", _) => f.allocs.push(Site {
                        line: t.line,
                        what: format!("Vec::{seg}"),
                    }),
                    ("Box", "new") => f.allocs.push(Site {
                        line: t.line,
                        what: "Box::new".into(),
                    }),
                    ("Instant", "now") | ("SystemTime", "now") => f.blocking.push(Site {
                        line: t.line,
                        what: format!("{name}::now (OS clock)"),
                    }),
                    ("Ordering", "Relaxed") => f.relaxed.push(Site {
                        line: t.line,
                        what: "Ordering::Relaxed".into(),
                    }),
                    _ => {}
                }
                // Fall through: `seg` may itself be a call (`Vec::new()`),
                // which the generic call scan below will pick up when the
                // cursor reaches it.
            }

            // Direct slice/array indexing: `ident [`.
            if next_is('[') {
                f.indexes.push(Site {
                    line: t.line,
                    what: format!("{name}[..] indexing"),
                });
            }

            if is_call(toks, j) {
                let method = toks.get(j.wrapping_sub(1)).is_some_and(|p| p.is_punct('.'));
                let receiver = if method && j >= 2 && toks[j - 2].kind == TokKind::Ident {
                    Some(toks[j - 2].text.clone())
                } else {
                    None
                };
                let qual = if !method
                    && j >= 3
                    && toks[j - 1].is_punct(':')
                    && toks[j - 2].is_punct(':')
                    && toks[j - 3].kind == TokKind::Ident
                {
                    Some(toks[j - 3].text.clone())
                } else {
                    None
                };

                let call = CallRef {
                    qual,
                    name: name.to_string(),
                    method,
                };
                for h in &holds {
                    f.calls_under_lock
                        .push((h.name.clone(), call.clone(), t.line));
                }
                f.calls.insert(call);

                if method && matches!(name, "unwrap" | "expect") {
                    f.panics.push(Site {
                        line: t.line,
                        what: format!(".{name}()"),
                    });
                }
                if method && alloc_method(name) {
                    f.allocs.push(Site {
                        line: t.line,
                        what: format!(".{name}()"),
                    });
                }
                if blocking_call(name) {
                    f.blocking.push(Site {
                        line: t.line,
                        what: format!("{name}() blocking call"),
                    });
                }

                // Atomic accesses: receiver field + ordering args.
                if method && (matches!(name, "store" | "load") || atomic_rmw(name)) {
                    let (args, _) = scan_ordering_args(toks, j + 1);
                    if let Some(field) = &receiver {
                        if name == "store" && args.release && !args.seqcst && !args.acqrel {
                            f.release_stores.push((
                                field.clone(),
                                Site {
                                    line: t.line,
                                    what: format!("{field}.store(_, Ordering::Release)"),
                                },
                            ));
                        }
                        let reads = (name == "load" && (args.acquire || args.seqcst))
                            || (atomic_rmw(name) && (args.acquire || args.acqrel || args.seqcst));
                        if reads {
                            f.acquire_reads.insert(field.clone());
                        }
                    }
                }

                // Lock acquisition: `recv.lock(` (never `try_lock`).
                if method && name == "lock" {
                    if let Some(recv) = receiver {
                        for h in &holds {
                            f.lock_edges.push((h.name.clone(), recv.clone(), t.line));
                        }
                        f.locks.insert(recv.clone());
                        // Statement head decides the hold scope:
                        // let-bound guards outlive the statement,
                        // match/if-let scrutinees extend over the body,
                        // bare temporaries die at the next `;` or when
                        // a block opens at this depth. A `let` only
                        // binds the *guard* when the statement ends at
                        // `.lock()` — in `let t = x.lock().now();` the
                        // guard is a temporary and `t` the result.
                        let guard_bound = toks.get(j + 2).is_some_and(|n| n.is_punct(')'))
                            && toks.get(j + 3).is_some_and(|n| n.is_punct(';'));
                        let mut k = j;
                        let mut end = HoldEnd::Semi(depth);
                        while k > open {
                            k -= 1;
                            let b = &toks[k];
                            if b.is_punct(';') || b.is_punct('{') || b.is_punct('}') {
                                let head = toks.get(k + 1);
                                let second = toks.get(k + 2);
                                if head.is_some_and(|n| n.is_ident("let")) && guard_bound {
                                    end = HoldEnd::Block(depth);
                                } else if head.is_some_and(|n| n.is_ident("match"))
                                    || (head
                                        .is_some_and(|n| n.is_ident("if") || n.is_ident("while"))
                                        && second.is_some_and(|n| n.is_ident("let")))
                                {
                                    end = HoldEnd::Scrutinee(depth);
                                }
                                break;
                            }
                        }
                        holds.push(Hold { name: recv, end });
                    }
                }
            }
        }
        j += 1;
    }
    f
}

/// One analyzed function in the workspace model.
struct FnRec {
    file: usize,
    item: FnItem,
    hot: bool,
    facts: Facts,
}

struct FileCtx {
    path: String,
    raw_lines: Vec<String>,
    lexed: Lexed,
}

/// Runs the full 12-rule catalog over `files` (workspace-relative
/// path, contents). Returns violations sorted by file/line/rule.
pub fn analyze_files(files: &[(String, String)]) -> Vec<Violation> {
    let mut out: Vec<Violation> = Vec::new();
    let mut ctxs: Vec<FileCtx> = Vec::new();
    let mut fns: Vec<FnRec> = Vec::new();

    for (path, raw) in files {
        let lexed = lex(raw);
        // Layer 1: the lexical rules, over the lexer's stripped view.
        out.extend(lint::lint_stripped(path, raw, &lexed.stripped));

        if graph_scope(path) {
            let file_idx = ctxs.len();
            for item in parse_items(&lexed) {
                if item.is_test {
                    continue;
                }
                let Some((open, close)) = item.body else {
                    continue;
                };
                let hot = lexed
                    .annotation(item.line, item.attr_top, HOT_MARKER)
                    .is_some();
                let facts = extract_facts(&lexed.toks, open, close);
                fns.push(FnRec {
                    file: file_idx,
                    item,
                    hot,
                    facts,
                });
            }
            ctxs.push(FileCtx {
                path: path.clone(),
                raw_lines: raw.lines().map(str::to_string).collect(),
                lexed,
            });
        }
    }

    // Name → function indices (bare-name multimap).
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(f.item.name.as_str()).or_default().push(i);
    }

    // Resolve every call to its candidate targets. Qualified calls
    // (`Type::f`, with `Self` mapped to the caller's impl type) match
    // only that impl's `f`, falling back to free functions for
    // module-qualified paths (`wire::encode(..)`); bare free calls
    // match only free functions (so `drop(x)` never edges into `Drop`
    // impls); method calls keep the bare-name multimap — the receiver
    // type is unknown and trait dispatch is real.
    let resolve = |caller: &FnRec, call: &CallRef| -> Vec<usize> {
        let Some(cands) = by_name.get(call.name.as_str()) else {
            return Vec::new();
        };
        match &call.qual {
            Some(q) => {
                let q = if q == "Self" {
                    caller
                        .item
                        .qual
                        .rsplit_once("::")
                        .map_or(q.as_str(), |(ty, _)| ty)
                } else {
                    q.as_str()
                };
                let want = format!("{q}::{}", call.name);
                let exact: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&t| fns[t].item.qual == want)
                    .collect();
                if !exact.is_empty() {
                    return exact;
                }
                cands
                    .iter()
                    .copied()
                    .filter(|&t| fns[t].item.qual == call.name)
                    .collect()
            }
            None if call.method => cands.clone(),
            None => cands
                .iter()
                .copied()
                .filter(|&t| fns[t].item.qual == call.name)
                .collect(),
        }
    };
    let resolved: Vec<BTreeMap<&CallRef, Vec<usize>>> = fns
        .iter()
        .map(|f| f.facts.calls.iter().map(|c| (c, resolve(f, c))).collect())
        .collect();

    // Reachability from the hot roots.
    let mut reachable = vec![false; fns.len()];
    let mut queue: Vec<usize> = fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.hot)
        .map(|(i, _)| i)
        .collect();
    for &i in &queue {
        reachable[i] = true;
    }
    while let Some(i) = queue.pop() {
        for targets in resolved[i].values() {
            for &t in targets {
                if !reachable[t] {
                    reachable[t] = true;
                    queue.push(t);
                }
            }
        }
    }

    let excerpt = |ctx: &FileCtx, line: u32| -> String {
        ctx.raw_lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };
    // An escape-hatch annotation at `line` with a nonempty reason.
    let justified = |ctx: &FileCtx, line: u32, marker: &str| -> Option<bool> {
        ctx.lexed
            .annotation(line, line, marker)
            .map(|reason| !reason.trim().is_empty())
    };
    // None → no marker (flag as violation); Some(false) → marker with
    // empty reason (still a violation, with a sharper message);
    // Some(true) → justified.
    let mut flag = |ctx: &FileCtx, rule: &'static str, site: &Site, marker: &str, why: &str| {
        let mut v: Option<Violation> = None;
        match justified(ctx, site.line, marker) {
            Some(true) => {}
            Some(false) => {
                v = Some(Violation {
                    rule,
                    file: ctx.path.clone(),
                    line: site.line as usize,
                    excerpt: format!(
                        "{} {} — {marker} annotation present but carries no reason",
                        site.what, why
                    ),
                });
            }
            None => {
                v = Some(Violation {
                    rule,
                    file: ctx.path.clone(),
                    line: site.line as usize,
                    excerpt: format!("{} {}: {}", site.what, why, excerpt(ctx, site.line)),
                });
            }
        }
        out.extend(v);
    };

    for (i, f) in fns.iter().enumerate() {
        let ctx = &ctxs[f.file];
        // Panic freedom: macros/unwrap/expect transitively from roots;
        // indexing only directly inside hot-marked functions.
        if reachable[i] {
            for site in &f.facts.panics {
                flag(
                    ctx,
                    "hot-panic-freedom",
                    site,
                    PANIC_OK,
                    &format!("reachable from a HOT-PATH root via `{}`", f.item.qual),
                );
            }
        }
        if f.hot {
            for site in &f.facts.indexes {
                flag(
                    ctx,
                    "hot-panic-freedom",
                    site,
                    PANIC_OK,
                    &format!("in hot function `{}`", f.item.qual),
                );
            }
            for site in &f.facts.allocs {
                flag(
                    ctx,
                    "hot-alloc",
                    site,
                    ALLOC_OK,
                    &format!("in hot function `{}`", f.item.qual),
                );
            }
        }
        if reachable[i] && !blocking_allowed(&ctx.path) {
            for site in &f.facts.blocking {
                flag(
                    ctx,
                    "hot-blocking",
                    site,
                    BLOCKING_OK,
                    &format!("reachable from a HOT-PATH root via `{}`", f.item.qual),
                );
            }
        }
        // Relaxed audit applies to every in-scope function, hot or not
        // — unordered atomics are a correctness hazard everywhere.
        if !lint::atomics_allowed(&ctx.path) {
            for site in &f.facts.relaxed {
                flag(
                    ctx,
                    "atomic-ordering-audit",
                    site,
                    ORDERING_OK,
                    &format!("in `{}`", f.item.qual),
                );
            }
        }
    }

    // Release/Acquire pairing across the whole workspace model.
    let mut acquire_fields: BTreeSet<&str> = BTreeSet::new();
    for f in &fns {
        for field in &f.facts.acquire_reads {
            acquire_fields.insert(field.as_str());
        }
    }
    let mut paired_reported: BTreeSet<&str> = BTreeSet::new();
    for f in &fns {
        for (field, site) in &f.facts.release_stores {
            if !acquire_fields.contains(field.as_str()) && paired_reported.insert(field.as_str()) {
                let ctx = &ctxs[f.file];
                out.push(Violation {
                    rule: "atomic-ordering-audit",
                    file: ctx.path.clone(),
                    line: site.line as usize,
                    excerpt: format!(
                        "{} has no Acquire/SeqCst read of `{field}` anywhere in the workspace",
                        site.what
                    ),
                });
            }
        }
    }

    out.extend(lock_order_cycles(&fns, &ctxs, &resolved));

    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    out
}

/// All locks a function transitively acquires (its own plus its
/// callees'), memoized; cycles in the call graph are cut by the
/// in-progress guard. Like the propagation step, only calls that
/// resolve to exactly one function are followed — ambiguous names
/// would smear every lock in the workspace into every closure.
fn trans_locks(
    i: usize,
    fns: &[FnRec],
    resolved: &[BTreeMap<&CallRef, Vec<usize>>],
    memo: &mut Vec<Option<BTreeSet<String>>>,
    in_progress: &mut Vec<bool>,
) -> BTreeSet<String> {
    if let Some(done) = &memo[i] {
        return done.clone();
    }
    if in_progress[i] {
        return BTreeSet::new();
    }
    in_progress[i] = true;
    let mut acc = fns[i].facts.locks.clone();
    for targets in resolved[i].values() {
        if let [t] = targets.as_slice() {
            acc.extend(trans_locks(*t, fns, resolved, memo, in_progress));
        }
    }
    in_progress[i] = false;
    memo[i] = Some(acc.clone());
    acc
}

/// Builds the global lock-order graph (direct nesting plus
/// call-propagated edges) and reports every elementary cycle class
/// found by DFS.
fn lock_order_cycles(
    fns: &[FnRec],
    ctxs: &[FileCtx],
    resolved: &[BTreeMap<&CallRef, Vec<usize>>],
) -> Vec<Violation> {
    let mut edges: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut provenance: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    let mut add = |a: &str, b: &str, file: &str, line: u32| {
        edges
            .entry(a.to_string())
            .or_default()
            .insert(b.to_string());
        provenance
            .entry((a.to_string(), b.to_string()))
            .or_insert_with(|| (file.to_string(), line));
    };

    let mut memo = vec![None; fns.len()];
    let mut in_progress = vec![false; fns.len()];
    for (f_idx, f) in fns.iter().enumerate() {
        let path = &ctxs[f.file].path;
        for (a, b, line) in &f.facts.lock_edges {
            add(a, b, path, *line);
        }
        for (held, callee, line) in &f.facts.calls_under_lock {
            // Propagate only through calls that resolve to exactly one
            // function: generic method names (`push`, `drain`,
            // `is_empty`) resolve to dozens of unrelated targets under
            // the multimap, and every such edge is a potential false
            // cycle with no escape hatch. Direct nesting inside one
            // function is always captured above.
            if let Some([t]) = resolved[f_idx].get(callee).map(Vec::as_slice) {
                for l in trans_locks(*t, fns, resolved, &mut memo, &mut in_progress) {
                    // Name-merged self-edges via calls are dropped
                    // (see module docs); direct self-nesting was
                    // already captured as a lock_edge above.
                    if l != *held {
                        add(held, &l, path, *line);
                    }
                }
            }
        }
    }

    // DFS cycle detection, deduplicated by the cycle's node set.
    let mut out = Vec::new();
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    let nodes: Vec<&String> = edges.keys().collect();
    for start in nodes {
        let mut stack: Vec<(String, Vec<String>)> = vec![(start.clone(), vec![start.clone()])];
        let mut visited: BTreeSet<String> = BTreeSet::new();
        while let Some((node, path)) = stack.pop() {
            for next in edges.get(&node).into_iter().flatten() {
                if next == start {
                    let mut key: Vec<String> = path.clone();
                    key.sort();
                    if seen_cycles.insert(key) {
                        let mut desc = path.join(" -> ");
                        desc.push_str(&format!(" -> {start}"));
                        // Per-edge provenance so the cycle is
                        // actionable without re-deriving the graph.
                        let mut ring: Vec<&String> = path.iter().collect();
                        ring.push(start);
                        let edges_desc: Vec<String> = ring
                            .windows(2)
                            .map(|w| {
                                let (file, line) = provenance
                                    .get(&(w[0].clone(), w[1].clone()))
                                    .cloned()
                                    .unwrap_or_default();
                                format!("{} -> {} at {file}:{line}", w[0], w[1])
                            })
                            .collect();
                        let (file, line) = provenance
                            .get(&(node.clone(), start.clone()))
                            .cloned()
                            .unwrap_or_default();
                        out.push(Violation {
                            rule: "lock-order-cycle",
                            file,
                            line: line as usize,
                            excerpt: format!(
                                "lock-order cycle: {desc} ({})",
                                edges_desc.join("; ")
                            ),
                        });
                    }
                } else if !path.contains(next) && visited.insert(next.clone()) {
                    let mut p = path.clone();
                    p.push(next.clone());
                    stack.push((next.clone(), p));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Violation> {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        analyze_files(&owned)
    }

    fn rules_of(vs: &[Violation]) -> Vec<&str> {
        vs.iter().map(|v| v.rule).collect()
    }

    const CORE: &str = "crates/nmad-core/src/x.rs";

    #[test]
    fn catalog_has_twelve_rules() {
        let cat = rule_catalog();
        assert_eq!(cat.len(), 12);
        let names: Vec<&str> = cat.iter().map(|(n, _)| *n).collect();
        for n in [
            "unsafe-outside-shims",
            "hot-panic-freedom",
            "hot-alloc",
            "hot-blocking",
            "lock-order-cycle",
            "atomic-ordering-audit",
        ] {
            assert!(names.contains(&n), "missing {n}");
        }
    }

    #[test]
    fn unwrap_reachable_from_hot_root_is_flagged_transitively() {
        let src = "// HOT-PATH\nfn pump() { helper(); }\n\
                   fn helper() { x.unwrap(); }\n\
                   fn cold() { y.unwrap(); }\n";
        let vs = run(&[(CORE, src)]);
        assert_eq!(rules_of(&vs), vec!["hot-panic-freedom"]);
        assert_eq!(vs[0].line, 3, "cold() unwrap must not be flagged: {vs:?}");
    }

    #[test]
    fn panic_ok_with_reason_suppresses_but_empty_reason_does_not() {
        let ok = "// HOT-PATH\nfn pump() { x.unwrap(); } // PANIC-OK: x seeded above\n";
        assert!(run(&[(CORE, ok)]).is_empty());
        let empty = "// HOT-PATH\nfn pump() { x.unwrap(); } // PANIC-OK:\n";
        let vs = run(&[(CORE, empty)]);
        assert_eq!(rules_of(&vs), vec!["hot-panic-freedom"]);
        assert!(vs[0].excerpt.contains("no reason"), "{vs:?}");
    }

    #[test]
    fn panic_macros_and_indexing_in_hot_fn() {
        let src = "// HOT-PATH\nfn pump() { assert!(q.len() > 0); let x = slots[i]; }\n\
                   fn helper() { let y = arr[j]; }\n";
        let vs = run(&[(CORE, src)]);
        // assert! and the direct index are flagged; helper's index is
        // not (indexing is direct-only) and debug_assert! never is.
        assert_eq!(
            rules_of(&vs),
            vec!["hot-panic-freedom", "hot-panic-freedom"]
        );
        let dbg = "// HOT-PATH\nfn pump() { debug_assert!(ok); }\n";
        assert!(run(&[(CORE, dbg)]).is_empty());
    }

    #[test]
    fn alloc_audit_is_direct_only_and_annotatable() {
        let src = "// HOT-PATH\nfn pump() { let v = vec![0u8; n]; helper(); }\n\
                   fn helper() { let s = format!(\"x\"); }\n";
        let vs = run(&[(CORE, src)]);
        assert_eq!(rules_of(&vs), vec!["hot-alloc"]);
        assert_eq!(vs[0].line, 2);
        let ok =
            "// HOT-PATH\nfn pump() { let v = vec![0u8; n]; } // ALLOC-OK: one-time ring setup\n";
        assert!(run(&[(CORE, ok)]).is_empty());
    }

    #[test]
    fn blocking_is_transitive_and_facade_is_exempt() {
        let src = "// HOT-PATH\nfn pump() { helper(); }\n\
                   fn helper() { thread::sleep(d); let t = Instant::now(); }\n";
        let vs = run(&[(CORE, src)]);
        assert_eq!(
            rules_of(&vs),
            vec!["hot-blocking", "hot-blocking"],
            "{vs:?}"
        );
        // The same body inside the sync facade is an implementation
        // site, not a violation.
        let facade = "// HOT-PATH\nfn pump() { helper(); }\n";
        let sync_src = "fn helper() { thread::sleep(d); }\n";
        let vs = run(&[(CORE, facade), ("crates/nmad-core/src/sync.rs", sync_src)]);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn lock_order_cycle_direct() {
        let src = "fn f() { let a = self.alpha.lock(); let b = self.beta.lock(); }\n\
                   fn g() { let b = self.beta.lock(); let a = self.alpha.lock(); }\n";
        let vs = run(&[(CORE, src)]);
        assert_eq!(rules_of(&vs), vec!["lock-order-cycle"]);
        assert!(vs[0].excerpt.contains("alpha") && vs[0].excerpt.contains("beta"));
    }

    #[test]
    fn lock_order_acyclic_passes_and_temporaries_release_at_semi() {
        let acyclic = "fn f() { let a = self.alpha.lock(); let b = self.beta.lock(); }\n\
                       fn g() { let a = self.alpha.lock(); let b = self.beta.lock(); }\n";
        assert!(run(&[(CORE, acyclic)]).is_empty());
        // Temporary guards die at the `;`, so sequential temporaries
        // never nest.
        let seq = "fn f() { self.alpha.lock().bump(); self.beta.lock().bump(); }\n\
                   fn g() { self.beta.lock().bump(); self.alpha.lock().bump(); }\n";
        assert!(run(&[(CORE, seq)]).is_empty());
    }

    #[test]
    fn lock_order_cycle_via_call_propagation() {
        let src = "fn f() { let a = self.alpha.lock(); helper(); }\n\
                   fn helper() { let b = self.beta.lock(); }\n\
                   fn g() { let b = self.beta.lock(); other(); }\n\
                   fn other() { let a = self.alpha.lock(); }\n";
        let vs = run(&[(CORE, src)]);
        assert_eq!(rules_of(&vs), vec!["lock-order-cycle"], "{vs:?}");
    }

    #[test]
    fn relaxed_needs_justification_outside_facade() {
        let src = "fn f() { self.seq.load(Ordering::Relaxed); }\n";
        let vs = run(&[(CORE, src)]);
        assert_eq!(rules_of(&vs), vec!["atomic-ordering-audit"]);
        let ok = "fn f() {\n    // ORDERING: stat counter, no sync role\n    self.seq.load(Ordering::Relaxed);\n}\n";
        assert!(run(&[(CORE, ok)]).is_empty());
        let facade = run(&[("crates/nmad-core/src/sync.rs", src)]);
        assert!(facade.is_empty());
    }

    #[test]
    fn release_store_needs_an_acquire_reader_somewhere() {
        let bad = "fn w() { self.seq.store(1, Ordering::Release); }\n";
        let vs = run(&[(CORE, bad)]);
        assert_eq!(rules_of(&vs), vec!["atomic-ordering-audit"], "{vs:?}");
        assert!(vs[0].excerpt.contains("seq"));
        // A matching Acquire (or SeqCst) read of the same field in any
        // file pairs it.
        let reader = "fn r() { self.seq.load(Ordering::Acquire); }\n";
        let vs = run(&[(CORE, bad), ("crates/nmad-net/src/y.rs", reader)]);
        assert!(vs.is_empty(), "{vs:?}");
        // SeqCst stores are not Release stores.
        let seqcst = "fn w() { self.seq.store(1, Ordering::SeqCst); }\n";
        assert!(run(&[(CORE, seqcst)]).is_empty());
    }

    #[test]
    fn test_functions_and_out_of_scope_files_are_ignored() {
        let src = "// HOT-PATH\nfn pump() { check(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn check() { x.unwrap(); }\n}\n";
        assert!(run(&[(CORE, src)]).is_empty());
        let bench = "// HOT-PATH\nfn pump() { x.unwrap(); }\n";
        assert!(run(&[("crates/bench/src/main.rs", bench)]).is_empty());
    }

    #[test]
    fn hot_marker_tolerates_attributes() {
        let src = "// HOT-PATH\n#[inline]\nfn pump() { x.unwrap(); }\n";
        let vs = run(&[(CORE, src)]);
        assert_eq!(rules_of(&vs), vec!["hot-panic-freedom"]);
    }
}
