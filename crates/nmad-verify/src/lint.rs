//! Repo-specific static-analysis rules that clippy cannot express.
//!
//! The rule engine is deliberately lexical: sources are run through a
//! small lexer that blanks out comments and string/char literals
//! (preserving line structure), and rules match tokens in what
//! remains, scoped by workspace-relative path. That keeps the pass
//! dependency-free, fast, and immune to "the banned token appeared in
//! a doc comment" false positives.
//!
//! These are the lexical half of the `analyze` catalog
//! ([`crate::analyze::rule_catalog`], driven by
//! `cargo run -p xtask -- analyze`); this module owns the rules and
//! per-file checking so they are unit-testable on their own.

/// One lint rule: its stable name (used in reports) and what it
/// enforces.
pub struct Rule {
    pub name: &'static str,
    pub description: &'static str,
}

/// The rule catalog, in evaluation order.
pub static RULES: &[Rule] = &[
    Rule {
        name: "unsafe-outside-shims",
        description: "no `unsafe` token outside shims/ (compiler-backed by \
                      #![forbid(unsafe_code)] in every non-shim crate)",
    },
    Rule {
        name: "safety-comment",
        description: "every `unsafe` in shims/ has a `// SAFETY:` comment on the \
                      same line or in the contiguous comment block above it, and \
                      any shim crate using unsafe declares \
                      #![deny(unsafe_op_in_unsafe_fn)]",
    },
    Rule {
        name: "raw-atomics-outside-facade",
        description: "no direct `std::sync::atomic` / `core::sync::atomic` paths \
                      (and hence no raw atomic `Ordering::`) outside the sync \
                      facades (nmad-core::sync, the crossbeam shim facade) and \
                      the model runtime itself",
    },
    Rule {
        name: "os-time-in-sim",
        description: "no `Instant::now` / `SystemTime::now` in nmad-sim or \
                      nmad-net sim paths (virtual-time determinism); the real \
                      TCP transport (tcp.rs) is exempt",
    },
    Rule {
        name: "std-mutex-on-hot-path",
        description: "no `std::sync::Mutex`/`Condvar`/`RwLock` in the submit/\
                      progress hot path (nmad-core ring, threaded, window, \
                      engine, metrics) — use the sync facade",
    },
    Rule {
        name: "forbid-unsafe-declared",
        description: "every crates/*/src/lib.rs (and the umbrella src/lib.rs) \
                      declares #![forbid(unsafe_code)]",
    },
    Rule {
        name: "raw-poll-outside-shim",
        description: "no raw readiness-syscall tokens (epoll_create1/epoll_ctl/\
                      epoll_wait, EPOLLIN/EPOLLOUT, pollfd) outside shims/polling/: \
                      the endpoint layer talks to the kernel only through the \
                      Poller facade so backend selection and event accounting \
                      stay in one audited place",
    },
];

/// A single finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line, or 0 for whole-file findings.
    pub line: usize,
    pub excerpt: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.excerpt
        )
    }
}

/// Blanks comments and string/char literals, preserving newlines and
/// column positions (stripped characters become spaces). Handles line
/// comments, nested block comments, escapes, raw strings with hashes,
/// and distinguishes lifetimes from char literals.
pub fn strip_comments_and_strings(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out: Vec<char> = Vec::with_capacity(b.len());
    let mut i = 0;
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    while i < b.len() {
        let c = b[i];
        // Line comment.
        if c == '/' && i + 1 < b.len() && b[i + 1] == '/' {
            while i < b.len() && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment (nests in Rust).
        if c == '/' && i + 1 < b.len() && b[i + 1] == '*' {
            let mut depth = 0usize;
            while i < b.len() {
                if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                    depth += 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                    depth -= 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            continue;
        }
        // Raw string: r"..." / r#"..."# (also br…).
        if (c == 'r' || (c == 'b' && i + 1 < b.len() && b[i + 1] == 'r')) && !prev_is_ident(&out) {
            let start = if c == 'b' { i + 1 } else { i };
            let mut j = start + 1;
            let mut hashes = 0;
            while j < b.len() && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j < b.len() && b[j] == '"' {
                // Emit the prefix verbatim (identifier chars), blank the body.
                for &p in &b[i..=j] {
                    out.push(p);
                }
                i = j + 1;
                'raw: while i < b.len() {
                    if b[i] == '"' {
                        let mut k = i + 1;
                        let mut h = 0;
                        while k < b.len() && b[k] == '#' && h < hashes {
                            h += 1;
                            k += 1;
                        }
                        if h == hashes {
                            out.extend(std::iter::repeat_n('"', k - i));
                            i = k;
                            break 'raw;
                        }
                    }
                    out.push(blank(b[i]));
                    i += 1;
                }
                continue;
            }
        }
        // Ordinary string.
        if c == '"' {
            out.push('"');
            i += 1;
            while i < b.len() {
                if b[i] == '\\' && i + 1 < b.len() {
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if b[i] == '"' {
                    out.push('"');
                    i += 1;
                    break;
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let is_char = if i + 1 < b.len() && b[i + 1] == '\\' {
                true
            } else {
                i + 2 < b.len() && b[i + 2] == '\''
            };
            if is_char {
                out.push('\'');
                i += 1;
                while i < b.len() {
                    if b[i] == '\\' && i + 1 < b.len() {
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                    } else if b[i] == '\'' {
                        out.push('\'');
                        i += 1;
                        break;
                    } else {
                        out.push(blank(b[i]));
                        i += 1;
                    }
                }
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    out.into_iter().collect()
}

fn prev_is_ident(out: &[char]) -> bool {
    out.last().is_some_and(|&c| c.is_alphanumeric() || c == '_')
}

/// True when `needle` occurs in `line` as a standalone word (not a
/// substring of a longer identifier).
fn has_word(line: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = line[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0
            || !line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = after >= line.len()
            || !line[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        from = at + needle.len();
    }
    false
}

/// Tokens a readiness backend needs and nothing else should utter:
/// seeing one outside `shims/polling/` means someone is issuing poll
/// syscalls behind the facade's back.
const POLL_SYSCALL_TOKENS: &[&str] = &[
    "epoll_create1",
    "epoll_ctl",
    "epoll_wait",
    "EPOLLIN",
    "EPOLLOUT",
    "EPOLLRDHUP",
    "pollfd",
];

const HOT_PATH_FILES: &[&str] = &[
    "crates/nmad-core/src/ring.rs",
    "crates/nmad-core/src/threaded.rs",
    "crates/nmad-core/src/window.rs",
    "crates/nmad-core/src/engine.rs",
    "crates/nmad-core/src/metrics.rs",
];

/// Files allowed to touch raw atomics: the model runtime and the two
/// sync facades everything else must go through.
pub(crate) fn atomics_allowed(path: &str) -> bool {
    path.starts_with("crates/nmad-verify/")
        || path == "crates/nmad-core/src/sync.rs"
        || path == "shims/crossbeam/src/sync.rs"
}

fn sim_time_scoped(path: &str) -> bool {
    (path.starts_with("crates/nmad-sim/") || path.starts_with("crates/nmad-net/"))
        && !path.ends_with("/tcp.rs")
        // Tests that drive the real TCP transport are wall clock by
        // nature, like tcp.rs itself.
        && path != "crates/nmad-net/tests/endpoint_churn.rs"
}

fn is_crate_root(path: &str) -> bool {
    path == "src/lib.rs" || (path.starts_with("crates/") && path.ends_with("/src/lib.rs"))
}

/// Lints one Rust source file. `path` is workspace-relative with
/// forward slashes; `raw` is the file contents.
pub fn lint_file(path: &str, raw: &str) -> Vec<Violation> {
    lint_stripped(path, raw, &strip_comments_and_strings(raw))
}

/// The lexical rules over an already-stripped view. `analyze` calls
/// this with the [`crate::lexer`] output so the unified engine strips
/// each source exactly once; `lint_file` strips with the legacy
/// function. The two strippers are held to byte equality by a
/// differential proptest in the umbrella crate.
pub fn lint_stripped(path: &str, raw: &str, stripped: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let raw_lines: Vec<&str> = raw.lines().collect();
    let in_shims = path.starts_with("shims/");

    for (idx, line) in stripped.lines().enumerate() {
        let lineno = idx + 1;
        let excerpt = |_: &str| raw_lines.get(idx).unwrap_or(&"").trim().to_string();

        if has_word(line, "unsafe") {
            if !in_shims {
                out.push(Violation {
                    rule: "unsafe-outside-shims",
                    file: path.to_string(),
                    line: lineno,
                    excerpt: excerpt(line),
                });
            } else {
                // A SAFETY comment must appear on the same line or in
                // the contiguous `//` comment block directly above (in
                // the raw text — it *is* a comment, so the stripped
                // view cannot see it).
                let mut documented = raw_lines.get(idx).is_some_and(|l| l.contains("SAFETY:"));
                let mut above = idx;
                while !documented && above > 0 {
                    above -= 1;
                    let l = raw_lines[above].trim_start();
                    if !l.starts_with("//") {
                        break;
                    }
                    documented = l.contains("SAFETY:");
                }
                if !documented {
                    out.push(Violation {
                        rule: "safety-comment",
                        file: path.to_string(),
                        line: lineno,
                        excerpt: format!("undocumented unsafe: {}", excerpt(line)),
                    });
                }
            }
        }

        if !atomics_allowed(path)
            && (line.contains("std::sync::atomic") || line.contains("core::sync::atomic"))
        {
            out.push(Violation {
                rule: "raw-atomics-outside-facade",
                file: path.to_string(),
                line: lineno,
                excerpt: excerpt(line),
            });
        }

        if sim_time_scoped(path)
            && (line.contains("Instant::now") || line.contains("SystemTime::now"))
        {
            out.push(Violation {
                rule: "os-time-in-sim",
                file: path.to_string(),
                line: lineno,
                excerpt: excerpt(line),
            });
        }

        if !path.starts_with("shims/polling/")
            && POLL_SYSCALL_TOKENS.iter().any(|t| has_word(line, t))
        {
            out.push(Violation {
                rule: "raw-poll-outside-shim",
                file: path.to_string(),
                line: lineno,
                excerpt: excerpt(line),
            });
        }

        if HOT_PATH_FILES.contains(&path)
            && (line.contains("std::sync::Mutex")
                || line.contains("std::sync::Condvar")
                || line.contains("std::sync::RwLock"))
        {
            out.push(Violation {
                rule: "std-mutex-on-hot-path",
                file: path.to_string(),
                line: lineno,
                excerpt: excerpt(line),
            });
        }
    }

    // Whole-file rules.
    if is_crate_root(path) && !in_shims && !raw.contains("#![forbid(unsafe_code)]") {
        out.push(Violation {
            rule: "forbid-unsafe-declared",
            file: path.to_string(),
            line: 0,
            excerpt: "missing #![forbid(unsafe_code)]".to_string(),
        });
    }
    if in_shims
        && path.ends_with("/src/lib.rs")
        && has_word(stripped, "unsafe")
        && !raw.contains("#![deny(unsafe_op_in_unsafe_fn)]")
    {
        out.push(Violation {
            rule: "safety-comment",
            file: path.to_string(),
            line: 0,
            excerpt: "shim uses unsafe but does not declare #![deny(unsafe_op_in_unsafe_fn)]"
                .to_string(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_strips_comments_and_strings() {
        let src = r##"let a = "unsafe"; // unsafe here too
/* unsafe
   in /* nested */ block */
let lt: &'static str = r#"unsafe"#;
let c = 'u';
"##;
        let stripped = strip_comments_and_strings(src);
        assert!(!has_word(&stripped, "unsafe"));
        // Line structure preserved.
        assert_eq!(stripped.lines().count(), src.lines().count());
        // Code outside literals survives.
        assert!(stripped.contains("let a ="));
        assert!(stripped.contains("&'static str"));
    }

    #[test]
    fn unsafe_flagged_outside_shims_only() {
        let v = lint_file("crates/nmad-core/src/ring.rs", "unsafe { x() }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "unsafe-outside-shims");
        assert_eq!(v[0].line, 1);
        // In shims it needs a SAFETY comment instead.
        let ok = lint_file(
            "shims/crossbeam/src/queue.rs",
            "// SAFETY: slot is uniquely owned here\nunsafe { x() }\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
        let bad = lint_file("shims/crossbeam/src/queue.rs", "unsafe { x() }\n");
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "safety-comment");
    }

    #[test]
    fn unsafe_in_comment_or_string_not_flagged() {
        let v = lint_file(
            "crates/nmad-core/src/ring.rs",
            "// unsafe is discussed here\nlet s = \"unsafe\";\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn raw_atomics_scoping() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\n";
        assert_eq!(
            lint_file("crates/nmad-net/src/selective.rs", src)[0].rule,
            "raw-atomics-outside-facade"
        );
        assert!(lint_file("crates/nmad-core/src/sync.rs", src).is_empty());
        assert!(lint_file("shims/crossbeam/src/sync.rs", src).is_empty());
        assert!(lint_file("crates/nmad-verify/src/sync.rs", src).is_empty());
    }

    #[test]
    fn os_time_scoping() {
        let src = "let t = Instant::now();\n";
        assert_eq!(
            lint_file("crates/nmad-sim/src/lat.rs", src)[0].rule,
            "os-time-in-sim"
        );
        assert!(lint_file("crates/nmad-net/src/tcp.rs", src).is_empty());
        assert!(lint_file("crates/bench/src/main.rs", src).is_empty());
    }

    #[test]
    fn hot_path_mutex_ban() {
        let src = "let m = std::sync::Mutex::new(());\n";
        assert_eq!(
            lint_file("crates/nmad-core/src/ring.rs", src)[0].rule,
            "std-mutex-on-hot-path"
        );
        assert!(lint_file("crates/nmad-core/src/api.rs", src).is_empty());
    }

    #[test]
    fn crate_roots_must_forbid_unsafe() {
        let v = lint_file("crates/nmad-core/src/lib.rs", "pub mod ring;\n");
        assert!(v.iter().any(|v| v.rule == "forbid-unsafe-declared"));
        let ok = lint_file(
            "crates/nmad-core/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod ring;\n",
        );
        assert!(ok.is_empty());
        // Shim roots are exempt from forbid but must pair unsafe with
        // the deny attribute.
        let shim = lint_file(
            "shims/crossbeam/src/lib.rs",
            "// SAFETY: T is Send\nunsafe impl<T: Send> Send for Q<T> {}\n",
        );
        assert!(shim
            .iter()
            .any(|v| v.rule == "safety-comment" && v.line == 0));
    }

    #[test]
    fn raw_poll_syscalls_confined_to_the_polling_shim() {
        let src = "let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };\n\
                   let mask = EPOLLIN | EPOLLOUT;\n";
        let v = lint_file("crates/nmad-net/src/tcp.rs", src);
        assert!(v.iter().any(|v| v.rule == "raw-poll-outside-shim"));
        // The shim itself may say the tokens (its unsafe is covered by
        // the SAFETY rules, not this one).
        let shim = "// SAFETY: fd is owned\nlet fd = unsafe { epoll_create1(0) };\n";
        let v = lint_file("shims/polling/src/lib.rs", shim);
        assert!(v.iter().all(|v| v.rule != "raw-poll-outside-shim"));
        // Comments and the safe facade vocabulary do not trip it.
        let ok = lint_file(
            "crates/nmad-net/src/poller.rs",
            "// epoll_wait lives behind the shim\nlet p = Poller::new();\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn rule_catalog_is_stable() {
        assert_eq!(RULES.len(), 7);
        let names: Vec<&str> = RULES.iter().map(|r| r.name).collect();
        assert!(names.contains(&"raw-atomics-outside-facade"));
        assert!(names.contains(&"raw-poll-outside-shim"));
    }
}
