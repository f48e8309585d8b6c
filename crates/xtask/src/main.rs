//! Workspace automation tasks, invoked as `cargo run -p xtask -- <task>`.
//!
//! * `analyze` — the full 12-rule static-analysis catalog
//!   ([`nmad_verify::analyze`]): the 7 lexical rules plus the 5
//!   structural hot-path families (panic freedom, allocation audit,
//!   blocking calls, lock-order acyclicity, atomic-ordering audit)
//!   over the workspace call graph. Exit 0 when clean; `--json` for
//!   machine-readable output, `--list-rules` to print the catalog.
//! * `bench-diff` — compare freshly generated `BENCH_*.json` reports
//!   against the committed `BENCH_baseline/`; exit 1 on any metric
//!   regressing past the tolerance (see [`bench_diff`]). `--json PATH`
//!   additionally writes the delta table as JSON.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod bench_diff;
mod json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => {
            if args.iter().any(|a| a == "--list-rules") {
                for (name, description) in nmad_verify::analyze::rule_catalog() {
                    println!(
                        "{name}\t{}",
                        description.split_whitespace().collect::<Vec<_>>().join(" ")
                    );
                }
                return ExitCode::SUCCESS;
            }
            analyze(args.iter().any(|a| a == "--json"))
        }
        Some("bench-diff") => bench_diff::bench_diff(&args[1..]),
        Some(other) => {
            eprintln!("unknown task `{other}`");
            usage();
            ExitCode::FAILURE
        }
        None => {
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!("usage: cargo run -p xtask -- analyze [--json | --list-rules]");
    eprintln!(
        "       cargo run -p xtask -- bench-diff [--tolerance 20%] \
         [--baseline BENCH_baseline] [--current .] [--json PATH]"
    );
}

/// Workspace root: xtask lives at `<root>/crates/xtask`.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("xtask sits two levels below the workspace root")
        .to_path_buf()
}

/// Collects every tracked Rust source under the workspace, skipping
/// build output, VCS metadata, and the committed mutant fixtures (they
/// exist to be flagged — the analyzer's own tests feed them in).
fn rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(err) => {
                eprintln!("warning: cannot read {}: {err}", dir.display());
                continue;
            }
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == "fixtures" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Reads every workspace source as (relative path, contents).
fn read_sources(root: &Path) -> Vec<(String, String)> {
    rust_sources(root)
        .into_iter()
        .filter_map(|path| {
            let rel = path
                .strip_prefix(root)
                .expect("file under workspace root")
                .to_string_lossy()
                .replace('\\', "/");
            match std::fs::read_to_string(&path) {
                Ok(raw) => Some((rel, raw)),
                Err(err) => {
                    eprintln!("warning: cannot read {}: {err}", path.display());
                    None
                }
            }
        })
        .collect()
}

fn emit_violations_json(violations: &[nmad_verify::lint::Violation], checked: usize, rules: usize) {
    let mut s = String::from("{\"task\":\"analyze\",\"violations\":[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"excerpt\":\"{}\"}}",
            v.rule,
            json::escape(&v.file),
            v.line,
            json::escape(&v.excerpt)
        ));
    }
    s.push_str(&format!(
        "],\"files_checked\":{checked},\"rules\":{rules}}}"
    ));
    println!("{s}");
}

fn analyze(json: bool) -> ExitCode {
    let root = workspace_root();
    let files = read_sources(&root);
    let violations = nmad_verify::analyze::analyze_files(&files);
    let rules = nmad_verify::analyze::rule_catalog().len();
    if json {
        emit_violations_json(&violations, files.len(), rules);
    } else {
        for v in &violations {
            println!("{v}");
        }
        println!(
            "analyze: {} file(s) checked against {} rule(s), {} violation(s)",
            files.len(),
            rules,
            violations.len()
        );
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
