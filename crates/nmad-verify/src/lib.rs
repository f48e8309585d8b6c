//! `nmad-verify`: the engine's in-repo verification layer.
//!
//! Two halves, both dependency-free so they work in the offline build:
//!
//! * A **bounded exhaustive model checker** ([`Checker`]) for the
//!   lock-free primitives behind the threaded progression engine
//!   (submit ring, batched slots, completion board, request-id
//!   watermark). Code written against the [`sync`] facade
//!   runs unchanged; inside a [`Checker::check`] closure every atomic
//!   operation, fence, lock, and park becomes a decision point, and
//!   the checker enumerates thread interleavings *and* weak-memory
//!   load results with a bounded-preemption DFS plus state-hash
//!   pruning. An assertion that holds across the explored space holds
//!   for every schedule up to the bound — not for one lucky seed.
//!
//! * The **static-analysis engine** behind
//!   `cargo run -p xtask -- analyze`: repo invariants clippy cannot
//!   express. The [`lexer`] strips comments/strings and tokenizes,
//!   [`tree`] recovers the function/impl structure, and [`analyze`]
//!   runs the unified rule catalog — seven lexical rules
//!   ([`lint`]) re-expressed on the token stream plus five structural
//!   families (hot-path panic freedom, allocation audit, blocking-call
//!   detection, lock-order acyclicity, atomic-ordering audit) that
//!   walk a name-based intra-workspace call graph rooted at
//!   `// HOT-PATH` annotations.
//!
//! See `DESIGN.md` §12 for the memory-model write-up and §17 for the
//! static-analysis architecture.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod clock;
mod exec;
pub mod lexer;
pub mod lint;
pub mod sync;
pub mod thread;
pub mod tree;

mod checker;

pub use checker::{coverage_probe, Checker};
pub use exec::{CheckFailure, CheckStats};
