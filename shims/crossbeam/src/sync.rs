//! Sync facade for the shim's lock-free queue.
//!
//! The only place in this crate allowed to name raw atomics (enforced
//! by `cargo run -p xtask -- analyze`). Under `cfg(nmad_model)` — mapped
//! from the `nmad-model` cargo feature by build.rs — the types route
//! to the nmad-verify model-checking runtime, so `ArrayQueue`'s
//! ticket/sequence protocol can be exhaustively model-checked; in
//! normal builds they are the std atomics, zero-cost.

#[cfg(nmad_model)]
pub use nmad_verify::sync::{fence, spin_loop, AtomicBool, AtomicU64, AtomicUsize, Ordering};

#[cfg(not(nmad_model))]
pub use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};

#[cfg(not(nmad_model))]
pub use std::hint::spin_loop;
