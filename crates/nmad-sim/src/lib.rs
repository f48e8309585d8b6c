//! # nmad-sim — discrete-event network substrate
//!
//! Deterministic discrete-event simulation of a small cluster of nodes
//! connected by one or more high-performance network rails. This crate
//! substitutes for the Myrinet (MX/GM), Quadrics (Elan) and SCI hardware
//! the NewMadeleine paper was evaluated on: it reproduces each
//! technology's *timing envelope* (latency, bandwidth, per-packet host
//! overhead, gather/RDMA capabilities, rendezvous threshold) and the one
//! signal the engine's scheduling decisions hinge on — **when a NIC is
//! idle**.
//!
//! Layering:
//!
//! * [`time`] — integer-nanosecond virtual instants and durations;
//! * [`hash`] — the fast hasher for tables keyed by values the process
//!   chooses (shared with the engine and drivers);
//! * [`nic`] — calibrated per-technology NIC models;
//! * [`host`] — CPU/memcpy model plus per-library software costs;
//! * [`topo`] — node/rail identifiers, cluster configuration;
//! * [`world`] — the event-driven cluster (`post_send` / `poll_recv` /
//!   `charge_cpu` / `advance`) and its lock-free readiness mirror;
//! * [`runner`] — [`run_until`], the one co-simulation loop: a caller's
//!   step pumps its engines and checks its goal, the runner advances
//!   time whenever a step moved nothing;
//! * [`trace`] — optional event log for tests and debugging;
//! * [`timeline`] — human-readable rendering of traces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod host;
pub mod nic;
pub mod runner;
pub mod time;
pub mod timeline;
pub mod topo;
pub mod trace;
pub mod world;

pub use hash::{FxHashMap, FxHashSet};
pub use host::{HostModel, SoftwareCosts};
pub use nic::NicModel;
pub use runner::{run_until, shared_world, Deadlock, SharedWorld};
pub use time::{SimDuration, SimTime};
pub use topo::{NodeId, RailId, SimConfig};
pub use world::{RailReadiness, Readiness, RxPacket, SendToken, SimWorld, WorldStats};
