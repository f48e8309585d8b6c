//! # nmad-core — the NewMadeleine communication scheduling engine
//!
//! Rust reproduction of the engine described in *"NewMadeleine: a Fast
//! Communication Scheduling Engine for High Performance Networks"*
//! (Aumage, Brunet, Furmento, Namyst — INRIA RR-6085 / IPPS 2007).
//!
//! The engine unties communication-request processing from the
//! application workflow and ties it to NIC activity instead: requests
//! accumulate in an **optimization window** while the NICs are busy; as
//! soon as one goes idle, a pluggable **strategy** synthesizes the next
//! wire frame — aggregating small segments across logical flows,
//! reordering them, issuing rendezvous handshakes for large blocks, or
//! splitting them across heterogeneous rails.
//!
//! Layer map (paper Figure 1):
//!
//! | paper layer | module |
//! |---|---|
//! | application collect layer | [`api`], [`segment`], the submit half of [`engine`] |
//! | optimizer – scheduler | [`window`], [`strategy`] |
//! | transfer layer | the pump half of [`engine`], the rendezvous protocol in [`wire`]/[`matching`], drivers from `nmad_net` |
//!
//! Quick start (simulated two-node cluster):
//!
//! ```
//! use nmad_core::prelude::*;
//! use nmad_net::sim::SimDriver;
//! use nmad_sim::{nic, run_until, shared_world, NodeId, RailId, SimConfig};
//! use std::ops::ControlFlow;
//!
//! let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
//! let mk = |n: u32| {
//!     let d = SimDriver::new(world.clone(), NodeId(n), RailId(0));
//!     let m = Box::new(d.meter());
//!     NmadEngine::new(vec![Box::new(d)], m, Box::new(StratAggreg), EngineCosts::zero())
//! };
//! let (mut a, mut b) = (mk(0), mk(1));
//! let s = a.isend(NodeId(1), Tag(1), &b"hello"[..]);
//! let r = b.post_recv(NodeId(0), Tag(1), 64);
//! # let _ = s;
//! // One step pumps both engines, then checks the goal; the runner
//! // advances virtual time whenever a step moved nothing.
//! run_until(&world, || {
//!     let moved = a.progress() | b.progress();
//!     if b.is_recv_done(r) { ControlFlow::Break(()) } else { ControlFlow::Continue(moved) }
//! })
//! .unwrap();
//! assert_eq!(b.try_take_recv(r).unwrap().data, b"hello");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod engine;
pub mod matching;
pub mod metrics;
pub mod ring;
pub mod segment;
pub mod strategy;
pub mod sync;
pub mod threaded;
pub mod window;
pub mod wire;

pub use api::{RecvHandle, RecvMessage, SendMessage};
pub use engine::{
    EngineConfig, EngineCosts, EngineDiagnostics, EngineStats, NmadEngine, ShardPolicy, ShardRoute,
};
pub use matching::{Effect, Matching, RecvDone};
pub use metrics::{
    EngineMetrics, LogHistogram, MetricsRegistry, MetricsSnapshot, NicMetrics, Seqlock,
    SharedMetrics,
};
pub use ring::{Batch, SubmitRing};
pub use segment::{PackWrapper, Priority, RecvReqId, SendReqId, SeqNo, Tag, NUM_LANES};
pub use strategy::{
    eager_cutoff, DynamicStats, FramePlan, NicView, PlanEntry, StratAggreg, StratDefault,
    StratDynamic, StratLanes, StratMultirail, StratReorder, Strategy, Tactic,
};
pub use threaded::{CompletionBoard, SubmitBatch, ThreadedEngine, ThreadedHandle, SLOT_OPS};
pub use window::{CtrlMsg, RdvChunk, RdvJob, Window};

/// Everything a typical application needs.
pub mod prelude {
    pub use crate::api::RecvHandle;
    pub use crate::engine::{EngineConfig, EngineCosts, NmadEngine};
    pub use crate::segment::{Priority, RecvReqId, SendReqId, Tag};
    pub use crate::strategy::{
        StratAggreg, StratDefault, StratDynamic, StratLanes, StratMultirail, StratReorder, Strategy,
    };
    pub use crate::threaded::{ThreadedEngine, ThreadedHandle};
}
