//! # mad-mpi — a proof-of-concept MPI subset over NewMadeleine
//!
//! "To exhibit the performance of NewMadeleine with MPI applications, we
//! have implemented a subset of the MPI standard on top of
//! NewMadeleine. This implementation called MAD-MPI is based on the
//! point-to-point nonblocking posting (isend, irecv) and completion
//! (wait, test) operations of MPI" (§3.4).
//!
//! This crate provides:
//!
//! * [`MpiProc`] / [`Comm`] / [`Request`] — the MPI front-end:
//!   communicators, nonblocking point-to-point, `test`/`wait`/`waitall`;
//! * [`Datatype`] — derived datatypes (contiguous, vector, indexed)
//!   with the pack/unpack machinery the baselines rely on;
//! * three interchangeable backends: MAD-MPI over the NewMadeleine
//!   engine, and MPICH-/OpenMPI-like direct-mapping comparators;
//! * simple collectives (barrier, broadcast) built on point-to-point,
//!   usable with every backend;
//! * cluster builders + [`pump_cluster`], which drives every rank
//!   through [`nmad_sim::run_until`], the one co-simulation loop;
//! * [`StrategyKind`] — the one mapping from a strategy's name to its
//!   engine strategy ([`StrategyKind::parse`] / [`StrategyKind::build`]),
//!   shared by `nmadctl`, the bench binaries and the tests.
//!
//! A two-rank job over the simulated Myri-10G cluster:
//!
//! ```
//! use mad_mpi::{pump_cluster, sim_cluster, EngineKind, StrategyKind};
//! use nmad_sim::nic;
//!
//! let (world, mut procs) =
//!     sim_cluster(2, nic::mx_myri10g(), EngineKind::MadMpi(StrategyKind::Aggreg));
//! let comm = procs[0].comm_world();
//! let s = procs[0].isend(comm, 1, 0, &b"ping"[..]);
//! let r = procs[1].irecv(comm, 0, 0, 16);
//! pump_cluster(&world, &mut procs, |p| p[1].test(r));
//! assert_eq!(procs[1].take(r).unwrap(), b"ping");
//! # let _ = s;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cluster;
pub mod coll;
pub mod datatype;
pub mod p2p;

pub use backend::{DirectBackend, MpiBackend, NmadBackend, RecvToken, SendToken};
pub use cluster::{
    mem_cluster, pump_cluster, sim_cluster, sim_cluster_multirail, tcp_rank, EngineKind,
    StrategyKind,
};
pub use coll::{
    AllgatherOp, AllreduceOp, AlltoallOp, BarrierOp, BcastOp, CollectiveOp, CommSplitOp, GatherOp,
    ReduceOp, ScatterOp,
};
pub use datatype::{Datatype, DatatypeError};
pub use p2p::{Comm, MpiProc, Persistent, Request};

// Observability: harnesses collect engine snapshots through the
// backend surface without depending on nmad-core directly.
pub use nmad_core::MetricsSnapshot;
