//! Communication backends under the MPI front-end.
//!
//! MAD-MPI "is based on the point-to-point nonblocking posting (isend,
//! irecv) and completion (wait, test) operations of MPI, these four
//! operations being directly mapped to the equivalent operations of
//! NewMadeleine" (§3.4). [`MpiBackend`] is that mapping surface; it has
//! three implementations:
//!
//! * [`NmadBackend`] — MAD-MPI proper, over [`NmadEngine`];
//! * [`DirectBackend`] with the MPICH flavour — pack/unpack datatypes,
//!   completion-time dispatch;
//! * [`DirectBackend`] with the OpenMPI flavour — pack on send,
//!   chunk-overlapped unpack on receive.
//!
//! The trait is object-safe so harnesses can swap implementations at
//! run time.

use std::collections::HashMap;

use bytes::Bytes;

use crate::datatype::Datatype;
use baselines::{DirectConfig, DirectEngine, UnpackMode};
use nmad_core::segment::{Priority, RecvReqId, SendReqId, Tag};
use nmad_core::{EngineConfig, MetricsSnapshot, NmadEngine, ThreadedEngine, ThreadedHandle};
use nmad_net::{FaultPlan, FaultStats};
use nmad_sim::NodeId;

/// Backend-scoped send completion token.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SendToken(pub u64);

/// Backend-scoped receive completion token.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RecvToken(pub u64);

/// The backend surface the MPI front-end drives.
pub trait MpiBackend: Send {
    /// Implementation name for reports ("madmpi", "mpich", "openmpi").
    fn name(&self) -> &'static str;

    /// This process's node.
    fn node(&self) -> NodeId;

    /// Nonblocking contiguous send.
    fn isend_contig(&mut self, dst: NodeId, tag: Tag, data: Bytes) -> SendToken;

    /// Nonblocking send of `dtype` blocks out of the extent-sized
    /// region `buf`.
    fn isend_typed(&mut self, dst: NodeId, tag: Tag, buf: &[u8], dtype: &Datatype) -> SendToken;

    /// Nonblocking contiguous receive of up to `max` bytes.
    fn irecv_contig(&mut self, src: NodeId, tag: Tag, max: usize) -> RecvToken;

    /// Nonblocking typed receive; completion yields an extent-sized
    /// region with the blocks filled in.
    fn irecv_typed(&mut self, src: NodeId, tag: Tag, dtype: &Datatype) -> RecvToken;

    /// True once the send buffer is reusable.
    fn test_send(&mut self, token: SendToken) -> bool;

    /// True once the receive has fully landed.
    fn test_recv(&mut self, token: RecvToken) -> bool;

    /// Takes a completed receive's payload (contiguous bytes, or the
    /// extent-sized region for typed receives). `None` if not done.
    fn take_recv(&mut self, token: RecvToken) -> Option<Vec<u8>>;

    /// One progress pump; returns whether anything moved.
    fn progress(&mut self) -> bool;

    /// Wire frames/messages sent so far (aggregation diagnostics).
    fn frames_sent(&self) -> u64;

    /// Non-destructive probe: length of the next matching segment of
    /// (src, tag) if already arrived or announced.
    fn probe(&self, src: NodeId, tag: Tag) -> Option<usize>;

    /// Observability snapshot of the scheduling engine, when the
    /// backend has one. The direct baselines have no optimization
    /// window or strategy, so they report `None`.
    fn metrics(&self) -> Option<MetricsSnapshot> {
        None
    }

    /// Installs a deterministic fault plan on rail `rail` of the
    /// backend's transport. Returns `false` when the transport does
    /// not support injection (the direct baselines and real sockets).
    fn install_faults(&mut self, _rail: usize, _plan: FaultPlan) -> bool {
        false
    }

    /// Fault-injection statistics for rail `rail`; all-zero when no
    /// plan is installed or injection is unsupported.
    fn fault_stats(&self, _rail: usize) -> FaultStats {
        FaultStats::default()
    }
}

// --- MAD-MPI over the NewMadeleine engine ------------------------------

enum NmadRecv {
    Contig(RecvReqId),
    Typed {
        reqs: Vec<RecvReqId>,
        dtype: Datatype,
    },
}

/// MAD-MPI: requests map 1:1 onto engine operations; a typed send
/// submits one segment per block so the scheduler can aggregate the
/// small ones and run the large ones through rendezvous (§5.3).
pub struct NmadBackend {
    engine: NmadEngine,
    name: &'static str,
    recvs: HashMap<u64, NmadRecv>,
    sends: HashMap<u64, SendReqId>,
    next: u64,
}

impl NmadBackend {
    /// Wraps a NewMadeleine engine as a MAD-MPI backend.
    pub fn new(engine: NmadEngine) -> Self {
        NmadBackend {
            engine,
            name: "madmpi",
            recvs: HashMap::new(),
            sends: HashMap::new(),
            next: 0,
        }
    }

    /// Access to the engine (tests inspect wire statistics).
    pub fn engine(&self) -> &NmadEngine {
        &self.engine
    }

    fn token(&mut self) -> u64 {
        let t = self.next;
        self.next += 1;
        t
    }
}

impl MpiBackend for NmadBackend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn node(&self) -> NodeId {
        self.engine.node()
    }

    fn isend_contig(&mut self, dst: NodeId, tag: Tag, data: Bytes) -> SendToken {
        let req = self.engine.isend(dst, tag, data);
        let t = self.token();
        self.sends.insert(t, req);
        SendToken(t)
    }

    fn isend_typed(&mut self, dst: NodeId, tag: Tag, buf: &[u8], dtype: &Datatype) -> SendToken {
        // One engine segment per block: no pack copy, the NIC gathers.
        let parts: Vec<(Bytes, Priority)> = dtype
            .blocks()
            .iter()
            .map(|&(offset, len)| {
                (
                    Bytes::copy_from_slice(&buf[offset..offset + len]),
                    Priority::Normal,
                )
            })
            .collect();
        let req = self.engine.submit_send_parts(dst, tag, parts, None);
        let t = self.token();
        self.sends.insert(t, req);
        SendToken(t)
    }

    fn irecv_contig(&mut self, src: NodeId, tag: Tag, max: usize) -> RecvToken {
        let req = self.engine.post_recv(src, tag, max);
        let t = self.token();
        self.recvs.insert(t, NmadRecv::Contig(req));
        RecvToken(t)
    }

    fn irecv_typed(&mut self, src: NodeId, tag: Tag, dtype: &Datatype) -> RecvToken {
        // One engine receive per block, matched in block order.
        let reqs: Vec<RecvReqId> = dtype
            .blocks()
            .iter()
            .map(|&(_, len)| self.engine.post_recv(src, tag, len))
            .collect();
        let t = self.token();
        self.recvs.insert(
            t,
            NmadRecv::Typed {
                reqs,
                dtype: dtype.clone(),
            },
        );
        RecvToken(t)
    }

    fn test_send(&mut self, token: SendToken) -> bool {
        let req = self.sends.get(&token.0).expect("unknown send token");
        self.engine.is_send_done(*req)
    }

    fn test_recv(&mut self, token: RecvToken) -> bool {
        // A token absent from the table was already taken: the request
        // is complete and inactive (MPI semantics for freed requests).
        match self.recvs.get(&token.0) {
            None => true,
            Some(NmadRecv::Contig(req)) => self.engine.is_recv_done(*req),
            Some(NmadRecv::Typed { reqs, .. }) => reqs.iter().all(|&r| self.engine.is_recv_done(r)),
        }
    }

    fn take_recv(&mut self, token: RecvToken) -> Option<Vec<u8>> {
        if !self.test_recv(token) {
            return None;
        }
        match self.recvs.remove(&token.0)? {
            NmadRecv::Contig(req) => Some(
                self.engine
                    .try_take_recv(req)
                    .expect("tested")
                    .data
                    .to_vec(),
            ),
            NmadRecv::Typed { reqs, dtype } => {
                // Each block landed in its own buffer (the large ones
                // zero-copy); assembling the extent view is a host-side
                // restructuring, not a modeled copy.
                let parts: Vec<Vec<u8>> = reqs
                    .into_iter()
                    .map(|r| self.engine.try_take_recv(r).expect("tested").data.to_vec())
                    .collect();
                Some(dtype.scatter_blocks(&parts))
            }
        }
    }

    fn progress(&mut self) -> bool {
        // Drain cascades (completion → idle NIC → window refill) in one
        // call instead of relying on the caller to loop.
        self.engine.progress_until_idle()
    }

    fn frames_sent(&self) -> u64 {
        self.engine.stats().frames_sent
    }

    fn probe(&self, src: NodeId, tag: Tag) -> Option<usize> {
        self.engine.probe(src, tag)
    }

    fn metrics(&self) -> Option<MetricsSnapshot> {
        Some(self.engine.metrics())
    }

    fn install_faults(&mut self, rail: usize, plan: FaultPlan) -> bool {
        self.engine.install_faults(rail, plan)
    }

    fn fault_stats(&self, rail: usize) -> FaultStats {
        self.engine.fault_stats(rail)
    }
}

// --- MAD-MPI over the sharded threaded runtime --------------------------

/// MAD-MPI over the sharded threaded progression runtime
/// ([`ThreadedEngine`]): isend/irecv become ring submissions routed to
/// the shard owning each flow, completion tests poll the lock-sharded
/// board, and [`MpiBackend::progress`] is a no-op — the progression
/// threads pump in the background, which is the paper's point.
pub struct ShardedNmadBackend {
    runtime: ThreadedEngine,
    handle: ThreadedHandle,
    recvs: HashMap<u64, NmadRecv>,
    sends: HashMap<u64, SendReqId>,
    next: u64,
}

impl ShardedNmadBackend {
    /// Launches `engine` on `config.shards` progression shards
    /// (clamped to the rail count) and wraps the runtime as a MAD-MPI
    /// backend; see [`EngineConfig::sharded`] and
    /// [`EngineConfig::threaded`].
    pub fn launch(engine: NmadEngine, config: EngineConfig) -> Self {
        let runtime = ThreadedEngine::launch(engine, config);
        let handle = runtime.handle();
        ShardedNmadBackend {
            runtime,
            handle,
            recvs: HashMap::new(),
            sends: HashMap::new(),
            next: 0,
        }
    }

    /// Progression shards actually running (after the rail-count
    /// clamp).
    pub fn shards(&self) -> usize {
        self.runtime.shards()
    }

    /// The routed submission handle (for tests and extra app threads).
    pub fn handle(&self) -> ThreadedHandle {
        self.runtime.handle()
    }

    /// Stops every progression shard and returns the re-merged engine.
    pub fn shutdown(self) -> NmadEngine {
        self.runtime.shutdown()
    }

    fn token(&mut self) -> u64 {
        let t = self.next;
        self.next += 1;
        t
    }
}

impl MpiBackend for ShardedNmadBackend {
    fn name(&self) -> &'static str {
        "madmpi-sharded"
    }

    fn node(&self) -> NodeId {
        self.runtime.node()
    }

    fn isend_contig(&mut self, dst: NodeId, tag: Tag, data: Bytes) -> SendToken {
        let req = self.handle.isend(dst, tag, data);
        let t = self.token();
        self.sends.insert(t, req);
        SendToken(t)
    }

    fn isend_typed(&mut self, dst: NodeId, tag: Tag, buf: &[u8], dtype: &Datatype) -> SendToken {
        let parts: Vec<(Bytes, Priority)> = dtype
            .blocks()
            .iter()
            .map(|&(offset, len)| {
                (
                    Bytes::copy_from_slice(&buf[offset..offset + len]),
                    Priority::Normal,
                )
            })
            .collect();
        let req = self.handle.submit_send_parts(dst, tag, parts, None);
        let t = self.token();
        self.sends.insert(t, req);
        SendToken(t)
    }

    fn irecv_contig(&mut self, src: NodeId, tag: Tag, max: usize) -> RecvToken {
        let req = self.handle.post_recv(src, tag, max);
        let t = self.token();
        self.recvs.insert(t, NmadRecv::Contig(req));
        RecvToken(t)
    }

    fn irecv_typed(&mut self, src: NodeId, tag: Tag, dtype: &Datatype) -> RecvToken {
        let reqs: Vec<RecvReqId> = dtype
            .blocks()
            .iter()
            .map(|&(_, len)| self.handle.post_recv(src, tag, len))
            .collect();
        let t = self.token();
        self.recvs.insert(
            t,
            NmadRecv::Typed {
                reqs,
                dtype: dtype.clone(),
            },
        );
        RecvToken(t)
    }

    fn test_send(&mut self, token: SendToken) -> bool {
        let req = self.sends.get(&token.0).expect("unknown send token");
        self.handle.is_send_done(*req)
    }

    fn test_recv(&mut self, token: RecvToken) -> bool {
        match self.recvs.get(&token.0) {
            // Already taken ⇒ complete and inactive.
            None => true,
            Some(NmadRecv::Contig(req)) => self.handle.is_recv_done(*req),
            Some(NmadRecv::Typed { reqs, .. }) => reqs.iter().all(|&r| self.handle.is_recv_done(r)),
        }
    }

    fn take_recv(&mut self, token: RecvToken) -> Option<Vec<u8>> {
        if !self.test_recv(token) {
            return None;
        }
        match self.recvs.remove(&token.0)? {
            NmadRecv::Contig(req) => Some(
                self.handle
                    .try_take_recv(req)
                    .expect("tested")
                    .data
                    .to_vec(),
            ),
            NmadRecv::Typed { reqs, dtype } => {
                let parts: Vec<Vec<u8>> = reqs
                    .into_iter()
                    .map(|r| self.handle.try_take_recv(r).expect("tested").data.to_vec())
                    .collect();
                Some(dtype.scatter_blocks(&parts))
            }
        }
    }

    fn progress(&mut self) -> bool {
        // The progression threads pump in the background; the MPI
        // front-end's progress calls have nothing to do.
        false
    }

    fn frames_sent(&self) -> u64 {
        let (_, wire) = self.handle.hot_metrics();
        wire.frames_sent
    }

    fn probe(&self, _src: NodeId, _tag: Tag) -> Option<usize> {
        // Matching state lives on the progression threads; a probe RPC
        // is not worth a ring round-trip, so announce nothing.
        None
    }

    fn metrics(&self) -> Option<MetricsSnapshot> {
        Some(self.handle.metrics())
    }
}

// --- baselines over the direct engine -----------------------------------

enum DirectRecv {
    Contig(RecvReqId),
    Typed { req: RecvReqId, dtype: Datatype },
}

/// MPICH/OpenMPI-like backend: datatypes are packed into one contiguous
/// message; the flavour decides how the receive-side unpack overlaps
/// the wire.
pub struct DirectBackend {
    engine: DirectEngine,
    name: &'static str,
    typed_unpack: UnpackMode,
    recvs: HashMap<u64, DirectRecv>,
    sends: HashMap<u64, SendReqId>,
    next: u64,
}

impl DirectBackend {
    /// Wraps a baseline engine; the flavour decides datatype unpack accounting.
    pub fn new(engine: DirectEngine, cfg: &DirectConfig) -> Self {
        let (name, typed_unpack) = match cfg.name {
            "mpich" => ("mpich", UnpackMode::AtCompletion),
            "openmpi" => ("openmpi", UnpackMode::PerChunk),
            other => panic!("unknown baseline flavour {other}"),
        };
        DirectBackend {
            engine,
            name,
            typed_unpack,
            recvs: HashMap::new(),
            sends: HashMap::new(),
            next: 0,
        }
    }

    /// Access to the underlying engine (statistics inspection).
    pub fn engine(&self) -> &DirectEngine {
        &self.engine
    }

    fn token(&mut self) -> u64 {
        let t = self.next;
        self.next += 1;
        t
    }
}

impl MpiBackend for DirectBackend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn node(&self) -> NodeId {
        self.engine.node()
    }

    fn isend_contig(&mut self, dst: NodeId, tag: Tag, data: Bytes) -> SendToken {
        let req = self.engine.isend(dst, tag, data);
        let t = self.token();
        self.sends.insert(t, req);
        SendToken(t)
    }

    fn isend_typed(&mut self, dst: NodeId, tag: Tag, buf: &[u8], dtype: &Datatype) -> SendToken {
        // Pack every block into a contiguous staging buffer (§5.3):
        // one full memcpy on the critical path.
        self.engine.charge_memcpy(dtype.total_bytes());
        let packed = dtype.pack(buf);
        let req = self.engine.isend(dst, tag, packed);
        let t = self.token();
        self.sends.insert(t, req);
        SendToken(t)
    }

    fn irecv_contig(&mut self, src: NodeId, tag: Tag, max: usize) -> RecvToken {
        let req = self.engine.post_recv(src, tag, max, UnpackMode::None);
        let t = self.token();
        self.recvs.insert(t, DirectRecv::Contig(req));
        RecvToken(t)
    }

    fn irecv_typed(&mut self, src: NodeId, tag: Tag, dtype: &Datatype) -> RecvToken {
        let req = self
            .engine
            .post_recv(src, tag, dtype.total_bytes(), self.typed_unpack);
        let t = self.token();
        self.recvs.insert(
            t,
            DirectRecv::Typed {
                req,
                dtype: dtype.clone(),
            },
        );
        RecvToken(t)
    }

    fn test_send(&mut self, token: SendToken) -> bool {
        let req = self.sends.get(&token.0).expect("unknown send token");
        self.engine.is_send_done(*req)
    }

    fn test_recv(&mut self, token: RecvToken) -> bool {
        match self.recvs.get(&token.0) {
            // Already taken ⇒ complete and inactive.
            None => true,
            Some(DirectRecv::Contig(req)) | Some(DirectRecv::Typed { req, .. }) => {
                let req = *req;
                self.engine.is_recv_done(req)
            }
        }
    }

    fn take_recv(&mut self, token: RecvToken) -> Option<Vec<u8>> {
        if !self.test_recv(token) {
            return None;
        }
        match self.recvs.remove(&token.0)? {
            DirectRecv::Contig(req) => Some(
                self.engine
                    .try_take_recv(req)
                    .expect("tested")
                    .data
                    .to_vec(),
            ),
            DirectRecv::Typed { req, dtype } => {
                // The unpack *cost* was already charged (per flavour);
                // this is the host-side restructuring only.
                let packed = self.engine.try_take_recv(req).expect("tested").data;
                Some(dtype.unpack(&packed))
            }
        }
    }

    fn progress(&mut self) -> bool {
        self.engine.progress()
    }

    fn frames_sent(&self) -> u64 {
        self.engine.stats().messages_sent
    }

    fn probe(&self, src: NodeId, tag: Tag) -> Option<usize> {
        self.engine.probe(src, tag)
    }
}

#[cfg(test)]
mod sharded_backend_tests {
    use super::*;
    use nmad_core::{EngineCosts, StratAggreg};
    use nmad_net::mem::mem_fabric;
    use nmad_net::NullMeter;

    /// A two-node pair over `rails` in-memory rails per node, wrapped
    /// as sharded MAD-MPI backends.
    fn sharded_pair(rails: usize, shards: usize) -> (ShardedNmadBackend, ShardedNmadBackend) {
        let mut a_rails: Vec<Box<dyn nmad_net::Driver>> = Vec::new();
        let mut b_rails: Vec<Box<dyn nmad_net::Driver>> = Vec::new();
        for _ in 0..rails {
            let mut fabric = mem_fabric(2);
            let b = fabric.pop().unwrap();
            let a = fabric.pop().unwrap();
            a_rails.push(Box::new(a));
            b_rails.push(Box::new(b));
        }
        let launch = |drivers: Vec<Box<dyn nmad_net::Driver>>| {
            ShardedNmadBackend::launch(
                NmadEngine::new(
                    drivers,
                    Box::new(NullMeter),
                    Box::new(StratAggreg),
                    EngineCosts::zero(),
                ),
                EngineConfig::sharded(shards),
            )
        };
        (launch(a_rails), launch(b_rails))
    }

    #[test]
    fn sharded_backend_contig_roundtrip_across_shards() {
        let (mut a, mut b) = sharded_pair(2, 2);
        assert_eq!(a.shards(), 2);
        assert_eq!(a.name(), "madmpi-sharded");
        let n = 16u32;
        let recvs: Vec<_> = (0..n)
            .map(|t| b.irecv_contig(NodeId(0), Tag(t), 64))
            .collect();
        let sends: Vec<_> = (0..n)
            .map(|t| a.isend_contig(NodeId(1), Tag(t), Bytes::from(vec![t as u8; 40])))
            .collect();
        for s in sends {
            while !a.test_send(s) {
                std::thread::yield_now();
            }
        }
        for (t, r) in recvs.into_iter().enumerate() {
            loop {
                if let Some(data) = b.take_recv(r) {
                    assert_eq!(data, vec![t as u8; 40]);
                    break;
                }
                std::thread::yield_now();
            }
        }
        let merged = a.shutdown();
        assert_eq!(merged.rail_count(), 2);
        drop(b);
    }

    #[test]
    fn sharded_backend_typed_roundtrip() {
        let (mut a, mut b) = sharded_pair(2, 2);
        let dtype = Datatype::vector(3, 8, 16).unwrap();
        let buf: Vec<u8> = (0..dtype.extent()).map(|i| i as u8).collect();
        let r = b.irecv_typed(NodeId(0), Tag(7), &dtype);
        let s = a.isend_typed(NodeId(1), Tag(7), &buf, &dtype);
        while !a.test_send(s) {
            std::thread::yield_now();
        }
        let got = loop {
            if let Some(data) = b.take_recv(r) {
                break data;
            }
            std::thread::yield_now();
        };
        // Only the typed blocks carry data; gaps are zero-filled.
        for &(off, len) in dtype.blocks() {
            assert_eq!(&got[off..off + len], &buf[off..off + len]);
        }
    }
}
