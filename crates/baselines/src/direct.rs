//! Direct-mapping baseline engine.
//!
//! This is the classical synchronous design the paper contrasts with:
//! every application request is translated into network commands
//! *immediately* ("communication libraries, being synchronous, tightly
//! link the communication requests to the application workflow", §3.1).
//! There is no optimization window and no scheduler: one request, one
//! wire message. Back-to-back sends pipeline efficiently because the
//! NIC queues them (the paper credits MPICH with exactly this, §5.2) —
//! but each still pays its own posting overhead and header.
//!
//! Derived-datatype requests arrive here already packed into one
//! contiguous buffer (the MPI layer charges the copies), reproducing
//! the MPICH behaviour documented in §5.3.

use std::collections::{HashMap, HashSet, VecDeque};

use bytes::Bytes;

use crate::codec::{decode, Msg, HEADER_LEN};
use nmad_core::matching::{Effect, Matching, RecvDone};
use nmad_core::segment::{RecvReqId, SendReqId, SeqNo, Tag};
use nmad_net::{CpuMeter, Driver, NetResult, SendHandle};
use nmad_sim::NodeId;

/// How the MPI layer asked us to account receive-side datatype
/// unpacking for one posted receive.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum UnpackMode {
    /// Contiguous data: no datatype copy.
    #[default]
    None,
    /// Copy out chunk-by-chunk as data arrives, overlapping the wire
    /// (OpenMPI-flavoured pipelined unpack).
    PerChunk,
    /// One copy of the full message once everything has arrived
    /// (MPICH-flavoured temporary-area dispatch, §5.3).
    AtCompletion,
}

/// Identity and tuning of one baseline flavour.
#[derive(Clone, Debug)]
pub struct DirectConfig {
    /// Human-readable name.
    pub name: &'static str,
    /// Software cost charged per application request.
    pub per_request_ns: u64,
    /// Software cost charged per wire message built or parsed.
    pub per_message_ns: u64,
    /// Rendezvous data chunk size (pipelining granularity).
    pub rdv_chunk: usize,
}

/// MPICH-like flavour: lean request path, whole-message rendezvous
/// pipelined in large chunks.
pub fn mpich_config() -> DirectConfig {
    DirectConfig {
        name: "mpich",
        per_request_ns: 260,
        per_message_ns: 40,
        rdv_chunk: 256 * 1024,
    }
}

/// OpenMPI 1.1-like flavour: heavier per-request component stack
/// (visible as a constant shift in paper Fig. 2a/3a), finer rendezvous
/// chunks that let the receive side overlap unpacking.
pub fn ompi_config() -> DirectConfig {
    DirectConfig {
        name: "openmpi",
        per_request_ns: 650,
        per_message_ns: 50,
        rdv_chunk: 64 * 1024,
    }
}

type Key = (NodeId, Tag, SeqNo);

enum TxDone {
    Unit(SendReqId),
    RdvBytes { key: Key, bytes: usize },
}

struct RdvTx {
    sent: usize,
    total: usize,
    req: SendReqId,
}

/// The baseline engine. See the module documentation.
pub struct DirectEngine {
    node: NodeId,
    driver: Box<dyn Driver>,
    meter: Box<dyn CpuMeter>,
    cfg: DirectConfig,
    matching: Matching,
    inflight: VecDeque<(SendHandle, Vec<TxDone>)>,
    rdv_wait_cts: HashMap<Key, (Bytes, SendReqId)>,
    rdv_tx: HashMap<Key, RdvTx>,
    sends: HashMap<SendReqId, usize>,
    done_sends: HashSet<SendReqId>,
    unpack_modes: HashMap<Key, UnpackMode>,
    /// Receives with `AtCompletion` unpack: req → total bytes to copy
    /// when the application harvests completion.
    pending_unpack: HashMap<RecvReqId, usize>,
    recv_key: HashMap<Key, RecvReqId>,
    next_req: u64,
    next_seq: HashMap<(NodeId, Tag), SeqNo>,
    stats: DirectStats,
}

/// Wire counters (symmetrical to the engine's, for comparisons).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DirectStats {
    /// Wire messages sent.
    pub messages_sent: u64,
    /// Wire messages received.
    pub messages_received: u64,
}

impl DirectEngine {
    /// Builds a baseline endpoint over one driver.
    pub fn new(driver: Box<dyn Driver>, meter: Box<dyn CpuMeter>, cfg: DirectConfig) -> Self {
        DirectEngine {
            node: driver.local_node(),
            driver,
            meter,
            cfg,
            matching: Matching::new(),
            inflight: VecDeque::new(),
            rdv_wait_cts: HashMap::new(),
            rdv_tx: HashMap::new(),
            sends: HashMap::new(),
            done_sends: HashSet::new(),
            unpack_modes: HashMap::new(),
            pending_unpack: HashMap::new(),
            recv_key: HashMap::new(),
            next_req: 0,
            next_seq: HashMap::new(),
            stats: DirectStats::default(),
        }
    }

    /// Node the event belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        self.cfg.name
    }

    /// Wire-level counters since construction.
    pub fn stats(&self) -> &DirectStats {
        &self.stats
    }

    /// Accounts an MPI-layer memory copy (datatype pack/unpack).
    pub fn charge_memcpy(&mut self, bytes: usize) {
        self.meter.charge_memcpy(bytes);
    }

    fn alloc_seq(&mut self, dst: NodeId, tag: Tag) -> SeqNo {
        let slot = self.next_seq.entry((dst, tag)).or_insert(SeqNo(0));
        let seq = *slot;
        *slot = slot.next();
        seq
    }

    fn post_msg(&mut self, dst: NodeId, msg: &Msg<'_>, dones: Vec<TxDone>) -> NetResult<()> {
        self.meter.charge_ns(self.cfg.per_message_ns);
        let wire = msg.encode();
        let handle = self.driver.post_send(dst, &[&wire])?;
        self.inflight.push_back((handle, dones));
        self.stats.messages_sent += 1;
        Ok(())
    }

    /// Nonblocking send: maps the request straight onto the wire —
    /// eager below the driver's rendezvous threshold, RTS above it.
    pub fn isend(&mut self, dst: NodeId, tag: Tag, data: impl Into<Bytes>) -> SendReqId {
        assert_ne!(dst, self.node, "self-sends are not routed through NICs");
        let data: Bytes = data.into();
        self.meter.charge_ns(self.cfg.per_request_ns);
        let req = SendReqId(self.next_req);
        self.next_req += 1;
        let seq = self.alloc_seq(dst, tag);
        self.sends.insert(req, 1);
        if data.len() <= self.driver.caps().rdv_threshold {
            let msg = Msg::Eager {
                tag,
                seq,
                payload: &data,
            };
            self.post_msg(dst, &msg, vec![TxDone::Unit(req)])
                .expect("transport failure");
        } else {
            let total = u32::try_from(data.len()).expect("message above 4 GiB");
            let msg = Msg::Rts { tag, seq, total };
            self.rdv_wait_cts.insert((dst, tag, seq), (data, req));
            self.post_msg(dst, &msg, vec![]).expect("transport failure");
        }
        req
    }

    /// Posts a receive; `mode` tells the engine how to account
    /// receive-side datatype unpacking.
    pub fn post_recv(&mut self, src: NodeId, tag: Tag, max: usize, mode: UnpackMode) -> RecvReqId {
        self.meter.charge_ns(self.cfg.per_request_ns);
        let req = RecvReqId(self.next_req);
        self.next_req += 1;
        let (seq, effects) = self.matching.post_recv(src, tag, max, req);
        let key = (src, tag, seq);
        if mode != UnpackMode::None {
            self.unpack_modes.insert(key, mode);
            self.recv_key.insert(key, req);
        }
        // The receive may have completed instantly off the unexpected
        // queue; account its unpack now.
        if self.matching.is_done(req) {
            if let Some(UnpackMode::PerChunk | UnpackMode::AtCompletion) =
                self.unpack_modes.remove(&key)
            {
                self.recv_key.remove(&key);
                self.meter.charge_memcpy(max);
            }
        }
        self.apply_effects(effects);
        req
    }

    /// Is send done.
    pub fn is_send_done(&self, req: SendReqId) -> bool {
        self.done_sends.contains(&req)
    }

    /// True once the receive completed *and* any completion-time unpack
    /// has been accounted.
    pub fn is_recv_done(&mut self, req: RecvReqId) -> bool {
        if !self.matching.is_done(req) {
            return false;
        }
        if let Some(total) = self.pending_unpack.remove(&req) {
            // MPICH dispatches from the temporary area exactly once,
            // when the library observes completion.
            self.meter.charge_memcpy(total);
        }
        true
    }

    /// Try take recv.
    pub fn try_take_recv(&mut self, req: RecvReqId) -> Option<RecvDone> {
        if !self.is_recv_done(req) {
            return None;
        }
        self.matching.try_take_done(req)
    }

    /// Non-destructive probe (MPI_Iprobe-style).
    pub fn probe(&self, src: NodeId, tag: Tag) -> Option<usize> {
        self.matching.probe(src, tag)
    }

    fn apply_effects(&mut self, effects: Vec<Effect>) {
        for effect in effects {
            match effect {
                Effect::ChargeCopy(bytes) => self.meter.charge_memcpy(bytes),
                Effect::SendCts {
                    dst,
                    tag,
                    seq,
                    total,
                } => {
                    let msg = Msg::Cts { tag, seq, total };
                    self.post_msg(dst, &msg, vec![]).expect("transport failure");
                }
                // The baseline runs over a perfect fabric: duplicates
                // never occur, so there is nothing to count.
                Effect::DuplicateDropped => {}
            }
        }
    }

    fn complete_send(&mut self, req: SendReqId) {
        let remaining = self.sends.get_mut(&req).expect("unknown send");
        *remaining -= 1;
        if *remaining == 0 {
            self.sends.remove(&req);
            self.done_sends.insert(req);
        }
    }

    fn send_rdv_data(&mut self, dst: NodeId, tag: Tag, seq: SeqNo) {
        let key = (dst, tag, seq);
        let (data, req) = self
            .rdv_wait_cts
            .remove(&key)
            .expect("CTS for a rendezvous we never announced");
        self.rdv_tx.insert(
            key,
            RdvTx {
                sent: 0,
                total: data.len(),
                req,
            },
        );
        // Push every chunk now; the NIC queue pipelines them.
        let chunk_len = self
            .cfg
            .rdv_chunk
            .min(self.driver.caps().mtu.saturating_sub(HEADER_LEN))
            .max(1);
        let mut offset = 0usize;
        while offset < data.len() {
            let end = (offset + chunk_len).min(data.len());
            let msg = Msg::RdvChunk {
                tag,
                seq,
                offset: u32::try_from(offset).expect("message above 4 GiB"),
                last: end == data.len(),
                payload: &data[offset..end],
            };
            self.post_msg(
                dst,
                &msg,
                vec![TxDone::RdvBytes {
                    key,
                    bytes: end - offset,
                }],
            )
            .expect("transport failure");
            offset = end;
        }
    }

    fn handle_msg(&mut self, src: NodeId, wire: &[u8]) -> NetResult<()> {
        self.stats.messages_received += 1;
        self.meter.charge_ns(self.cfg.per_message_ns);
        let msg = decode(wire).map_err(|e| {
            nmad_net::NetError::Protocol(format!("malformed message from {src}: {e}"))
        })?;
        match msg {
            Msg::Eager { tag, seq, payload } => {
                // The direct baseline stays copy-based on purpose: it
                // bounces the eager payload through an owned buffer the
                // way a classical library would.
                let fx = self
                    .matching
                    .on_data(src, tag, seq, payload.to_vec().into());
                self.apply_effects(fx);
                self.note_unpack(src, tag, seq, payload.len(), payload.len());
            }
            Msg::Rts { tag, seq, total } => {
                let fx = self.matching.on_rts(src, tag, seq, total);
                self.apply_effects(fx);
            }
            Msg::Cts { tag, seq, .. } => self.send_rdv_data(src, tag, seq),
            Msg::RdvChunk {
                tag,
                seq,
                offset,
                last: _,
                payload,
            } => {
                let zero_copy = self.driver.caps().supports_rdma;
                let fx = self
                    .matching
                    .on_rdv_chunk(src, tag, seq, offset, payload, zero_copy);
                self.apply_effects(fx);
                self.note_unpack(
                    src,
                    tag,
                    seq,
                    payload.len(),
                    offset as usize + payload.len(),
                );
            }
        }
        Ok(())
    }

    /// Accounts datatype unpack costs for arrived data on (src, tag,
    /// seq): per-chunk modes charge now, at-completion modes accumulate.
    fn note_unpack(&mut self, src: NodeId, tag: Tag, seq: SeqNo, chunk: usize, high_water: usize) {
        let key = (src, tag, seq);
        let Some(&mode) = self.unpack_modes.get(&key) else {
            return;
        };
        match mode {
            UnpackMode::None => {}
            UnpackMode::PerChunk => {
                self.meter.charge_memcpy(chunk);
                if let Some(&req) = self.recv_key.get(&key) {
                    if self.matching.is_done(req) {
                        self.unpack_modes.remove(&key);
                        self.recv_key.remove(&key);
                    }
                }
            }
            UnpackMode::AtCompletion => {
                let req = *self.recv_key.get(&key).expect("mode without req");
                let total = self.pending_unpack.entry(req).or_insert(0);
                *total = (*total).max(high_water);
                if self.matching.is_done(req) {
                    self.unpack_modes.remove(&key);
                    self.recv_key.remove(&key);
                }
            }
        }
    }

    /// One pump: drain receives and harvest transmit completions.
    /// There is nothing to refill — direct mapping posts eagerly.
    pub fn try_progress(&mut self) -> NetResult<bool> {
        let mut any = false;
        self.driver.pump()?;
        while let Some(frame) = self.driver.poll_recv()? {
            self.handle_msg(frame.src, &frame.payload)?;
            any = true;
        }
        while let Some(handle) = self.inflight.front().map(|(h, _)| *h) {
            if !self.driver.test_send(handle)? {
                break;
            }
            let (_, dones) = self.inflight.pop_front().expect("checked");
            for done in dones {
                match done {
                    TxDone::Unit(req) => self.complete_send(req),
                    TxDone::RdvBytes { key, bytes } => {
                        let finished = {
                            let tx = self.rdv_tx.get_mut(&key).expect("unknown rdv tx");
                            tx.sent += bytes;
                            (tx.sent == tx.total).then_some(tx.req)
                        };
                        if let Some(req) = finished {
                            self.rdv_tx.remove(&key);
                            self.complete_send(req);
                        }
                    }
                }
            }
            any = true;
        }
        Ok(any)
    }

    /// [`try_progress`](Self::try_progress), panicking on transport
    /// failure.
    pub fn progress(&mut self) -> bool {
        self.try_progress().expect("transport failure")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmad_net::sim::SimDriver;
    use nmad_sim::{nic, run_until, shared_world, RailId, SharedWorld, SimConfig};
    use std::ops::ControlFlow;

    fn pair(cfg: fn() -> DirectConfig) -> (SharedWorld, DirectEngine, DirectEngine) {
        let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
        let mk = |n: u32| {
            let d = SimDriver::new(world.clone(), NodeId(n), RailId(0));
            let m = Box::new(d.meter());
            DirectEngine::new(Box::new(d), m, cfg())
        };
        (world.clone(), mk(0), mk(1))
    }

    fn pump(
        world: &SharedWorld,
        a: &mut DirectEngine,
        b: &mut DirectEngine,
        mut done: impl FnMut(&mut DirectEngine, &mut DirectEngine) -> bool,
    ) {
        run_until(world, || {
            let moved = a.progress() | b.progress();
            if done(a, b) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(moved)
            }
        })
        .expect("no deadlock");
    }

    #[test]
    fn eager_roundtrip() {
        let (world, mut a, mut b) = pair(mpich_config);
        let s = a.isend(NodeId(1), Tag(1), &b"direct"[..]);
        let r = b.post_recv(NodeId(0), Tag(1), 32, UnpackMode::None);
        pump(&world, &mut a, &mut b, |a, b| {
            a.is_send_done(s) && b.is_recv_done(r)
        });
        assert_eq!(b.try_take_recv(r).unwrap().data, b"direct");
    }

    #[test]
    fn rendezvous_roundtrip_large_message() {
        let (world, mut a, mut b) = pair(mpich_config);
        let body: Vec<u8> = (0..150_000u32).map(|i| (i % 127) as u8).collect();
        let s = a.isend(NodeId(1), Tag(2), body.clone());
        let r = b.post_recv(NodeId(0), Tag(2), body.len(), UnpackMode::None);
        pump(&world, &mut a, &mut b, |a, b| {
            a.is_send_done(s) && b.is_recv_done(r)
        });
        assert_eq!(b.try_take_recv(r).unwrap().data, body);
    }

    #[test]
    fn one_message_per_request_no_aggregation() {
        let (world, mut a, mut b) = pair(mpich_config);
        let sends: Vec<_> = (0..8)
            .map(|t| a.isend(NodeId(1), Tag(t), vec![0u8; 64]))
            .collect();
        let recvs: Vec<_> = (0..8)
            .map(|t| b.post_recv(NodeId(0), Tag(t), 64, UnpackMode::None))
            .collect();
        pump(&world, &mut a, &mut b, |a, b| {
            sends.iter().all(|&s| a.is_send_done(s)) && recvs.iter().all(|&r| b.is_recv_done(r))
        });
        assert_eq!(a.stats().messages_sent, 8, "the defining baseline property");
    }

    #[test]
    fn at_completion_unpack_charges_cpu_once() {
        let (world, mut a, mut b) = pair(mpich_config);
        let body = vec![9u8; 200_000];
        let s = a.isend(NodeId(1), Tag(0), body.clone());
        let r = b.post_recv(NodeId(0), Tag(0), body.len(), UnpackMode::AtCompletion);
        pump(&world, &mut a, &mut b, |a, b| {
            a.is_send_done(s) && b.is_recv_done(r)
        });
        let cpu_after = world.lock().cpu_free_at(NodeId(1));
        // The unpack charge pushed node 1's CPU account past `now` by
        // roughly memcpy(200 KB) ≈ 77 us.
        let lag = cpu_after.saturating_since(world.lock().now());
        assert!(
            lag.as_us_f64() > 50.0,
            "expected completion-time unpack charge, lag {lag}"
        );
    }

    #[test]
    fn unexpected_then_posted_recv_still_completes() {
        let (world, mut a, mut b) = pair(ompi_config);
        let s = a.isend(NodeId(1), Tag(5), &b"early"[..]);
        pump(&world, &mut a, &mut b, |a, _| a.is_send_done(s));
        // Drain delivery into the unexpected queue.
        pump(&world, &mut a, &mut b, |_, b| {
            b.stats().messages_received > 0
        });
        let r = b.post_recv(NodeId(0), Tag(5), 16, UnpackMode::None);
        assert!(b.is_recv_done(r));
        assert_eq!(b.try_take_recv(r).unwrap().data, b"early");
    }
}
