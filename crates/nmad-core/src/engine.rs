//! The NewMadeleine engine: collect layer, scheduler, transfer layer.
//!
//! One [`NmadEngine`] instance runs per node. It owns:
//!
//! * the node's drivers (one per NIC/rail) — the transfer layer;
//! * the optimization [`Window`] — where submitted segments accumulate
//!   while NICs are busy;
//! * a pluggable [`Strategy`] — queried whenever a NIC goes idle, to
//!   synthesize the next frame out of the window (§3.2–3.3);
//! * the receiver-side [`Matching`] state.
//!
//! The engine is a polled state machine: [`NmadEngine::progress`] pumps
//! receives, transmit completions and NIC refills once, and reports
//! whether anything moved. On simulated transports the co-simulation
//! loop of [`nmad_sim::runner`] drives it; on real transports any
//! thread loop does.

use std::collections::VecDeque;

use bytes::Bytes;

use crate::matching::{Effect, Matching, RecvDone};
use crate::metrics::{EngineMetrics, MetricsSnapshot, NicMetrics};
use crate::segment::{PackWrapper, Priority, RecvReqId, SendReqId, SeqNo, Tag};
use crate::strategy::{FramePlan, NicView, PlanEntry, Strategy};
use crate::window::{CtrlMsg, RdvJob, Window};
use crate::wire::{parse_frame, Entry, FrameEncoder};
use nmad_net::{CpuMeter, Driver, NetResult, SendHandle, StrategyDecision};
use nmad_sim::{FxHashMap, FxHashSet, NodeId, RailReadiness, SoftwareCosts};

/// Per-operation software costs the engine charges to its CPU meter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineCosts {
    /// Collect-layer cost per application send request.
    pub per_request_ns: u64,
    /// Matching-structure cost per posted receive.
    pub per_recv_ns: u64,
    /// Scheduler cost per ready-list inspection (frame synthesis).
    pub scheduler_inspect_ns: u64,
    /// Cost per wire entry packed or unpacked.
    pub per_entry_ns: u64,
}

impl EngineCosts {
    /// From software.
    pub fn from_software(costs: &SoftwareCosts) -> Self {
        EngineCosts {
            per_request_ns: costs.per_request.as_ns(),
            per_recv_ns: costs.per_recv.as_ns(),
            scheduler_inspect_ns: costs.scheduler_inspect.as_ns(),
            per_entry_ns: costs.per_entry.as_ns(),
        }
    }

    /// Free engine (real transports pay in real time).
    pub fn zero() -> Self {
        EngineCosts {
            per_request_ns: 0,
            per_recv_ns: 0,
            scheduler_inspect_ns: 0,
            per_entry_ns: 0,
        }
    }
}

/// How split engines ([`NmadEngine::split_for_shards`]) assign a flow
/// to a shard.
///
/// Routing hashes the **unordered node pair** of a flow plus its tag,
/// never one endpoint alone: the two peers of a link then agree on the
/// owning shard index, and because rails are partitioned identically
/// on every node (shard `s` owns rails `{r : r % shards == s}`), a
/// frame transmitted on shard `s`'s rails arrives on the receiving
/// node's shard `s` — the owner of every flow it carries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Flows of one node pair spread over shards by tag, so even a
    /// two-node workload with several logical flows exercises every
    /// shard.
    #[default]
    HashByDest,
}

impl ShardPolicy {
    /// The shard owning flow `(a, b, tag)` among `shards` shards.
    /// Symmetric in `a`/`b` and deterministic across processes.
    pub fn route(self, shards: usize, a: NodeId, b: NodeId, tag: Tag) -> usize {
        if shards <= 1 {
            return 0;
        }
        let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
        let mut h = (u64::from(lo) << 32) | u64::from(hi);
        h ^= u64::from(tag.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // splitmix64 finalizer — deterministic, no global state.
        h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        (h % shards as u64) as usize
    }
}

/// A split engine's identity: which shard it is, how many exist, and
/// the routing policy every participant uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ShardRoute {
    /// This engine's shard index.
    shard: usize,
    /// Total shard count.
    shards: usize,
    /// The flow-routing policy.
    policy: ShardPolicy,
}

impl ShardRoute {
    /// The shard owning the flow between this node and `peer` on `tag`.
    fn owner(&self, node: NodeId, peer: NodeId, tag: Tag) -> usize {
        self.policy.route(self.shards, node, peer, tag)
    }
}

/// Configuration of the threaded progression runtime
/// ([`ThreadedEngine::launch`](crate::threaded::ThreadedEngine::launch)).
/// It carries no option: the runtime always runs one progression
/// thread over every rail of its engine. The type stays so that
/// `ThreadedEngine::launch(engine, EngineConfig::threaded())` keeps
/// compiling. The application thread drives an engine inline by
/// calling [`NmadEngine::progress`] itself and needs no configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig;

impl EngineConfig {
    /// One progression thread owning the whole engine.
    pub fn threaded() -> Self {
        EngineConfig
    }
}

/// Point-in-time snapshot of an engine's internal queues (debugging,
/// deadlock reports).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineDiagnostics {
    /// Node the event belongs to.
    pub node: NodeId,
    /// The engine's strategy name.
    pub strategy: &'static str,
    /// Application segments accumulated in the window.
    pub window_segments: usize,
    /// Whether granted rendezvous data is queued.
    pub window_has_rdv: bool,
    /// Announced rendezvous transfers awaiting their grant.
    pub rts_awaiting_cts: usize,
    /// Granted rendezvous transfers still moving bytes.
    pub rdv_transfers_in_progress: usize,
    /// Send requests not yet fully transmitted.
    pub sends_pending: usize,
    /// Posted receives not yet matched.
    pub recvs_posted: usize,
    /// Unexpected segments staged in bounce buffers.
    pub unexpected: usize,
    /// Frames posted to drivers, transmit not yet complete.
    pub frames_in_flight: usize,
    /// NICs marked dead after refused sends.
    pub dead_nics: usize,
}

impl std::fmt::Display for EngineDiagnostics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}]: window={} rdv(wait_cts={}, in_progress={}, queued={}) \
             sends={} recvs={} unexpected={} inflight={} dead_nics={}",
            self.node,
            self.strategy,
            self.window_segments,
            self.rts_awaiting_cts,
            self.rdv_transfers_in_progress,
            self.window_has_rdv,
            self.sends_pending,
            self.recvs_posted,
            self.unexpected,
            self.frames_in_flight,
            self.dead_nics,
        )
    }
}

/// Wire-level counters, used by tests and harnesses to verify claims
/// like "aggregation sent one frame where the baseline sent eight".
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Wire frames sent.
    pub frames_sent: u64,
    /// Wire frames received.
    pub frames_received: u64,
    /// Eager data entries sent.
    pub data_entries: u64,
    /// Rendezvous request-to-send entries sent.
    pub rts_entries: u64,
    /// Rendezvous grant entries sent.
    pub cts_entries: u64,
    /// Rendezvous data chunks sent.
    pub chunk_entries: u64,
    /// Frames that required a staging copy because the NIC could not
    /// gather enough segments.
    pub staging_copies: u64,
    /// Always 0: the engine has no eager credit flow control. Kept
    /// because the benchmark harness (`perfbench/src/tailsim.rs`)
    /// reads it.
    pub credit_stalls: u64,
    /// Always 0, for the same reason as
    /// [`credit_stalls`](Self::credit_stalls).
    pub credit_frames: u64,
}

impl EngineStats {
    /// Adds `other`'s counters into `self` — aggregation across the
    /// engines [`NmadEngine::split_for_shards`] returns.
    pub fn absorb(&mut self, other: &EngineStats) {
        self.frames_sent += other.frames_sent;
        self.frames_received += other.frames_received;
        self.data_entries += other.data_entries;
        self.rts_entries += other.rts_entries;
        self.cts_entries += other.cts_entries;
        self.chunk_entries += other.chunk_entries;
        self.staging_copies += other.staging_copies;
        self.credit_stalls += other.credit_stalls;
        self.credit_frames += other.credit_frames;
    }
}

type RdvKey = (NodeId, Tag, SeqNo);

enum TxDone {
    /// One eager segment of this request left the host.
    Unit(SendReqId),
    /// `bytes` of a rendezvous segment left the host.
    RdvBytes { key: RdvKey, bytes: usize },
}

struct RdvTx {
    sent: usize,
    total: usize,
    req: SendReqId,
}

/// Bounded recycling pool for frame buffers. Transmit-side header
/// blocks and staging buffers return here once the NIC reports the
/// send complete; receive-side frame buffers return once every eager
/// slice taken from them has been delivered (the `Arc` inside
/// [`Bytes`] tells us). Reuse keeps the steady-state hot path free of
/// allocator traffic — the paper's engine likewise recycles its iovec
/// and bounce buffers per rail.
struct FramePool {
    bufs: Vec<Vec<u8>>,
    cap: usize,
}

impl FramePool {
    fn new(cap: usize) -> Self {
        FramePool {
            bufs: Vec::new(),
            cap,
        }
    }

    /// A cleared buffer, recycled when possible. Counts the hit or
    /// miss in the engine metrics.
    fn take(&mut self, metrics: &mut EngineMetrics) -> Vec<u8> {
        match self.bufs.pop() {
            Some(mut buf) => {
                buf.clear();
                metrics.pool_hits += 1;
                buf
            }
            None => {
                metrics.pool_misses += 1;
                Vec::new()
            }
        }
    }

    /// Returns a buffer for reuse; beyond the cap it is simply freed.
    fn put(&mut self, buf: Vec<u8>) {
        if self.bufs.len() < self.cap {
            self.bufs.push(buf);
        }
    }
}

/// A posted frame whose transmit has not completed.
struct InflightFrame {
    handle: SendHandle,
    /// Instant (ns) the send completes: the rail's transmit-free
    /// instant read right after the post. `u64::MAX` on a rail whose
    /// driver gives no readiness hint, where nothing reads it.
    tx_end: u64,
    dones: Vec<TxDone>,
    /// The plan the frame was built from, so a rail fault can hand
    /// the stranded work back to the window (the receiver's matching
    /// layer drops whatever the rail did manage to deliver).
    plan: FramePlan,
    /// Header-block and staging buffers the NIC is still reading
    /// (gather DMA pins them until completion); recycled through the
    /// pool when `test_send` reports done.
    bufs: Vec<Vec<u8>>,
}

struct NicState {
    driver: Box<dyn Driver>,
    /// The driver's readiness slot ([`Driver::readiness`]), taken when
    /// the engine is built or split and when the rail gets a fault
    /// plan; `None` when the driver gives no hint.
    ready: Option<RailReadiness>,
    inflight: VecDeque<InflightFrame>,
    /// Set when the driver refused a send (transport/NIC failure);
    /// the refill loop stops offering this NIC work.
    dead: bool,
    /// Kept by a pump that moved nothing (see `NmadEngine::quiet`):
    /// the front in-flight send's transmit end, `u64::MAX` with none.
    quiet_tx_end: u64,
    /// Kept with it: whether the window held work for this rail.
    quiet_work: bool,
}

impl NicState {
    fn new(driver: Box<dyn Driver>) -> Self {
        NicState {
            ready: driver.readiness(),
            driver,
            inflight: VecDeque::new(),
            dead: false,
            quiet_tx_end: u64::MAX,
            quiet_work: false,
        }
    }

    /// The quiet check of one rail: true while none of the instants
    /// that would change its driver's answers has been reached.
    fn quiet(&self) -> bool {
        if self.dead {
            return true;
        }
        let Some(ready) = &self.ready else {
            return false;
        };
        let now = ready.now_ns();
        self.quiet_tx_end > now
            && ready.rx_ready_at() > now
            && !(self.quiet_work && ready.tx_free_at() <= now)
    }
}

/// The engine. See the module documentation.
pub struct NmadEngine {
    node: NodeId,
    nics: Vec<NicState>,
    meter: Box<dyn CpuMeter>,
    strategy: Box<dyn Strategy>,
    window: Window,
    matching: Matching,
    /// RTS sent, data parked until the CTS returns.
    rdv_wait_cts: FxHashMap<RdvKey, (Bytes, SendReqId)>,
    /// Granted rendezvous transfers: transmit-side byte accounting.
    rdv_tx: FxHashMap<RdvKey, RdvTx>,
    /// Rendezvous transfers that fully completed (transmit side); a
    /// late duplicate grant must never restart one.
    rdv_done: FxHashSet<RdvKey>,
    /// Send requests → segments still in flight.
    sends: FxHashMap<SendReqId, usize>,
    done_sends: FxHashSet<SendReqId>,
    next_req: u64,
    next_seq: FxHashMap<(NodeId, Tag), SeqNo>,
    order: u64,
    costs: EngineCosts,
    stats: EngineStats,
    metrics: EngineMetrics,
    pool: FramePool,
    /// Shard identity when this engine is one of the parts
    /// [`split_for_shards`](Self::split_for_shards) returned; `None`
    /// for a monolithic engine.
    route: Option<ShardRoute>,
    /// Unexpected-queue depth at which the engine signals receive-side
    /// backpressure to its drivers ([`Driver::set_rx_backpressure`]).
    rx_saturation_cap: usize,
    /// Whether the backpressure signal is currently raised.
    rx_backpressured: bool,
    /// Whether every rail's driver gives a readiness hint.
    hinted: bool,
    /// Set by a pump that moved nothing over hinted rails; cleared by
    /// the next full pump and by every other `&mut self` call. While it
    /// holds and no live rail's kept instant has been reached, a full
    /// pump would get the same answers from every driver and move
    /// nothing, so [`try_progress`](Self::try_progress) returns at once.
    /// The inbox head is re-read rather than kept because it is the one
    /// of these instants another engine moves: a peer's post can land
    /// ahead of it.
    quiet: bool,
}

/// Default unexpected-queue depth that raises receive-side
/// backpressure. Generous — a receiver this far behind on matching
/// gains nothing from buffering more eager traffic; parking the
/// sockets lets the transport's flow control push back on senders.
const DEFAULT_RX_SATURATION_CAP: usize = 4096;

impl NmadEngine {
    /// Builds an engine over `drivers` (one per rail, all bound to the
    /// same node).
    pub fn new(
        drivers: Vec<Box<dyn Driver>>,
        meter: Box<dyn CpuMeter>,
        strategy: Box<dyn Strategy>,
        costs: EngineCosts,
    ) -> Self {
        Self::build(drivers, meter, strategy, costs, None)
    }

    /// The one constructor behind [`new`](Self::new) and
    /// [`split_for_shards`](Self::split_for_shards): an engine that has
    /// not run, its strategy initialised with `drivers`' capabilities.
    fn build(
        drivers: Vec<Box<dyn Driver>>,
        meter: Box<dyn CpuMeter>,
        mut strategy: Box<dyn Strategy>,
        costs: EngineCosts,
        route: Option<ShardRoute>,
    ) -> Self {
        assert!(!drivers.is_empty(), "engine needs at least one driver");
        let node = drivers[0].local_node();
        assert!(
            drivers.iter().all(|d| d.local_node() == node),
            "all drivers must belong to the same node"
        );
        let caps: Vec<_> = drivers.iter().map(|d| d.caps().clone()).collect();
        strategy.init(&caps);
        let window = Window::new(drivers.len());
        let nics: Vec<NicState> = drivers.into_iter().map(NicState::new).collect();
        NmadEngine {
            node,
            hinted: nics.iter().all(|n| n.ready.is_some()),
            nics,
            meter,
            strategy,
            window,
            matching: Matching::new(),
            rdv_wait_cts: FxHashMap::default(),
            rdv_tx: FxHashMap::default(),
            rdv_done: FxHashSet::default(),
            sends: FxHashMap::default(),
            done_sends: FxHashSet::default(),
            next_req: 0,
            next_seq: FxHashMap::default(),
            order: 0,
            costs,
            stats: EngineStats::default(),
            metrics: EngineMetrics::default(),
            pool: FramePool::new(64),
            route,
            rx_saturation_cap: DEFAULT_RX_SATURATION_CAP,
            rx_backpressured: false,
            quiet: false,
        }
    }

    /// Node the event belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of rails (drivers) this engine owns.
    pub fn rail_count(&self) -> usize {
        self.nics.len()
    }

    /// Strategy name.
    pub fn strategy_name(&self) -> &'static str {
        self.strategy.name()
    }

    /// Wire-level counters since construction.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Collect- and scheduling-layer counters since construction.
    pub fn engine_metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// The engine's counters with the endpoint-layer section folded in
    /// from the drivers (their cumulative [`nmad_net::EndpointStats`],
    /// summed across rails). This is what snapshots carry; the plain
    /// [`engine_metrics`](Self::engine_metrics) cells never hold
    /// endpoint counts — the drivers own them.
    fn merged_engine_metrics(&self) -> EngineMetrics {
        let mut ep = nmad_net::EndpointStats::default();
        for nic in &self.nics {
            ep.absorb(&nic.driver.endpoint_stats());
        }
        let mut merged = self.metrics;
        merged.set_endpoint(&ep);
        merged
    }

    /// A point-in-time snapshot of every observable counter: engine
    /// metrics, wire statistics and per-NIC link counters. Cheap —
    /// a few copies plus one `link_stats` call per driver.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            strategy: self.strategy.name(),
            engine: self.merged_engine_metrics(),
            wire: self.stats.clone(),
            nics: self
                .nics
                .iter()
                .map(|n| NicMetrics {
                    name: n.driver.caps().name.clone(),
                    link: n.driver.link_stats(),
                })
                .collect(),
        }
    }

    /// Segments currently accumulated in the optimization window,
    /// common and rail-dedicated lists alike.
    pub fn window_depth(&self) -> usize {
        self.window.len()
    }

    /// Snapshot of the engine's internal state for debugging and
    /// deadlock reports.
    pub fn diagnostics(&self) -> EngineDiagnostics {
        EngineDiagnostics {
            node: self.node,
            strategy: self.strategy.name(),
            window_segments: self.window.len(),
            window_has_rdv: self.window.has_rdv(),
            rts_awaiting_cts: self.rdv_wait_cts.len(),
            rdv_transfers_in_progress: self.rdv_tx.len(),
            sends_pending: self.sends.len(),
            recvs_posted: self.matching.posted_count(),
            unexpected: self.matching.unexpected_count(),
            frames_in_flight: self.nics.iter().map(|n| n.inflight.len()).sum(),
            dead_nics: self.nics.iter().filter(|n| n.dead).count(),
        }
    }

    fn alloc_send_req(&mut self) -> SendReqId {
        let req = SendReqId(self.next_req);
        self.next_req += 1;
        req
    }

    fn alloc_recv_req(&mut self) -> RecvReqId {
        let req = RecvReqId(self.next_req);
        self.next_req += 1;
        req
    }

    fn alloc_seq(&mut self, dst: NodeId, tag: Tag) -> SeqNo {
        let slot = self.next_seq.entry((dst, tag)).or_insert(SeqNo(0));
        let seq = *slot;
        *slot = slot.next();
        seq
    }

    /// Submits one application send made of `parts` segments (the
    /// incremental pack interface produces several; `isend` exactly
    /// one). All segments share the returned request, which completes
    /// when every one has left the host.
    pub fn submit_send_parts(
        &mut self,
        dst: NodeId,
        tag: Tag,
        parts: Vec<(Bytes, Priority)>,
        rail_hint: Option<usize>,
    ) -> SendReqId {
        let req = self.alloc_send_req();
        self.submit_send_parts_as(req, dst, tag, parts, rail_hint);
        req
    }

    /// [`submit_send_parts`](Self::submit_send_parts) under a
    /// caller-allocated request id. The threaded front-end allocates
    /// ids on the application thread (one atomic) so the application
    /// holds its handle before the operation ever crosses the
    /// submission ring.
    pub fn submit_send_parts_as(
        &mut self,
        req: SendReqId,
        dst: NodeId,
        tag: Tag,
        parts: Vec<(Bytes, Priority)>,
        rail_hint: Option<usize>,
    ) {
        self.submit_parts(req, dst, tag, parts.into_iter(), rail_hint);
    }

    /// Nonblocking single-segment send.
    pub fn isend(&mut self, dst: NodeId, tag: Tag, data: impl Into<Bytes>) -> SendReqId {
        let req = self.alloc_send_req();
        let part = std::iter::once((data.into(), Priority::Normal));
        self.submit_parts(req, dst, tag, part, None);
        req
    }

    /// The submit path over any exact-size source of parts, so `isend`
    /// queues its one segment without building a `Vec`.
    fn submit_parts(
        &mut self,
        req: SendReqId,
        dst: NodeId,
        tag: Tag,
        parts: impl ExactSizeIterator<Item = (Bytes, Priority)>,
        rail_hint: Option<usize>,
    ) {
        assert_ne!(dst, self.node, "self-sends are not routed through NICs"); // PANIC-OK: API misuse guard at submit; not data-dependent
        self.quiet = false;
        self.meter.charge_ns(self.costs.per_request_ns);
        self.metrics.requests_submitted += 1;
        if parts.len() == 0 {
            self.done_sends.insert(req);
            return;
        }
        self.sends.insert(req, parts.len());
        for (data, priority) in parts {
            self.metrics.bytes_enqueued += data.len() as u64;
            let seq = self.alloc_seq(dst, tag);
            let order = self.order;
            self.order += 1;
            self.window.push_segment(
                PackWrapper {
                    dst,
                    tag,
                    seq,
                    priority,
                    data,
                    req,
                    order,
                },
                rail_hint,
            );
        }
        self.metrics.observe_window_depth(self.window.len());
    }

    /// Posts a receive of up to `max` bytes for the next segment of
    /// flow (src, tag).
    pub fn post_recv(&mut self, src: NodeId, tag: Tag, max: usize) -> RecvReqId {
        let req = self.alloc_recv_req();
        self.post_recv_as(req, src, tag, max);
        req
    }

    /// [`post_recv`](Self::post_recv) under a caller-allocated request
    /// id (the threaded front-end's submission path).
    pub fn post_recv_as(&mut self, req: RecvReqId, src: NodeId, tag: Tag, max: usize) {
        self.quiet = false;
        self.meter.charge_ns(self.costs.per_recv_ns);
        self.metrics.recvs_posted += 1;
        let (_seq, effects) = self.matching.post_recv(src, tag, max, req);
        self.apply_effects(effects);
    }

    /// True once the send request has fully left the host.
    pub fn is_send_done(&self, req: SendReqId) -> bool {
        self.done_sends.contains(&req)
    }

    /// True once the receive completed (non-destructive).
    pub fn is_recv_done(&self, req: RecvReqId) -> bool {
        self.matching.is_done(req)
    }

    /// Takes a completed receive's payload.
    pub fn try_take_recv(&mut self, req: RecvReqId) -> Option<RecvDone> {
        self.quiet = false;
        self.matching.try_take_done(req)
    }

    /// Non-destructive probe (MPI_Iprobe-style): the length of the next
    /// segment of flow (src, tag) if it has already arrived or been
    /// announced via rendezvous.
    pub fn probe(&self, src: NodeId, tag: Tag) -> Option<usize> {
        self.matching.probe(src, tag)
    }

    fn apply_effects(&mut self, effects: Vec<Effect>) {
        for effect in effects {
            match effect {
                Effect::ChargeCopy(bytes) => {
                    self.metrics.bytes_copied_rx += bytes as u64;
                    self.meter.charge_memcpy(bytes);
                }
                Effect::SendCts {
                    dst,
                    tag,
                    seq,
                    total,
                } => self.window.push_ctrl(CtrlMsg {
                    dst,
                    tag,
                    seq,
                    total,
                }),
                Effect::DuplicateDropped => self.metrics.duplicates_dropped += 1,
            }
        }
    }

    fn complete_send_part(&mut self, req: SendReqId) {
        // A completion for a request we no longer track is a driver
        // protocol bug; tolerate it in release rather than tearing
        // down the progression thread.
        let Some(remaining) = self.sends.get_mut(&req) else {
            debug_assert!(false, "completion for unknown send request");
            return;
        };
        *remaining -= 1;
        if *remaining == 0 {
            self.sends.remove(&req);
            self.done_sends.insert(req);
        }
    }

    fn handle_frame(&mut self, src: NodeId, frame: &Bytes, rx_zero_copy: bool) -> NetResult<()> {
        let entries = parse_frame(frame).map_err(|e| {
            nmad_net::NetError::Protocol(format!("malformed frame from {src}: {e}"))
        })?;
        // Split engines: both ends of a link run the same shard count,
        // so every flow a frame carries belongs to the shard whose rail
        // received it. Check every entry before applying any: a peer
        // with another count can aggregate flows of several shards into
        // one frame, and those entries must fail loudly rather than
        // land in this shard's matching state.
        if let Some(route) = self.route.filter(|r| r.shards > 1) {
            for entry in &entries {
                let (Entry::Data { tag, .. }
                | Entry::Rts { tag, .. }
                | Entry::Cts { tag, .. }
                | Entry::RdvData { tag, .. }) = *entry;
                let owner = route.owner(self.node, src, tag);
                if owner != route.shard {
                    return Err(nmad_net::NetError::Protocol(format!(
                        "frame from {src} carries {tag:?}, owned by shard {owner}, \
                         on shard {} of {}: both ends of a link must run the same \
                         shard count",
                        route.shard, route.shards
                    )));
                }
            }
        }
        self.stats.frames_received += 1;
        self.meter
            .charge_ns(self.costs.per_entry_ns * entries.len() as u64);
        for entry in entries {
            match entry {
                Entry::Data {
                    tag,
                    seq,
                    lane: _,
                    payload,
                } => {
                    // Re-anchor the parsed payload as a zero-copy slice
                    // of the frame buffer: the matching layer retains or
                    // delivers it without a bounce-buffer copy.
                    let off = payload.as_ptr() as usize - frame.as_slice().as_ptr() as usize;
                    let payload = frame.slice(off..off + payload.len());
                    let fx = self.matching.on_data(src, tag, seq, payload);
                    self.apply_effects(fx);
                }
                Entry::Rts {
                    tag,
                    seq,
                    lane: _,
                    total,
                } => {
                    let fx = self.matching.on_rts(src, tag, seq, total);
                    self.apply_effects(fx);
                }
                Entry::Cts { tag, seq, total } => {
                    let key = (src, tag, seq);
                    if self.rdv_tx.contains_key(&key) || self.rdv_done.contains(&key) {
                        // Duplicate grant for a transfer already moving
                        // bytes — or already finished (the receiver
                        // re-granted after seeing a retransmitted or
                        // failover-requeued RTS).
                        self.metrics.stale_cts_ignored += 1;
                        continue;
                    }
                    let Some((data, req)) = self.rdv_wait_cts.remove(&key) else {
                        let stale = self.next_seq.get(&(src, tag)).is_some_and(|&n| seq < n);
                        if stale {
                            // The transfer this CTS grants has already
                            // completed; the grant is a late duplicate.
                            self.metrics.stale_cts_ignored += 1;
                            continue;
                        }
                        return Err(nmad_net::NetError::Protocol(format!(
                            "CTS from {src} for unannounced rendezvous ({tag:?}, {seq:?})"
                        )));
                    };
                    debug_assert_eq!(data.len(), total as usize);
                    self.rdv_tx.insert(
                        key,
                        RdvTx {
                            sent: 0,
                            total: data.len(),
                            req,
                        },
                    );
                    // Stamp the job with the engine's submission clock
                    // so deadline-aware admission can age it against
                    // the window's order horizon.
                    self.window
                        .push_rdv(RdvJob::new(src, tag, seq, data, req).with_order(self.order));
                }
                Entry::RdvData {
                    tag,
                    seq,
                    offset,
                    last: _,
                    payload,
                } => {
                    let fx =
                        self.matching
                            .on_rdv_chunk(src, tag, seq, offset, payload, rx_zero_copy);
                    self.apply_effects(fx);
                }
            }
        }
        Ok(())
    }

    fn apply_tx_done(&mut self, dones: Vec<TxDone>) {
        for done in dones {
            match done {
                TxDone::Unit(req) => self.complete_send_part(req),
                TxDone::RdvBytes { key, bytes } => {
                    // An untracked rendezvous key is a driver protocol
                    // bug; drop the stray completion in release.
                    let Some(tx) = self.rdv_tx.get_mut(&key) else {
                        debug_assert!(false, "chunk completion for unknown rendezvous");
                        continue;
                    };
                    tx.sent += bytes;
                    debug_assert!(tx.sent <= tx.total);
                    let finished = (tx.sent == tx.total).then_some(tx.req);
                    if let Some(req) = finished {
                        self.rdv_tx.remove(&key);
                        // A failover requeue may have re-announced this
                        // transfer; drop the now-moot announcement and
                        // remember the key so a late grant is ignored.
                        self.rdv_wait_cts.remove(&key);
                        self.rdv_done.insert(key);
                        self.complete_send_part(req);
                    }
                }
            }
        }
    }

    fn build_and_post(&mut self, nic_idx: usize, plan: FramePlan) -> NetResult<()> {
        // Phase 1: encode the frame without consuming the plan, so a
        // failed NIC can hand its work back to the window. The encoder
        // writes only the header block (frame header plus entry
        // headers) into a pooled buffer and records where each payload
        // splices in — payload bytes are not touched.
        let mut fe = FrameEncoder::with_buffer(self.pool.take(&mut self.metrics));
        for entry in &plan.entries {
            match entry {
                PlanEntry::Cts(c) => fe.push_cts(c.tag, c.seq, c.total),
                PlanEntry::Data(w) => fe.push_data_lane(w.tag, w.seq, w.priority.lane(), &w.data),
                PlanEntry::Rts(w) => {
                    // Segment lengths are bounded at submit; clamp in
                    // release instead of panicking mid-pump.
                    debug_assert!(u32::try_from(w.data.len()).is_ok(), "segment above 4 GiB");
                    let total = w.data.len().min(u32::MAX as usize) as u32;
                    fe.push_rts_lane(w.tag, w.seq, w.priority.lane(), total);
                }
                PlanEntry::RdvChunk(c) => {
                    fe.push_rdv_data(c.tag, c.seq, c.offset, c.last, &c.data);
                }
            }
        }
        // Scheduler critical-path cost: one ready-list inspection plus
        // per-entry header packing.
        self.meter.charge_ns(
            self.costs.scheduler_inspect_ns + self.costs.per_entry_ns * u64::from(fe.entry_count()),
        );
        let gather_max = self.nics[nic_idx].driver.caps().gather_max_segs;
        let iov = fe.finish();
        // Buffers the NIC will read until transmit completes; recycled
        // through the pool at completion (or immediately on failover).
        let mut bufs: Vec<Vec<u8>> = Vec::with_capacity(2);
        let posted = if iov.segment_count() <= gather_max {
            // Zero-copy path: hand the NIC the header block and the
            // application payloads in wire order and let it gather.
            let segs = iov.segments();
            let multi = segs.len() > 1;
            let res = self.nics[nic_idx].driver.post_send(plan.dst, &segs);
            if res.is_ok() && multi {
                self.metrics.gather_sends += 1;
            }
            res
        } else {
            // The card cannot gather this many regions: stage one
            // contiguous copy (and pay for it).
            let mut staged = self.pool.take(&mut self.metrics);
            iov.stage_into(&mut staged);
            self.meter.charge_memcpy(iov.payload_bytes());
            self.stats.staging_copies += 1;
            let res = self.nics[nic_idx].driver.post_send(plan.dst, &[&staged]);
            bufs.push(staged);
            res
        };
        bufs.push(iov.into_meta());
        let (handle, tx_end) = match posted {
            // The post just published this frame's transmit end as the
            // rail's transmit-free instant.
            Ok(handle) => (
                handle,
                self.nics[nic_idx]
                    .ready
                    .as_ref()
                    .map_or(u64::MAX, RailReadiness::tx_free_at),
            ),
            Err(nmad_net::NetError::Closed) => {
                // The NIC died under us: hand everything back to the
                // window (failover — another rail will pick it up).
                for buf in bufs {
                    self.pool.put(buf);
                }
                self.nics[nic_idx].dead = true;
                self.metrics.rail_faults += 1;
                self.metrics.requeued_entries += plan.entries.len() as u64;
                self.requeue_plan(plan);
                self.reclaim_rail(nic_idx);
                return Ok(());
            }
            Err(e) => {
                for buf in bufs {
                    self.pool.put(buf);
                }
                return Err(e);
            }
        };

        // Phase 2: the frame is on the wire — derive completion records
        // and statistics from the plan, which is retained alongside the
        // handle so a later rail fault can requeue the stranded work.
        let mut dones = Vec::new();
        let (mut n_data, mut n_rts, mut n_cts, mut n_chunk) = (0u32, 0u32, 0u32, 0u32);
        let reordered = plan.reordered;
        for entry in &plan.entries {
            match entry {
                PlanEntry::Cts(_) => {
                    self.stats.cts_entries += 1;
                    n_cts += 1;
                }
                PlanEntry::Data(w) => {
                    dones.push(TxDone::Unit(w.req));
                    self.stats.data_entries += 1;
                    n_data += 1;
                }
                PlanEntry::Rts(w) => {
                    self.rdv_wait_cts
                        .insert((w.dst, w.tag, w.seq), (w.data.clone(), w.req));
                    self.stats.rts_entries += 1;
                    n_rts += 1;
                }
                PlanEntry::RdvChunk(c) => {
                    dones.push(TxDone::RdvBytes {
                        key: (c.dst, c.tag, c.seq),
                        bytes: c.data.len(),
                    });
                    self.stats.chunk_entries += 1;
                    n_chunk += 1;
                }
            }
        }
        let entries = n_data + n_rts + n_cts + n_chunk;
        self.metrics.frames_synthesized += 1;
        self.metrics.entries_aggregated += u64::from(entries);
        self.metrics.eager_entries += u64::from(n_data);
        self.metrics.rendezvous_entries += u64::from(n_rts + n_cts + n_chunk);
        self.metrics.reorder_decisions += u64::from(reordered);
        let strategy = self.strategy.name();
        self.meter.note_decision(&StrategyDecision {
            strategy,
            entries,
            data_entries: n_data,
            rts_entries: n_rts,
            cts_entries: n_cts,
            chunk_entries: n_chunk,
            reordered,
        });
        self.nics[nic_idx].inflight.push_back(InflightFrame {
            handle,
            tx_end,
            dones,
            plan,
            bufs,
        });
        self.stats.frames_sent += 1;
        Ok(())
    }

    /// Returns a plan's work to the window after a NIC failure, in an
    /// order that preserves per-flow FIFO for the segments.
    fn requeue_plan(&mut self, plan: FramePlan) {
        for entry in plan.entries.into_iter().rev() {
            match entry {
                PlanEntry::Cts(c) => self.window.push_ctrl(c),
                PlanEntry::Data(w) | PlanEntry::Rts(w) => self.window.push_segment_front(w),
                PlanEntry::RdvChunk(c) => self.window.push_rdv(RdvJob::resume(c)),
            }
        }
    }

    /// Recovery after `nic_idx` was marked dead: stranded in-flight
    /// frames and window segments dedicated to the rail go back to the
    /// window (the receiver's matching layer drops whatever the dead
    /// rail did manage to deliver), and the strategy re-plans its
    /// bandwidth split over the survivors.
    fn reclaim_rail(&mut self, nic_idx: usize) {
        let stranded: Vec<InflightFrame> = self.nics[nic_idx].inflight.drain(..).collect();
        for frame in stranded {
            for buf in frame.bufs {
                self.pool.put(buf);
            }
            self.metrics.requeued_entries += frame.plan.entries.len() as u64;
            self.requeue_plan(frame.plan);
        }
        self.metrics.requeued_entries += self.window.reclaim_dedicated(nic_idx) as u64;
        self.strategy.on_rail_fault(nic_idx);
    }

    /// Installs a deterministic fault plan on rail `nic_idx`'s driver;
    /// returns whether the driver consumed it (real transports refuse).
    pub fn install_faults(&mut self, nic_idx: usize, plan: nmad_net::FaultPlan) -> bool {
        self.quiet = false;
        let nic = &mut self.nics[nic_idx];
        let consumed = nic.driver.install_faults(plan);
        nic.ready = nic.driver.readiness();
        self.hinted = self.nics.iter().all(|n| n.ready.is_some());
        consumed
    }

    /// Fault-injection counters reported by rail `nic_idx`'s driver.
    pub fn fault_stats(&self, nic_idx: usize) -> nmad_net::FaultStats {
        self.nics[nic_idx].driver.fault_stats()
    }

    /// One pump: drain receives, harvest transmit completions, refill
    /// idle NICs. Returns whether anything moved.
    ///
    /// After a pump that moved nothing over drivers that give a
    /// readiness hint, the next pumps first re-read each live rail's
    /// clock and inbox head, and its transmit-free instant when the
    /// window holds work for it; they return `Ok(false)` at once while
    /// none of those instants, nor the front in-flight send's transmit
    /// end, has been reached.
    // HOT-PATH: progression pump root
    pub fn try_progress(&mut self) -> NetResult<bool> {
        if self.quiet {
            if self.nics.iter().all(NicState::quiet) {
                return Ok(false);
            }
            self.quiet = false;
        }
        self.metrics.pumps += 1;
        let mut any = false;

        // Receive-side backpressure: when the matching layer's
        // unexpected queue saturates, park the drivers' socket reads
        // (transport flow control then pushes back on remote senders);
        // resume with hysteresis once matching has caught up to half
        // the cap, so the signal cannot flap at the boundary. Edge
        // transitions only — the common pump pays one comparison.
        let backlog = self.matching.unexpected_count();
        let want = if self.rx_backpressured {
            backlog > self.rx_saturation_cap / 2
        } else {
            backlog >= self.rx_saturation_cap
        };
        if want != self.rx_backpressured {
            self.rx_backpressured = want;
            for nic in &mut self.nics {
                nic.driver.set_rx_backpressure(want);
            }
        }

        // Receives and transmit completions.
        for i in 0..self.nics.len() {
            // PANIC-OK: i < nics.len() loop bound
            if self.nics[i].dead {
                continue;
            }
            self.nics[i].driver.pump()?; // PANIC-OK: i < nics.len() loop bound
            let rx_zero_copy = self.nics[i].driver.caps().supports_rdma; // PANIC-OK: i < nics.len() loop bound
            while let Some(frame) = self.nics[i].driver.poll_recv()? {
                // PANIC-OK: i < nics.len() loop bound
                debug_assert_ne!(frame.src, self.node);
                let payload = frame.payload;
                self.handle_frame(frame.src, &payload, rx_zero_copy)?;
                // If no eager slice of the frame was retained (posted
                // receives consumed everything), the buffer is uniquely
                // owned again — recycle it.
                if let Ok(buf) = payload.try_unwrap() {
                    self.pool.put(buf);
                }
                any = true;
            }
            // PANIC-OK: i < nics.len() loop bound
            while let Some(handle) = self.nics[i].inflight.front().map(|f| f.handle) {
                // PANIC-OK: i < nics.len() loop bound
                if !self.nics[i].driver.test_send(handle)? {
                    break;
                }
                // PANIC-OK: i < nics.len() loop bound
                let Some(frame) = self.nics[i].inflight.pop_front() else {
                    break;
                };
                for buf in frame.bufs {
                    self.pool.put(buf);
                }
                self.apply_tx_done(frame.dones);
                any = true;
            }
        }

        // Refill idle NICs: this is where the optimization function
        // runs (§3.3: "the transfer layer ... requests from the upper
        // layer a new optimized packet to be sent, as soon as a card
        // becomes idle").
        let all_dead = self.nics.iter().all(|n| n.dead);
        if all_dead && !self.window.is_empty() {
            return Err(nmad_net::NetError::Closed);
        }
        for i in 0..self.nics.len() {
            loop {
                // The engine's own state first: an empty window needs
                // no driver call.
                if self.nics[i].dead // PANIC-OK: i < nics.len() loop bound
                    || self.window.is_empty_for(i)
                    // PANIC-OK: i < nics.len() loop bound
                    || !self.nics[i].driver.tx_idle()
                {
                    break;
                }
                // Borrows `nics` while `strategy` and `window` are
                // borrowed mutably: disjoint fields.
                let view = NicView {
                    index: i,
                    caps: self.nics[i].driver.caps(), // PANIC-OK: i < nics.len() loop bound
                };
                let Some(plan) = self.strategy.schedule(&mut self.window, &view) else {
                    break;
                };
                debug_assert!(!plan.is_empty(), "strategies never plan empty frames");
                self.build_and_post(i, plan)?;
                any = true;
            }
        }
        if !any && self.hinted {
            self.keep_quiet();
        }
        Ok(any)
    }

    /// Keeps, per rail, what the quiet check compares against: the
    /// front in-flight send's transmit end and whether the window holds
    /// work for the rail.
    fn keep_quiet(&mut self) {
        for (i, nic) in self.nics.iter_mut().enumerate() {
            nic.quiet_tx_end = nic.inflight.front().map_or(u64::MAX, |f| f.tx_end);
            nic.quiet_work = !self.window.is_empty_for(i);
        }
        self.quiet = true;
    }

    /// [`try_progress`](Self::try_progress), panicking on transport
    /// failure (simulated transports cannot fail).
    pub fn progress(&mut self) -> bool {
        self.try_progress().expect("transport failure")
    }

    /// Pumps until a pump reports nothing moved; returns whether any
    /// pump moved anything. The standard way to drain an inline engine
    /// after submissions instead of hand-rolled `while progress()`
    /// loops — a single pump can cascade (a harvested completion frees
    /// a NIC which refills from the window), so one call is rarely
    /// enough.
    pub fn progress_until_idle(&mut self) -> bool {
        let mut any = false;
        while self.progress() {
            any = true;
        }
        any
    }

    /// True when every rail's driver consents to being pumped from a
    /// background progression thread (threaded mode's precondition).
    /// The simulated driver refuses — virtual time must advance on the
    /// application thread.
    pub fn threaded_progress_safe(&self) -> bool {
        self.nics.iter().all(|n| n.driver.threaded_progress_safe())
    }

    /// Send requests that fully left the host since the last drain.
    /// The threaded progression loop harvests these into the
    /// completion board after each pump; inline users keep using
    /// [`is_send_done`](Self::is_send_done).
    pub fn drain_done_sends(&mut self) -> Vec<SendReqId> {
        self.quiet = false;
        if self.done_sends.is_empty() {
            return Vec::new();
        }
        self.done_sends.drain().collect()
    }

    /// Receive completions ready since the last drain (payload
    /// included). The threaded harvest path, mirroring
    /// [`drain_done_sends`](Self::drain_done_sends).
    pub fn drain_done_recvs(&mut self) -> Vec<(RecvReqId, RecvDone)> {
        self.quiet = false;
        self.matching.drain_done()
    }

    /// True while any submitted work could still complete: pending
    /// sends, posted receives, queued window entries, rendezvous
    /// handshakes or in-flight frames. The threaded progression loop
    /// spins while this holds and parks on the submission ring
    /// otherwise.
    pub fn has_outstanding(&self) -> bool {
        !self.sends.is_empty()
            || self.matching.posted_count() > 0
            || !self.window.is_empty()
            || !self.rdv_wait_cts.is_empty()
            || !self.rdv_tx.is_empty()
            || self.nics.iter().any(|n| !n.inflight.is_empty())
    }

    /// True when the transmit side is fully drained: no pending sends,
    /// nothing queued in the window, no rendezvous in flight, no frame
    /// awaiting completion. Unlike
    /// [`has_outstanding`](Self::has_outstanding) this ignores posted
    /// receives, so a shutdown cannot hang on a receive the peer will
    /// never match.
    pub fn tx_quiescent(&self) -> bool {
        self.sends.is_empty()
            && self.window.is_empty()
            && self.rdv_wait_cts.is_empty()
            && self.rdv_tx.is_empty()
            && self.nics.iter().all(|n| n.inflight.is_empty())
    }

    /// True when the optimization window's per-destination index
    /// matches its actual queue contents. Exposed for failover
    /// regression tests; release builds also check this via
    /// `debug_assert!` on the requeue/reclaim paths.
    pub fn window_index_consistent(&self) -> bool {
        self.window.index_is_consistent()
    }

    /// The next unallocated request id — the threaded front-end seeds
    /// its atomic allocator from this at launch and restores it at
    /// shutdown.
    pub(crate) fn req_watermark(&self) -> u64 {
        self.next_req
    }

    pub(crate) fn set_req_watermark(&mut self, next: u64) {
        self.quiet = false;
        debug_assert!(next >= self.next_req, "request ids must never reuse");
        self.next_req = next;
    }

    /// Splits an engine that has not run into `shards` independent
    /// engines: rail `r` goes to shard `r % shards`, and each part owns
    /// the flows `policy` routes to its index. Nothing migrates: every
    /// part is built as [`new`](Self::new) builds an engine, with
    /// [`Strategy::for_shard`]'s instance over its own rails.
    ///
    /// Shard 0 keeps the CPU meter; the other shards get a
    /// [`NullMeter`](nmad_net::NullMeter). Over the simulator, shards
    /// 1.. therefore charge nothing through the meter: none of their
    /// [`EngineCosts`] and none of their staging or receive copies reach
    /// the node's CPU account, only their drivers' gather, post and
    /// receive overheads. Every rail's driver keeps its readiness
    /// hint.
    ///
    /// # Panics
    ///
    /// If `shards` is zero or exceeds the rail count, or if the engine
    /// has run: anything submitted, posted or pumped since
    /// [`new`](Self::new) leaves its [`EngineMetrics`] off the default.
    pub fn split_for_shards(self, shards: usize, policy: ShardPolicy) -> Vec<NmadEngine> {
        assert!(shards > 0, "cannot split into zero shards");
        assert!(
            shards <= self.nics.len(),
            "more shards ({shards}) than rails ({})",
            self.nics.len()
        );
        assert!(
            self.metrics == EngineMetrics::default(),
            "split_for_shards requires an engine that has not run"
        );
        let mut rails: Vec<Vec<Box<dyn Driver>>> = (0..shards).map(|_| Vec::new()).collect();
        for (r, nic) in self.nics.into_iter().enumerate() {
            rails[r % shards].push(nic.driver);
        }
        let mut meter = Some(self.meter);
        rails
            .into_iter()
            .enumerate()
            .map(|(shard, drivers)| {
                let meter = meter
                    .take()
                    .unwrap_or_else(|| Box::new(nmad_net::NullMeter));
                let strategy = self.strategy.for_shard(shard, shards);
                let route = ShardRoute {
                    shard,
                    shards,
                    policy,
                };
                Self::build(drivers, meter, strategy, self.costs, Some(route))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{StratAggreg, StratDefault};
    use nmad_net::sim::SimDriver;
    use nmad_sim::{nic, run_until, shared_world, SharedWorld, SimConfig};
    use std::ops::ControlFlow;

    fn engine(world: &SharedWorld, node: u32, strategy: Box<dyn Strategy>) -> NmadEngine {
        let driver = SimDriver::new(world.clone(), NodeId(node), nmad_sim::RailId(0));
        let meter = Box::new(driver.meter());
        NmadEngine::new(
            vec![Box::new(driver)],
            meter,
            strategy,
            EngineCosts::from_software(&nmad_sim::host::costs_madmpi()),
        )
    }

    fn pump_pair(
        world: &SharedWorld,
        a: &mut NmadEngine,
        b: &mut NmadEngine,
        mut done: impl FnMut(&mut NmadEngine, &mut NmadEngine) -> bool,
    ) {
        run_until(world, || {
            let moved = a.progress() | b.progress();
            if done(a, b) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(moved)
            }
        })
        .unwrap_or_else(|e| {
            panic!(
                "{e} / a window {} / b window {}",
                a.window_depth(),
                b.window_depth()
            )
        });
    }

    #[test]
    fn eager_roundtrip_delivers_payload() {
        let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
        let mut a = engine(&world, 0, Box::new(StratAggreg));
        let mut b = engine(&world, 1, Box::new(StratAggreg));
        let s = a.isend(NodeId(1), Tag(5), &b"payload"[..]);
        let r = b.post_recv(NodeId(0), Tag(5), 64);
        pump_pair(&world, &mut a, &mut b, |a, b| {
            a.is_send_done(s) && b.is_recv_done(r)
        });
        let done = b.try_take_recv(r).unwrap();
        assert_eq!(done.data, b"payload");
        assert_eq!(done.src, NodeId(0));
    }

    #[test]
    fn rendezvous_roundtrip_for_large_segment() {
        let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
        let mut a = engine(&world, 0, Box::new(StratAggreg));
        let mut b = engine(&world, 1, Box::new(StratAggreg));
        let body: Vec<u8> = (0..200_000u32).map(|i| (i % 241) as u8).collect();
        let s = a.isend(NodeId(1), Tag(1), body.clone());
        let r = b.post_recv(NodeId(0), Tag(1), body.len());
        pump_pair(&world, &mut a, &mut b, |a, b| {
            a.is_send_done(s) && b.is_recv_done(r)
        });
        assert_eq!(b.try_take_recv(r).unwrap().data, body);
        assert_eq!(a.stats().rts_entries, 1);
        assert!(a.stats().chunk_entries >= 1);
        assert_eq!(b.stats().cts_entries, 1);
    }

    #[test]
    fn aggregation_coalesces_multi_flow_burst_into_fewer_frames() {
        let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
        let mut a = engine(&world, 0, Box::new(StratAggreg));
        let mut b = engine(&world, 1, Box::new(StratAggreg));
        let sends: Vec<_> = (0..8)
            .map(|t| a.isend(NodeId(1), Tag(t), vec![t as u8; 64]))
            .collect();
        let recvs: Vec<_> = (0..8).map(|t| b.post_recv(NodeId(0), Tag(t), 64)).collect();
        pump_pair(&world, &mut a, &mut b, |a, b| {
            sends.iter().all(|&s| a.is_send_done(s)) && recvs.iter().all(|&r| b.is_recv_done(r))
        });
        // First frame may leave with only the earliest submissions, but
        // the burst must use far fewer than 8 frames.
        assert!(
            a.stats().frames_sent <= 3,
            "got {} frames",
            a.stats().frames_sent
        );
        assert_eq!(a.stats().data_entries, 8);
        for (t, r) in recvs.into_iter().enumerate() {
            assert_eq!(b.try_take_recv(r).unwrap().data, vec![t as u8; 64]);
        }
    }

    #[test]
    fn default_strategy_sends_one_frame_per_segment() {
        let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
        let mut a = engine(&world, 0, Box::new(StratDefault));
        let mut b = engine(&world, 1, Box::new(StratDefault));
        let sends: Vec<_> = (0..5)
            .map(|t| a.isend(NodeId(1), Tag(t), vec![0u8; 32]))
            .collect();
        let recvs: Vec<_> = (0..5).map(|t| b.post_recv(NodeId(0), Tag(t), 32)).collect();
        pump_pair(&world, &mut a, &mut b, |a, b| {
            sends.iter().all(|&s| a.is_send_done(s)) && recvs.iter().all(|&r| b.is_recv_done(r))
        });
        assert_eq!(a.stats().frames_sent, 5);
    }

    /// Driver decorator recording every backpressure edge the engine
    /// signals, so the test sees transitions rather than states.
    struct RecordingBp {
        inner: nmad_net::mem::MemDriver,
        signals: std::sync::Arc<parking_lot::Mutex<Vec<bool>>>,
    }

    impl Driver for RecordingBp {
        fn caps(&self) -> &nmad_net::Capabilities {
            self.inner.caps()
        }
        fn local_node(&self) -> NodeId {
            self.inner.local_node()
        }
        fn post_send(&mut self, dst: NodeId, iov: &[&[u8]]) -> NetResult<SendHandle> {
            self.inner.post_send(dst, iov)
        }
        fn test_send(&mut self, handle: SendHandle) -> NetResult<bool> {
            self.inner.test_send(handle)
        }
        fn poll_recv(&mut self) -> NetResult<Option<nmad_net::RxFrame>> {
            self.inner.poll_recv()
        }
        fn tx_idle(&self) -> bool {
            self.inner.tx_idle()
        }
        fn set_rx_backpressure(&mut self, paused: bool) {
            self.signals.lock().push(paused);
        }
    }

    #[test]
    fn saturation_signals_drivers_with_hysteresis() {
        let mut fabric = nmad_net::mem::mem_fabric(2);
        let b_driver = fabric.pop().unwrap();
        let a_driver = fabric.pop().unwrap();
        let signals = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut a = NmadEngine::new(
            vec![Box::new(a_driver)],
            Box::new(nmad_net::NullMeter),
            Box::new(StratDefault),
            EngineCosts::zero(),
        );
        let mut b = NmadEngine::new(
            vec![Box::new(RecordingBp {
                inner: b_driver,
                signals: signals.clone(),
            })],
            Box::new(nmad_net::NullMeter),
            Box::new(StratDefault),
            EngineCosts::zero(),
        );
        b.rx_saturation_cap = 4;

        // Eight eager sends with no receives posted: they pile up in
        // b's unexpected queue and must cross the cap of 4.
        let sends: Vec<_> = (0..8)
            .map(|t| a.isend(NodeId(1), Tag(t), vec![t as u8; 16]))
            .collect();
        for _ in 0..200 {
            a.progress();
            b.progress();
            if signals.lock().as_slice() == [true] {
                break;
            }
        }
        assert_eq!(
            signals.lock().as_slice(),
            [true],
            "saturation must raise exactly one edge (unexpected now {})",
            b.diagnostics().unexpected
        );
        assert!(b.diagnostics().unexpected >= 4);

        // Matching catches up: the signal must release — once.
        let recvs: Vec<_> = (0..8).map(|t| b.post_recv(NodeId(0), Tag(t), 16)).collect();
        for _ in 0..200 {
            a.progress();
            b.progress();
            if signals.lock().len() == 2 {
                break;
            }
        }
        assert_eq!(signals.lock().as_slice(), [true, false]);
        assert!(sends.iter().all(|&s| a.is_send_done(s)));
        assert!(recvs.iter().all(|&r| b.is_recv_done(r)));
    }

    /// Driver decorator counting the engine's `tx_idle` questions.
    struct CountingIdle {
        inner: nmad_net::mem::MemDriver,
        calls: std::sync::Arc<parking_lot::Mutex<usize>>,
    }

    impl Driver for CountingIdle {
        fn caps(&self) -> &nmad_net::Capabilities {
            self.inner.caps()
        }
        fn local_node(&self) -> NodeId {
            self.inner.local_node()
        }
        fn post_send(&mut self, dst: NodeId, iov: &[&[u8]]) -> NetResult<SendHandle> {
            self.inner.post_send(dst, iov)
        }
        fn test_send(&mut self, handle: SendHandle) -> NetResult<bool> {
            self.inner.test_send(handle)
        }
        fn poll_recv(&mut self) -> NetResult<Option<nmad_net::RxFrame>> {
            self.inner.poll_recv()
        }
        fn tx_idle(&self) -> bool {
            *self.calls.lock() += 1;
            self.inner.tx_idle()
        }
    }

    #[test]
    fn idle_pump_makes_no_tx_idle_call() {
        let mut fabric = nmad_net::mem::mem_fabric(2);
        let b_driver = fabric.pop().unwrap();
        let a_driver = fabric.pop().unwrap();
        let calls = std::sync::Arc::new(parking_lot::Mutex::new(0usize));
        let mk = |driver: Box<dyn Driver>| {
            NmadEngine::new(
                vec![driver],
                Box::new(nmad_net::NullMeter),
                Box::new(StratDefault),
                EngineCosts::zero(),
            )
        };
        let mut a = mk(Box::new(a_driver));
        let mut b = mk(Box::new(CountingIdle {
            inner: b_driver,
            calls: calls.clone(),
        }));

        // Traffic both ways, then nothing left to move.
        let sends: Vec<_> = (0..4)
            .map(|t| a.isend(NodeId(1), Tag(t), vec![t as u8; 16]))
            .collect();
        let recvs: Vec<_> = (0..4).map(|t| b.post_recv(NodeId(0), Tag(t), 16)).collect();
        let echo = b.isend(NodeId(0), Tag(9), vec![9; 16]);
        let back = a.post_recv(NodeId(1), Tag(9), 16);
        while a.progress() | b.progress() {}
        assert!(sends.iter().all(|&s| a.is_send_done(s)));
        assert!(recvs.iter().all(|&r| b.is_recv_done(r)));
        assert!(b.is_send_done(echo) && a.is_recv_done(back));
        assert!(*calls.lock() > 0, "b's refill loop asked while it sent");

        *calls.lock() = 0;
        for _ in 0..8 {
            assert!(!b.progress(), "nothing left to move");
        }
        assert_eq!(*calls.lock(), 0);
    }

    /// Pumps `e` until one reports nothing moved; returns the engine's
    /// full-pump count afterwards.
    fn settle(e: &mut NmadEngine) -> u64 {
        e.progress_until_idle();
        e.metrics().engine.pumps
    }

    /// Engines whose drivers give no readiness hint — a decorator over
    /// a simulated rail, or a simulated rail with a fault plan that can
    /// lose posts — run a full pump on every call, idle or not.
    #[test]
    fn unhinted_simulated_rails_never_skip_a_pump() {
        type Wrap = fn(&SharedWorld, SimDriver) -> Box<dyn Driver>;
        let sim_pair = |wrap: Wrap| {
            let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
            let mut pair = (0..2).map(|node| {
                let d = SimDriver::new(world.clone(), NodeId(node), nmad_sim::RailId(0));
                let mut e = NmadEngine::new(
                    vec![wrap(&world, d)],
                    Box::new(nmad_net::SimCpuMeter::new(world.clone(), NodeId(node))),
                    Box::new(StratAggreg),
                    EngineCosts::from_software(&nmad_sim::host::costs_madmpi()),
                );
                // The link goes down long after this test's posts: the
                // plan can lose posts, though it loses none here.
                e.install_faults(0, nmad_net::FaultPlan::new(7).link_down(1 << 40, u64::MAX));
                e
            });
            let (a, b) = (pair.next().unwrap(), pair.next().unwrap());
            (world, a, b)
        };
        fn reliable(world: &SharedWorld, d: SimDriver) -> Box<dyn Driver> {
            let clock = world.clone();
            Box::new(nmad_net::ReliableDriver::new(
                d,
                Box::new(move || clock.lock().now().as_ns()),
                None,
                1_000_000,
            ))
        }
        fn plain(_: &SharedWorld, d: SimDriver) -> Box<dyn Driver> {
            Box::new(d)
        }
        let wraps: [(&str, Wrap); 2] = [
            ("ReliableDriver<SimDriver>", reliable),
            ("SimDriver with a lossy FaultPlan", plain),
        ];
        for (name, wrap) in wraps {
            let (world, mut a, mut b) = sim_pair(wrap);
            let before = (settle(&mut a), settle(&mut b));
            let mut calls = 0;
            let s = a.isend(NodeId(1), Tag(2), vec![4u8; 512]);
            let r = b.post_recv(NodeId(0), Tag(2), 512);
            run_until(&world, || {
                calls += 1;
                let moved = a.progress() | b.progress();
                if a.is_send_done(s) && b.is_recv_done(r) {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(moved)
                }
            })
            .expect("no deadlock");
            for _ in 0..8 {
                assert!(!a.progress() && !b.progress());
                calls += 1;
            }
            assert_eq!(a.metrics().engine.pumps - before.0, calls, "{name}");
            assert_eq!(b.metrics().engine.pumps - before.1, calls, "{name}");
        }

        // The controls: a quiet hinted engine skips its idle pumps, and
        // so does one whose plan only delays frames.
        let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
        let mut hinted = engine(&world, 0, Box::new(StratAggreg));
        let mut spiked = engine(&world, 1, Box::new(StratAggreg));
        let spike = nmad_net::FaultPlan::new(7).latency_spike(0, 1, 1_000);
        assert!(spiked.install_faults(0, spike));
        for e in [&mut hinted, &mut spiked] {
            let before = settle(e);
            for _ in 0..8 {
                assert!(!e.progress());
            }
            assert_eq!(e.metrics().engine.pumps, before);
        }
    }

    /// A driver decorator that forwards everything but the readiness
    /// hint, so its engine pumps in full like a parent-era engine.
    struct NoHint(SimDriver);

    impl Driver for NoHint {
        fn caps(&self) -> &nmad_net::Capabilities {
            self.0.caps()
        }
        fn local_node(&self) -> NodeId {
            self.0.local_node()
        }
        fn post_send(&mut self, dst: NodeId, iov: &[&[u8]]) -> NetResult<SendHandle> {
            self.0.post_send(dst, iov)
        }
        fn test_send(&mut self, handle: SendHandle) -> NetResult<bool> {
            self.0.test_send(handle)
        }
        fn poll_recv(&mut self) -> NetResult<Option<nmad_net::RxFrame>> {
            self.0.poll_recv()
        }
        fn tx_idle(&self) -> bool {
            self.0.tx_idle()
        }
    }

    /// Rail 0 fails while the window holds work dedicated to it and the
    /// engine is quiet: the next pump marks it dead at the same instant
    /// as a full-pumping engine does, and the work fails over.
    #[test]
    fn a_rail_failed_under_queued_work_dies_at_the_same_instant() {
        let run = |hint: bool| {
            let world = shared_world(SimConfig::two_nodes_multirail(vec![
                nic::mx_myri10g(),
                nic::mx_myri10g(),
            ]));
            let drivers: Vec<Box<dyn Driver>> = SimDriver::all_rails(&world, NodeId(0))
                .into_iter()
                .map(|d| {
                    if hint {
                        Box::new(d) as Box<dyn Driver>
                    } else {
                        Box::new(NoHint(d))
                    }
                })
                .collect();
            let mut a = NmadEngine::new(
                drivers,
                Box::new(nmad_net::SimCpuMeter::new(world.clone(), NodeId(0))),
                Box::new(StratDefault),
                EngineCosts::from_software(&nmad_sim::host::costs_madmpi()),
            );
            let parts = || vec![(Bytes::from(vec![1u8; 4096]), Priority::Normal)];
            a.submit_send_parts(NodeId(1), Tag(0), parts(), Some(0));
            let queued = a.submit_send_parts(NodeId(1), Tag(0), parts(), Some(0));
            let before = settle(&mut a);
            assert!(!a.progress(), "the second segment waits for rail 0");
            assert_eq!(a.window_depth(), 1);
            world.lock().fail_rail(NodeId(0), nmad_sim::RailId(0));
            assert!(a.progress(), "the failed rail is probed at once");
            assert_eq!(a.diagnostics().dead_nics, 1);
            assert_eq!(a.metrics().engine.rail_faults, 1);
            // The hinted engine skipped the idle pump, not the probe.
            let full = if hint { before + 1 } else { before + 2 };
            assert_eq!(a.metrics().engine.pumps, full);
            let dead_at = world.lock().now();
            let mut b = NmadEngine::new(
                SimDriver::all_rails(&world, NodeId(1))
                    .into_iter()
                    .map(|d| Box::new(d) as Box<dyn Driver>)
                    .collect(),
                Box::new(nmad_net::SimCpuMeter::new(world.clone(), NodeId(1))),
                Box::new(StratDefault),
                EngineCosts::from_software(&nmad_sim::host::costs_madmpi()),
            );
            let r = b.post_recv(NodeId(0), Tag(0), 4096);
            let r2 = b.post_recv(NodeId(0), Tag(0), 4096);
            let done = run_until(&world, || {
                let moved = a.progress() | b.progress();
                if a.is_send_done(queued) && b.is_recv_done(r2) {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(moved)
                }
            })
            .expect("the survivor carries the requeued work");
            assert!(b.is_recv_done(r), "the in-flight frame is requeued too");
            (dead_at, done)
        };
        assert_eq!(run(true), run(false));
    }

    /// Every `&mut self` call other than `try_progress` clears the
    /// state a quiet pump keeps: the next pump runs in full.
    #[test]
    fn every_mutating_call_clears_the_kept_quiet_state() {
        let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
        let mut a = engine(&world, 0, Box::new(StratAggreg));
        let mut b = engine(&world, 1, Box::new(StratAggreg));
        // A completed receive for `try_take_recv` to take.
        let s = b.isend(NodeId(0), Tag(1), vec![1u8; 8]);
        let r = a.post_recv(NodeId(1), Tag(1), 8);
        pump_pair(&world, &mut a, &mut b, |a, b| {
            b.is_send_done(s) && a.is_recv_done(r)
        });
        type Call = Box<dyn Fn(&mut NmadEngine)>;
        let calls: Vec<(&str, Call)> = vec![
            (
                "isend",
                Box::new(|e| {
                    e.isend(NodeId(1), Tag(0), vec![0u8; 8]);
                }),
            ),
            (
                "submit_send_parts",
                Box::new(|e| {
                    let parts = vec![(Bytes::from_static(b"p"), Priority::Urgent)];
                    e.submit_send_parts(NodeId(1), Tag(0), parts, None);
                }),
            ),
            (
                "submit_send_parts_as",
                Box::new(|e| {
                    let req = SendReqId(e.req_watermark());
                    e.set_req_watermark(req.0 + 1);
                    e.submit_send_parts_as(req, NodeId(1), Tag(0), vec![], None);
                }),
            ),
            (
                "post_recv",
                Box::new(|e| {
                    e.post_recv(NodeId(1), Tag(3), 8);
                }),
            ),
            (
                "post_recv_as",
                Box::new(|e| e.post_recv_as(RecvReqId(u64::MAX), NodeId(1), Tag(4), 8)),
            ),
            (
                "try_take_recv",
                Box::new(move |e| assert!(e.try_take_recv(r).is_some())),
            ),
            (
                "try_take_recv (none)",
                Box::new(move |e| assert!(e.try_take_recv(r).is_none())),
            ),
            (
                "drain_done_sends",
                Box::new(|e| {
                    e.drain_done_sends();
                }),
            ),
            (
                "drain_done_recvs",
                Box::new(|e| {
                    e.drain_done_recvs();
                }),
            ),
            (
                "set_req_watermark",
                Box::new(|e| e.set_req_watermark(e.req_watermark())),
            ),
        ];
        for (name, call) in calls {
            let quiet = settle(&mut a);
            a.progress();
            assert_eq!(a.metrics().engine.pumps, quiet, "{name}: not quiet before");
            call(&mut a);
            a.progress();
            assert_eq!(
                a.metrics().engine.pumps,
                quiet + 1,
                "{name}: kept state survived"
            );
        }
        // A spike-only plan clears the kept state like any other call,
        // but the rail keeps its hint: the next quiet pumps skip again.
        settle(&mut a);
        let before = a.metrics().engine.pumps;
        let spike = nmad_net::FaultPlan::new(3).latency_spike(0, u64::MAX, 1_000);
        assert!(a.install_faults(0, spike));
        for _ in 0..4 {
            a.progress();
        }
        assert_eq!(a.metrics().engine.pumps, before + 1);
        // A plan that can lose posts takes the rail's hint away for good.
        let before = a.metrics().engine.pumps;
        assert!(a.install_faults(0, nmad_net::FaultPlan::new(3).link_down(0, 1)));
        for _ in 0..4 {
            a.progress();
        }
        assert_eq!(a.metrics().engine.pumps, before + 4);
    }

    /// A split deals out the rails of an engine that has not run;
    /// nothing migrates, so one holding a posted receive is refused.
    #[test]
    #[should_panic(expected = "split_for_shards requires an engine that has not run")]
    fn split_refuses_an_engine_that_has_run() {
        let world = shared_world(SimConfig::two_nodes_multirail(vec![nic::mx_myri10g(); 2]));
        let drivers = SimDriver::all_rails(&world, NodeId(0))
            .into_iter()
            .map(|d| Box::new(d) as Box<dyn Driver>)
            .collect();
        let mut e = NmadEngine::new(
            drivers,
            Box::new(nmad_net::SimCpuMeter::new(world.clone(), NodeId(0))),
            Box::new(StratAggreg),
            EngineCosts::from_software(&nmad_sim::host::costs_madmpi()),
        );
        e.post_recv(NodeId(1), Tag(0), 8);
        e.split_for_shards(2, ShardPolicy::HashByDest);
    }

    /// Every depth reading counts segments on every rail's dedicated
    /// list, not just rail 0's or the deepest single rail's.
    #[test]
    fn window_depth_counts_segments_on_every_rail() {
        let mut rails: Vec<Box<dyn Driver>> = Vec::new();
        for _ in 0..2 {
            let mut fabric = nmad_net::mem::mem_fabric(2);
            fabric.pop();
            rails.push(Box::new(fabric.pop().unwrap()));
        }
        let mut a = NmadEngine::new(
            rails,
            Box::new(nmad_net::NullMeter),
            Box::new(StratAggreg),
            EngineCosts::zero(),
        );
        for rail in 0..2 {
            let part = (Bytes::from_static(b"hinted"), Priority::Normal);
            a.submit_send_parts(NodeId(1), Tag(0), vec![part], Some(rail));
        }
        assert_eq!(a.window_depth(), 2);
        assert_eq!(a.diagnostics().window_segments, 2);
        assert_eq!(a.metrics().engine.window_depth_hwm, 2);
    }

    #[test]
    fn unexpected_message_completes_when_recv_posted_later() {
        let world = shared_world(SimConfig::two_nodes(nic::quadrics_qm500()));
        let mut a = engine(&world, 0, Box::new(StratAggreg));
        let mut b = engine(&world, 1, Box::new(StratAggreg));
        let s = a.isend(NodeId(1), Tag(3), &b"early bird"[..]);
        // Let the message arrive unexpected.
        pump_pair(&world, &mut a, &mut b, |a, _| a.is_send_done(s));
        let r = b.post_recv(NodeId(0), Tag(3), 64);
        pump_pair(&world, &mut a, &mut b, |_, b| b.is_recv_done(r));
        assert_eq!(b.try_take_recv(r).unwrap().data, b"early bird");
    }

    #[test]
    fn multi_part_send_completes_once_all_parts_left() {
        let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
        let mut a = engine(&world, 0, Box::new(StratAggreg));
        let mut b = engine(&world, 1, Box::new(StratAggreg));
        let parts = vec![
            (Bytes::from_static(b"one"), Priority::Normal),
            (Bytes::from_static(b"two"), Priority::Normal),
            (Bytes::from_static(b"three"), Priority::Normal),
        ];
        let s = a.submit_send_parts(NodeId(1), Tag(0), parts, None);
        let recvs: Vec<_> = (0..3).map(|_| b.post_recv(NodeId(0), Tag(0), 16)).collect();
        pump_pair(&world, &mut a, &mut b, |a, b| {
            a.is_send_done(s) && recvs.iter().all(|&r| b.is_recv_done(r))
        });
        let got: Vec<Vec<u8>> = recvs
            .into_iter()
            .map(|r| b.try_take_recv(r).unwrap().data.to_vec())
            .collect();
        assert_eq!(
            got,
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
    }

    #[test]
    fn empty_send_completes_immediately() {
        let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
        let mut a = engine(&world, 0, Box::new(StratAggreg));
        let s = a.submit_send_parts(NodeId(1), Tag(0), vec![], None);
        assert!(a.is_send_done(s));
    }

    #[test]
    fn bidirectional_traffic_makes_progress() {
        let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
        let mut a = engine(&world, 0, Box::new(StratAggreg));
        let mut b = engine(&world, 1, Box::new(StratAggreg));
        let sa = a.isend(NodeId(1), Tag(0), &b"a->b"[..]);
        let sb = b.isend(NodeId(0), Tag(0), &b"b->a"[..]);
        let ra = a.post_recv(NodeId(1), Tag(0), 16);
        let rb = b.post_recv(NodeId(0), Tag(0), 16);
        pump_pair(&world, &mut a, &mut b, |a, b| {
            a.is_send_done(sa) && b.is_send_done(sb) && a.is_recv_done(ra) && b.is_recv_done(rb)
        });
        assert_eq!(a.try_take_recv(ra).unwrap().data, b"b->a");
        assert_eq!(b.try_take_recv(rb).unwrap().data, b"a->b");
    }

    /// Every counter in the snapshot, flattened for pairwise
    /// monotonicity comparisons.
    fn counter_vector(m: &crate::metrics::MetricsSnapshot) -> Vec<u64> {
        let e = &m.engine;
        let w = &m.wire;
        let mut v = vec![
            e.requests_submitted,
            e.recvs_posted,
            e.bytes_enqueued,
            e.window_depth_hwm,
            e.frames_synthesized,
            e.entries_aggregated,
            e.eager_entries,
            e.rendezvous_entries,
            e.reorder_decisions,
            e.rail_faults,
            e.requeued_entries,
            e.duplicates_dropped,
            e.stale_cts_ignored,
            e.gather_sends,
            e.pool_hits,
            e.pool_misses,
            e.bytes_copied_rx,
            w.frames_sent,
            w.frames_received,
            w.data_entries,
            w.rts_entries,
            w.cts_entries,
            w.chunk_entries,
            w.staging_copies,
            w.credit_stalls,
            w.credit_frames,
        ];
        for nic in &m.nics {
            v.extend([nic.link.busy_ns, nic.link.retransmits, nic.link.acks]);
        }
        v
    }

    #[test]
    fn metrics_counters_are_monotone_across_progress() {
        let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
        let mut a = engine(&world, 0, Box::new(StratAggreg));
        let mut b = engine(&world, 1, Box::new(StratAggreg));
        let mut prev = counter_vector(&a.metrics());
        let sends: Vec<_> = (0..6)
            .map(|t| a.isend(NodeId(1), Tag(t), vec![t as u8; 128]))
            .collect();
        let recvs: Vec<_> = (0..6)
            .map(|t| b.post_recv(NodeId(0), Tag(t), 128))
            .collect();
        run_until(&world, || {
            let moved = a.progress() | b.progress();
            let cur = counter_vector(&a.metrics());
            for (i, (&p, &c)) in prev.iter().zip(&cur).enumerate() {
                assert!(c >= p, "counter #{i} went backwards: {p} -> {c}");
            }
            prev = cur;
            if sends.iter().all(|&s| a.is_send_done(s)) && recvs.iter().all(|&r| b.is_recv_done(r))
            {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(moved)
            }
        })
        .expect("no deadlock");
        let m = a.metrics();
        assert_eq!(m.engine.requests_submitted, 6);
        assert_eq!(m.engine.eager_entries, 6);
        assert_eq!(m.engine.bytes_enqueued, 6 * 128);
        assert!(m.engine.window_depth_hwm >= 1);
        assert!(m.engine.frames_synthesized >= 1);
    }

    #[test]
    fn metrics_snapshot_covers_all_layers() {
        let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
        let mut a = engine(&world, 0, Box::new(StratAggreg));
        let mut b = engine(&world, 1, Box::new(StratAggreg));
        // One eager and one rendezvous-sized message.
        let s1 = a.isend(NodeId(1), Tag(0), vec![1u8; 256]);
        let s2 = a.isend(NodeId(1), Tag(1), vec![2u8; 200_000]);
        let r1 = b.post_recv(NodeId(0), Tag(0), 256);
        let r2 = b.post_recv(NodeId(0), Tag(1), 200_000);
        pump_pair(&world, &mut a, &mut b, |a, b| {
            a.is_send_done(s1) && a.is_send_done(s2) && b.is_recv_done(r1) && b.is_recv_done(r2)
        });
        let m = a.metrics();
        assert_eq!(m.strategy, "aggreg");
        assert_eq!(m.engine.requests_submitted, 2);
        assert_eq!(m.engine.eager_entries, 1);
        assert!(m.engine.rendezvous_entries >= 2, "one RTS plus chunks");
        assert!(m.aggregation_ratio() >= 1.0);
        assert_eq!(m.wire.frames_sent, m.engine.frames_synthesized);
        assert_eq!(m.nics.len(), 1);
        assert_eq!(m.nics[0].name, "MX/Myri-10G");
        assert!(m.nics[0].link.busy_ns > 0, "frames crossed the wire");
        // The receiver granted the rendezvous: its snapshot shows it.
        let mb = b.metrics();
        assert_eq!(mb.wire.cts_entries, 1);
        assert_eq!(mb.engine.recvs_posted, 2);
    }

    #[test]
    fn gather_capable_nic_posts_multi_segment_iovs_without_staging() {
        // MX gathers up to 32 segments: an aggregated multi-entry
        // eager frame must leave as a multi-segment iov, never as a
        // staged copy.
        let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
        let mut a = engine(&world, 0, Box::new(StratAggreg));
        let mut b = engine(&world, 1, Box::new(StratAggreg));
        let sends: Vec<_> = (0..8)
            .map(|t| a.isend(NodeId(1), Tag(t), vec![t as u8; 64]))
            .collect();
        let recvs: Vec<_> = (0..8).map(|t| b.post_recv(NodeId(0), Tag(t), 64)).collect();
        pump_pair(&world, &mut a, &mut b, |a, b| {
            sends.iter().all(|&s| a.is_send_done(s)) && recvs.iter().all(|&r| b.is_recv_done(r))
        });
        assert!(
            a.metrics().engine.gather_sends > 0,
            "multi-entry frames must use the gather path: {:?}",
            a.metrics().engine
        );
        assert_eq!(a.stats().staging_copies, 0);
    }

    #[test]
    fn gatherless_nic_stages_a_copy_per_data_frame() {
        // GM advertises gather_max_segs == 1: every frame that carries
        // payload must be staged through a contiguous copy.
        let world = shared_world(SimConfig::two_nodes(nic::gm_myrinet2000()));
        let mut a = engine(&world, 0, Box::new(StratAggreg));
        let mut b = engine(&world, 1, Box::new(StratAggreg));
        let s = a.isend(NodeId(1), Tag(0), vec![7u8; 64]);
        let r = b.post_recv(NodeId(0), Tag(0), 64);
        pump_pair(&world, &mut a, &mut b, |a, b| {
            a.is_send_done(s) && b.is_recv_done(r)
        });
        assert!(a.stats().staging_copies > 0, "{:?}", a.stats());
        assert_eq!(a.metrics().engine.gather_sends, 0);
    }

    #[test]
    fn frame_buffers_recycle_through_the_pool() {
        // Sequential one-at-a-time sends: after the first frame's
        // buffers return to the pool, later frames must reuse them.
        let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
        let mut a = engine(&world, 0, Box::new(StratAggreg));
        let mut b = engine(&world, 1, Box::new(StratAggreg));
        for round in 0..6u32 {
            let s = a.isend(NodeId(1), Tag(0), vec![round as u8; 128]);
            let r = b.post_recv(NodeId(0), Tag(0), 128);
            pump_pair(&world, &mut a, &mut b, |a, b| {
                a.is_send_done(s) && b.is_recv_done(r)
            });
            assert_eq!(b.try_take_recv(r).unwrap().data, vec![round as u8; 128]);
        }
        let m = a.metrics().engine;
        assert!(
            m.pool_hits > m.pool_misses,
            "steady state must be dominated by pool reuse: hits={} misses={}",
            m.pool_hits,
            m.pool_misses
        );
    }

    #[test]
    fn recycled_buffers_never_leak_stale_bytes() {
        // A long first message followed by shorter ones through the
        // same (recycled) buffers: each delivery must carry exactly its
        // own payload, nothing from a previous frame.
        let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
        let mut a = engine(&world, 0, Box::new(StratAggreg));
        let mut b = engine(&world, 1, Box::new(StratAggreg));
        let bodies: Vec<Vec<u8>> = vec![vec![0xAA; 512], vec![0x11; 16], vec![0x22; 3], vec![0x33]];
        for body in &bodies {
            let s = a.isend(NodeId(1), Tag(9), body.clone());
            let r = b.post_recv(NodeId(0), Tag(9), 1024);
            pump_pair(&world, &mut a, &mut b, |a, b| {
                a.is_send_done(s) && b.is_recv_done(r)
            });
            let done = b.try_take_recv(r).unwrap();
            assert_eq!(done.data, body[..], "stale bytes leaked into delivery");
            assert!(!done.truncated);
        }
    }

    #[test]
    fn rx_copy_counter_tracks_rendezvous_reassembly_without_rdma() {
        // Eager traffic on the receive side is zero-copy (slices of the
        // frame buffer); only copy-mode rendezvous reassembly moves
        // bytes. GM has no RDMA, so a rendezvous transfer must count.
        let world = shared_world(SimConfig::two_nodes(nic::gm_myrinet2000()));
        let mut a = engine(&world, 0, Box::new(StratAggreg));
        let mut b = engine(&world, 1, Box::new(StratAggreg));
        let small = a.isend(NodeId(1), Tag(0), vec![1u8; 64]);
        let r0 = b.post_recv(NodeId(0), Tag(0), 64);
        pump_pair(&world, &mut a, &mut b, |a, b| {
            a.is_send_done(small) && b.is_recv_done(r0)
        });
        assert_eq!(
            b.metrics().engine.bytes_copied_rx,
            0,
            "eager delivery must be copy-free"
        );
        let body: Vec<u8> = (0..100_000u32).map(|i| (i % 201) as u8).collect();
        let s = a.isend(NodeId(1), Tag(1), body.clone());
        let r = b.post_recv(NodeId(0), Tag(1), body.len());
        pump_pair(&world, &mut a, &mut b, |a, b| {
            a.is_send_done(s) && b.is_recv_done(r)
        });
        assert_eq!(b.try_take_recv(r).unwrap().data, body);
        assert_eq!(
            b.metrics().engine.bytes_copied_rx,
            body.len() as u64,
            "copy-mode rendezvous reassembly must be accounted"
        );
    }

    #[test]
    fn entries_aggregated_matches_traced_decisions() {
        let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
        world.lock().enable_trace();
        let mut a = engine(&world, 0, Box::new(StratAggreg));
        let mut b = engine(&world, 1, Box::new(StratAggreg));
        let sends: Vec<_> = (0..8)
            .map(|t| a.isend(NodeId(1), Tag(t), vec![t as u8; 64]))
            .collect();
        let recvs: Vec<_> = (0..8).map(|t| b.post_recv(NodeId(0), Tag(t), 64)).collect();
        pump_pair(&world, &mut a, &mut b, |a, b| {
            sends.iter().all(|&s| a.is_send_done(s)) && recvs.iter().all(|&r| b.is_recv_done(r))
        });
        let m = a.metrics();
        let trace = world.lock().take_trace();
        // The trace sees both nodes' engines; at minimum a's frames.
        assert!(trace.decisions() >= m.engine.frames_synthesized as usize);
        assert_eq!(
            m.engine.entries_aggregated,
            trace.decision_entries_for(NodeId(0)),
            "engine counter and trace must agree"
        );
    }
}
