//! Threaded asynchronous progression: a dedicated thread owns the
//! engine and pumps it, so communication overlaps application
//! computation instead of waiting for the application to poll.
//!
//! Ownership map:
//!
//! * the **progression thread** exclusively owns the [`NmadEngine`] —
//!   drivers, optimization window, strategy, matching state. No lock
//!   guards any of it: the engine's single-threaded state machine runs
//!   unmodified, just on another thread.
//! * **application threads** hold a cloneable [`ThreadedHandle`].
//!   Submissions cross over through a bounded lock-free
//!   [`SubmitRing`]; request ids are allocated application-side from
//!   one shared atomic, so the caller has its handle before the
//!   operation is even enqueued. Each ring slot carries an inline
//!   [`Batch`] of up to [`SLOT_OPS`] operations: single submissions
//!   ride as batches of one, and [`ThreadedHandle::submit_batch`]
//!   stages a run of operations with **one doorbell per flush**
//!   (io_uring-style), so a burst pays one CAS per `SLOT_OPS` ops and
//!   one wakeup total instead of one of each per op.
//! * **completions** come back through a sharded [`CompletionBoard`]
//!   that `test`/`wait` poll without touching the engine, and counters
//!   through [`ThreadedHandle::metrics`], a snapshot the progression
//!   threads take between pumps.
//!
//! ## Sharding
//!
//! With [`EngineConfig::shards`] > 1 the runtime splits the engine
//! into **N progression shards** (see
//! [`NmadEngine::split_for_shards`]): each shard owns its own
//! submission ring, optimization-window slice, rail subset (rail `r`
//! belongs to shard `r % N`) and progression thread. Flows map to
//! shards by [`ShardPolicy`] — a symmetric hash over the node pair
//! and the tag, identical on both endpoints, so a frame sent on shard
//! `s`'s rails always lands on the receiving node's shard `s`.
//! [`ThreadedHandle`] routes every submission to its owner shard's
//! ring; the [`CompletionBoard`] keeps one global id-keyed bucket
//! space, so waiting works unchanged.
//!
//! Shards share nothing else: no work moves between them. Both ends of
//! a link must run the same shard count; a shard that receives a frame
//! carrying a flow it does not own fails with a protocol error (see
//! `DESIGN.md` §14).
//!
//! The simulated transports stay on the inline path (the application
//! thread calls [`NmadEngine::progress`]): virtual time only advances
//! through the co-simulation loop on the application thread, and a
//! background pump would desynchronise the discrete-event world.
//! Drivers veto the threaded mode through
//! [`Driver::threaded_progress_safe`](nmad_net::Driver::threaded_progress_safe).

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::utils::CachePadded;
use nmad_sim::{FxHashMap, FxHashSet, NodeId};

use crate::sync::{AtomicBool, AtomicU64, Condvar, Mutex, Ordering};

use crate::engine::{EngineConfig, NmadEngine, ShardPolicy};
use crate::matching::RecvDone;
use crate::metrics::{EngineMetrics, MetricsSnapshot, NicMetrics};
use crate::ring::{Batch, SubmitRing};
use crate::segment::{Priority, RecvReqId, SendReqId, Tag};
use crate::EngineStats;

// The whole design rests on the engine being movable to the
// progression thread; breaking any layer's Send bound must fail here,
// not in a user's build.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<NmadEngine>();
};

/// An operation crossing the submission ring.
enum EngineOp {
    Send {
        req: SendReqId,
        dst: NodeId,
        tag: Tag,
        parts: Vec<(Bytes, Priority)>,
        rail_hint: Option<usize>,
    },
    Recv {
        req: RecvReqId,
        src: NodeId,
        tag: Tag,
        max: usize,
    },
    /// Request a full [`MetricsSnapshot`] (needs the engine, so it is
    /// taken on the progression thread and posted back).
    Snapshot,
    Shutdown,
}

/// Operations carried inline by one ring slot. Sized so a slot stays a
/// few cache lines: big enough to amortize the per-slot CAS across a
/// burst, small enough that a lone submission doesn't waste the ring.
pub const SLOT_OPS: usize = 8;

/// The ring slot format: an inline batch of up to [`SLOT_OPS`] ops.
type OpBatch = Batch<EngineOp, SLOT_OPS>;

/// Board buckets per engine shard: the total bucket count is
/// `BOARD_SHARDS × engine shards`, so poll-path lock contention stays
/// constant per shard as the runtime scales out.
const BOARD_SHARDS: usize = 16;

#[derive(Default)]
struct BoardShard {
    sends: FxHashSet<u64>,
    recvs: FxHashMap<u64, RecvDone>,
}

/// Sharded completion queue the progression threads fill and
/// application threads poll. Sharding by request id keeps unrelated
/// waiters off each other's cache lines and locks; the engine itself
/// is never touched on the poll path. The bucket index is a pure
/// function of the request id, so completions posted by *any*
/// progression shard land where the waiter looks.
pub struct CompletionBoard {
    shards: Vec<CachePadded<Mutex<BoardShard>>>,
    /// Completions posted for an id already on the board — always a
    /// bug (request ids are unique); counted instead of silently
    /// overwritten so stress tests can assert zero.
    duplicates: AtomicU64,
}

impl CompletionBoard {
    fn new(engine_shards: usize) -> Self {
        let buckets = BOARD_SHARDS * engine_shards.max(1);
        CompletionBoard {
            shards: (0..buckets)
                .map(|_| CachePadded::new(Mutex::new(BoardShard::default())))
                .collect(),
            duplicates: AtomicU64::new(0),
        }
    }

    #[inline]
    fn bucket_of(&self, id: u64) -> usize {
        (id as usize) % self.shards.len()
    }

    fn shard(&self, id: u64) -> &Mutex<BoardShard> {
        &self.shards[self.bucket_of(id)]
    }

    /// Posts a harvest of send completions, taking each shard lock at
    /// most once — the consumer-side half of batching: a pump that
    /// finishes a burst pays at most one lock round per bucket, not one
    /// per completion.
    fn post_sends_done(&self, reqs: &[SendReqId]) {
        if reqs.is_empty() {
            return;
        }
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); self.shards.len()];
        for req in reqs {
            buckets[self.bucket_of(req.0)].push(req.0);
        }
        for (shard, bucket) in self.shards.iter().zip(buckets) {
            if bucket.is_empty() {
                continue;
            }
            let mut guard = shard.lock();
            for id in bucket {
                if !guard.sends.insert(id) {
                    self.duplicates.fetch_add(1, Ordering::Relaxed); // ORDERING: monotonic stats counter; no synchronization role
                }
            }
        }
    }

    /// Posts a harvest of receive completions; same locking contract
    /// as [`post_sends_done`](Self::post_sends_done).
    fn post_recvs_done(&self, dones: Vec<(RecvReqId, RecvDone)>) {
        if dones.is_empty() {
            return;
        }
        let mut buckets: Vec<Vec<(u64, RecvDone)>> = vec![Vec::new(); self.shards.len()];
        for (req, done) in dones {
            buckets[self.bucket_of(req.0)].push((req.0, done));
        }
        for (shard, bucket) in self.shards.iter().zip(buckets) {
            if bucket.is_empty() {
                continue;
            }
            let mut guard = shard.lock();
            for (id, done) in bucket {
                if guard.recvs.insert(id, done).is_some() {
                    self.duplicates.fetch_add(1, Ordering::Relaxed); // ORDERING: monotonic stats counter; no synchronization role
                }
            }
        }
    }

    /// True once *every* listed send has left the host, taking each
    /// shard lock at most once (the poll half of batched waiting).
    pub fn all_sends_done(&self, reqs: &[SendReqId]) -> bool {
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); self.shards.len()];
        for req in reqs {
            buckets[self.bucket_of(req.0)].push(req.0);
        }
        for (shard, bucket) in self.shards.iter().zip(buckets) {
            if bucket.is_empty() {
                continue;
            }
            let guard = shard.lock();
            if !bucket.iter().all(|id| guard.sends.contains(id)) {
                return false;
            }
        }
        true
    }

    /// True once the send has fully left the host.
    pub fn is_send_done(&self, req: SendReqId) -> bool {
        self.shard(req.0).lock().sends.contains(&req.0)
    }

    /// True once the receive completed (non-destructive).
    pub fn is_recv_done(&self, req: RecvReqId) -> bool {
        self.shard(req.0).lock().recvs.contains_key(&req.0)
    }

    /// Takes a completed receive's payload, once.
    pub fn try_take_recv(&self, req: RecvReqId) -> Option<RecvDone> {
        self.shard(req.0).lock().recvs.remove(&req.0)
    }

    /// Completions posted twice for one request id — must stay zero.
    pub fn duplicates(&self) -> u64 {
        self.duplicates.load(Ordering::Relaxed) // ORDERING: advisory stats snapshot
    }
}

/// Capacity of each shard's submission ring. A full ring pushes back
/// on submitters instead of growing.
const SUBMIT_RING_CAPACITY: usize = 1024;

/// State shared between application threads and the progression
/// shards.
struct Shared {
    /// One submission ring per progression shard, so shards never
    /// contend on the submit path.
    rings: Vec<SubmitRing<OpBatch>>,
    node: NodeId,
    /// One global id-keyed board: waiters don't care which shard
    /// completed their request.
    board: CompletionBoard,
    /// Application-side request id allocator, seeded from the engine's
    /// watermark at launch. Global across shards so ids stay unique.
    next_req: AtomicU64,
    /// Serialises snapshot requesters (one RPC slot).
    snap_serial: Mutex<()>,
    /// One snapshot cell per shard; a requester broadcasts a
    /// [`EngineOp::Snapshot`] and waits until every cell fills.
    snap_slot: Mutex<Vec<Option<MetricsSnapshot>>>,
    snap_cv: Condvar,
    /// Some progression shard died on a transport error.
    dead: AtomicBool,
    fail: Mutex<Option<String>>,
}

impl Shared {
    fn route(&self, peer: NodeId, tag: Tag) -> usize {
        // Identical to the split the engine did at launch.
        ShardPolicy::HashByDest.route(self.rings.len(), self.node, peer, tag)
    }
}

/// A running progression runtime — one thread per shard — plus the
/// engine shards those threads own. Created with
/// [`ThreadedEngine::launch`]; hand out [`ThreadedHandle`]s with
/// [`handle`](Self::handle); get the (re-merged) engine back with
/// [`shutdown`](Self::shutdown).
pub struct ThreadedEngine {
    shared: Arc<Shared>,
    node: NodeId,
    threads: Vec<std::thread::JoinHandle<NmadEngine>>,
}

/// Cloneable application-side handle to a [`ThreadedEngine`]: submit
/// through the ring, poll the completion board, snapshot the metrics.
#[derive(Clone)]
pub struct ThreadedHandle {
    shared: Arc<Shared>,
    node: NodeId,
}

impl ThreadedEngine {
    /// Moves `engine` onto freshly spawned progression threads — one
    /// per shard. `config.shards` is clamped to the engine's rail
    /// count (a shard without a rail could make no progress); with one
    /// shard the runtime degenerates to the original single-thread
    /// layout, byte for byte.
    ///
    /// Both ends of every link must end up with the same shard count,
    /// after this clamp: two nodes asking for the same count but owning
    /// different rail counts can still differ. A shard that receives a
    /// frame carrying a flow it does not own stops the runtime with a
    /// protocol error, which every waiter then reports.
    ///
    /// Panics if any of the engine's drivers vetoes background
    /// progression (the simulated transport does — see the module
    /// documentation).
    pub fn launch(engine: NmadEngine, config: EngineConfig) -> Self {
        assert!(
            engine.threaded_progress_safe(),
            "a driver on node {} refuses background progression \
             (simulated transports must stay inline)",
            engine.node()
        );
        let node = engine.node();
        let shards = config.shards.max(1).min(engine.rail_count().max(1));
        let watermark = engine.req_watermark();
        let engines = if shards > 1 {
            engine.split_for_shards(shards, ShardPolicy::HashByDest)
        } else {
            vec![engine]
        };
        let shared = Arc::new(Shared {
            rings: (0..shards)
                .map(|_| SubmitRing::new(SUBMIT_RING_CAPACITY))
                .collect(),
            node,
            board: CompletionBoard::new(shards),
            next_req: AtomicU64::new(watermark),
            snap_serial: Mutex::new(()),
            snap_slot: Mutex::new(Vec::new()),
            snap_cv: Condvar::new(),
            dead: AtomicBool::new(false),
            fail: Mutex::new(None),
        });
        let threads = engines
            .into_iter()
            .enumerate()
            .map(|(shard, eng)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("nmad-progress-{}-s{shard}", node.0))
                    .spawn(move || run(eng, &shared, shard))
                    .expect("spawn progression thread")
            })
            .collect();
        ThreadedEngine {
            shared,
            node,
            threads,
        }
    }

    /// A cloneable submission/poll handle for application threads.
    pub fn handle(&self) -> ThreadedHandle {
        ThreadedHandle {
            shared: Arc::clone(&self.shared),
            node: self.node,
        }
    }

    /// Node this engine belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Progression shards this runtime is running (after the launch
    /// clamp to the rail count).
    pub fn shards(&self) -> usize {
        self.shared.rings.len()
    }

    /// Stops every progression shard — after draining its ring and
    /// quiescing its transmit side — and returns the re-merged engine
    /// for inline use. Completions still parked on the board are
    /// dropped with it.
    pub fn shutdown(mut self) -> NmadEngine {
        for ring in &self.shared.rings {
            ring.push(Batch::of_one(EngineOp::Shutdown));
        }
        let parts: Vec<NmadEngine> = self
            .threads
            .drain(..)
            .map(|t| t.join().expect("progression thread panicked"))
            .collect();
        let mut engine = if parts.len() == 1 {
            parts.into_iter().next().expect("one shard")
        } else {
            NmadEngine::merge_shards(parts)
        };
        // Ids handed out by handles but never submitted must still
        // never be reallocated inline.
        engine.set_req_watermark(self.shared.next_req.load(Ordering::Relaxed)); // ORDERING: read after the submit ring quiesced; the drain orders it
        engine
    }
}

impl Drop for ThreadedEngine {
    fn drop(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        for ring in &self.shared.rings {
            ring.push(Batch::of_one(EngineOp::Shutdown));
        }
        // The engines are discarded; a panic on a progression thread
        // surfaces at the join unless we are already unwinding.
        for thread in self.threads.drain(..) {
            if std::thread::panicking() {
                let _ = thread.join();
            } else {
                let _engine = thread.join().expect("progression thread panicked");
            }
        }
    }
}

impl ThreadedHandle {
    /// Node the underlying engine belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    #[inline]
    fn alloc(&self) -> u64 {
        self.shared.next_req.fetch_add(1, Ordering::Relaxed) // ORDERING: id allocator; atomicity alone is the contract
    }

    fn check_alive(&self, waiting_on: &str) {
        // ORDERING: advisory liveness flag; the error message travels under the board mutex
        if self.shared.dead.load(Ordering::Relaxed) {
            let msg = self
                .shared
                .fail
                .lock()
                .clone()
                .unwrap_or_else(|| "progression thread stopped".to_string());
            // PANIC-OK: deliberate: surfaces progression-thread death to the caller
            panic!("progression thread died while waiting on {waiting_on}: {msg}");
        }
    }

    /// Progression shards behind this handle.
    pub fn shards(&self) -> usize {
        self.shared.rings.len()
    }

    /// The shard owning flow (peer, tag) — where a submission for that
    /// flow is routed. Exposed so tests and benches can pin flows to
    /// shards deliberately.
    pub fn shard_of(&self, peer: NodeId, tag: Tag) -> usize {
        self.shared.route(peer, tag)
    }

    /// Submits one application send made of `parts` segments (see
    /// [`NmadEngine::submit_send_parts`]). Routed to the ring of the
    /// shard owning flow (dst, tag). Blocks only for ring backpressure
    /// (a full submission ring).
    pub fn submit_send_parts(
        &self,
        dst: NodeId,
        tag: Tag,
        parts: Vec<(Bytes, Priority)>,
        rail_hint: Option<usize>,
    ) -> SendReqId {
        let req = SendReqId(self.alloc());
        let shard = self.shared.route(dst, tag);
        self.shared.rings[shard].push(Batch::of_one(EngineOp::Send {
            req,
            dst,
            tag,
            parts,
            rail_hint,
        }));
        req
    }

    /// Nonblocking single-segment send.
    pub fn isend(&self, dst: NodeId, tag: Tag, data: impl Into<Bytes>) -> SendReqId {
        self.submit_send_parts(dst, tag, vec![(data.into(), Priority::Normal)], None)
    }

    /// Posts a receive of up to `max` bytes for the next segment of
    /// flow (src, tag), routed to the shard owning that flow (the hash
    /// is symmetric, so it is the shard whose rails the frame arrives
    /// on).
    pub fn post_recv(&self, src: NodeId, tag: Tag, max: usize) -> RecvReqId {
        let req = RecvReqId(self.alloc());
        let shard = self.shared.route(src, tag);
        self.shared.rings[shard].push(Batch::of_one(EngineOp::Recv { req, src, tag, max }));
        req
    }

    /// Opens a batched submission: operations staged on the returned
    /// builder share ring slots ([`SLOT_OPS`] per CAS) and the consumer
    /// doorbell rings **once**, at [`flush`](SubmitBatch::flush) (or
    /// drop). Request ids are allocated eagerly, so staged operations
    /// can be waited on — after the flush — exactly like single
    /// submissions.
    pub fn submit_batch(&self) -> SubmitBatch<'_> {
        let shards = self.shared.rings.len();
        SubmitBatch {
            handle: self,
            shards,
            primary: Batch::new(),
            primary_staged: 0,
            rest: (1..shards).map(|_| (Batch::new(), 0)).collect(),
            pending: 0,
            next_id: 0,
            id_limit: 0,
        }
    }

    /// True once the send has fully left the host.
    pub fn is_send_done(&self, req: SendReqId) -> bool {
        self.shared.board.is_send_done(req)
    }

    /// True once the receive completed (non-destructive).
    pub fn is_recv_done(&self, req: RecvReqId) -> bool {
        self.shared.board.is_recv_done(req)
    }

    /// Takes a completed receive's payload, once.
    pub fn try_take_recv(&self, req: RecvReqId) -> Option<RecvDone> {
        self.shared.board.try_take_recv(req)
    }

    /// Blocks until the send has fully left the host. Panics if the
    /// progression thread died of a transport error.
    pub fn wait_send(&self, req: SendReqId) {
        while !self.shared.board.is_send_done(req) {
            self.check_alive("send");
            std::thread::yield_now();
        }
    }

    /// Blocks until the receive completes and takes its payload.
    /// Panics if the progression thread died of a transport error.
    pub fn wait_recv(&self, req: RecvReqId) -> RecvDone {
        loop {
            if let Some(done) = self.shared.board.try_take_recv(req) {
                return done;
            }
            self.check_alive("recv");
            std::thread::yield_now();
        }
    }

    /// Blocks until *every* listed send has left the host. Each poll
    /// round takes each board shard lock at most once, instead of one
    /// lock per request per round as a `wait_send` loop would.
    pub fn wait_sends(&self, reqs: &[SendReqId]) {
        while !self.shared.board.all_sends_done(reqs) {
            self.check_alive("sends");
            std::thread::yield_now();
        }
    }

    /// Blocks until every listed receive completes; payloads come back
    /// in `reqs` order.
    pub fn wait_recvs(&self, reqs: &[RecvReqId]) -> Vec<RecvDone> {
        let mut out: Vec<Option<RecvDone>> = reqs.iter().map(|_| None).collect();
        let mut missing = reqs.len();
        while missing > 0 {
            for (slot, req) in out.iter_mut().zip(reqs) {
                if slot.is_none() {
                    if let Some(done) = self.shared.board.try_take_recv(*req) {
                        *slot = Some(done);
                        missing -= 1;
                    }
                }
            }
            if missing > 0 {
                self.check_alive("recvs");
                std::thread::yield_now();
            }
        }
        out.into_iter().map(|d| d.expect("all taken")).collect()
    }

    /// A full [`MetricsSnapshot`] including per-NIC link counters,
    /// taken *on the progression threads* between pumps — each shard's
    /// totals are exact at the moment its snapshot is taken, like the
    /// inline [`NmadEngine::metrics`]. With several shards the
    /// per-shard snapshots are aggregated: counters sum, NIC rows come
    /// back in global rail order.
    pub fn metrics(&self) -> MetricsSnapshot {
        let n = self.shared.rings.len();
        // One requester at a time owns the RPC slots.
        let _serial = self.shared.snap_serial.lock();
        {
            let mut slot = self.shared.snap_slot.lock();
            *slot = (0..n).map(|_| None).collect();
        }
        for ring in &self.shared.rings {
            ring.push(Batch::of_one(EngineOp::Snapshot));
        }
        let mut slot = self.shared.snap_slot.lock();
        loop {
            if slot.iter().all(Option::is_some) {
                // The all-Some check above makes `flatten` lossless.
                let parts: Vec<MetricsSnapshot> = slot.drain(..).flatten().collect();
                return aggregate_snapshots(parts);
            }
            self.check_alive("metrics snapshot");
            let (g, _) = self
                .shared
                .snap_cv
                .wait_timeout(slot, Duration::from_millis(50)); // BLOCKING-OK: control-plane snapshot RPC, not the pump loop
            slot = g;
        }
    }

    /// Completions the board saw twice for one request id — must stay
    /// zero (stress tests assert it).
    pub fn completion_duplicates(&self) -> u64 {
        self.shared.board.duplicates()
    }
}

/// Sums per-shard snapshots into the view a single engine would have
/// produced: counters sum ([`EngineMetrics::absorb`] /
/// [`EngineStats::absorb`]), NIC rows interleave back into global rail
/// order (shard `s` owns rails `s`, `s + N`, `s + 2N`, …).
fn aggregate_snapshots(parts: Vec<MetricsSnapshot>) -> MetricsSnapshot {
    let shards = parts.len();
    let mut engine = EngineMetrics::default();
    let mut wire = EngineStats::default();
    let mut per_shard_nics: Vec<std::collections::VecDeque<NicMetrics>> = Vec::new();
    let mut strategy = "";
    for part in parts {
        strategy = part.strategy;
        engine.absorb(&part.engine);
        wire.absorb(&part.wire);
        per_shard_nics.push(part.nics.into());
    }
    let mut nics = Vec::new();
    loop {
        let mut any = false;
        for shard_nics in per_shard_nics.iter_mut().take(shards) {
            if let Some(nic) = shard_nics.pop_front() {
                nics.push(nic);
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    MetricsSnapshot {
        strategy,
        engine,
        wire,
        nics,
    }
}

/// A staged run of submissions sharing ring slots and one doorbell.
///
/// Obtained from [`ThreadedHandle::submit_batch`]. Operations staged
/// here are pushed quietly — full slots go into the owner shard's ring
/// without waking the consumer — and each shard's doorbell rings at
/// most once, at [`flush`](Self::flush). Until the flush, a parked
/// progression thread stays parked, so **never wait on a staged
/// request before flushing**. Dropping the builder flushes.
pub struct SubmitBatch<'a> {
    handle: &'a ThreadedHandle,
    /// Cached shard count: lets the per-op path skip the routing hash
    /// (and the `Arc` dereference it needs) entirely when the runtime
    /// is single-sharded — the overwhelmingly common layout. The
    /// `batch` bench's submit rows measure it, as context only.
    shards: usize,
    /// Shard 0's open slot, inline: in single-shard mode every staged
    /// op lands here with no per-op indexing or indirection.
    primary: OpBatch,
    /// Operations staged to shard 0 (pushed quietly or buffered) since
    /// the last flush; a nonzero count earns shard 0 exactly one
    /// doorbell at flush.
    primary_staged: usize,
    /// Open slot and staged count for shards `1..` — empty in
    /// single-shard mode. Operations for different shards ride
    /// different rings, so they cannot share a slot.
    rest: Vec<(OpBatch, usize)>,
    /// Total staged since the last flush, kept as a scalar because
    /// [`pending`](Self::pending) sits on the application's per-op
    /// flush-decision path.
    pending: usize,
    /// Block-reserved request ids: `next_id..id_limit` belong to this
    /// builder. Reserving [`SLOT_OPS`] ids per `fetch_add` amortizes
    /// the shared counter's RMW the same way slots amortize the ring
    /// CAS. Ids left unused when the builder drops are simply skipped
    /// — the id space only needs uniqueness, not density.
    next_id: u64,
    id_limit: u64,
}

impl SubmitBatch<'_> {
    #[inline]
    fn alloc_id(&mut self) -> u64 {
        if self.next_id == self.id_limit {
            let block = SLOT_OPS as u64;
            self.next_id = self
                .handle
                .shared
                .next_req
                .fetch_add(block, Ordering::Relaxed); // ORDERING: id allocator; atomicity alone is the contract
            self.id_limit = self.next_id + block;
        }
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// The shard owning flow (peer, tag) — constant 0 when the runtime
    /// is single-sharded, so the batched path pays no hash per op.
    #[inline]
    fn shard_of(&self, peer: NodeId, tag: Tag) -> usize {
        if self.shards == 1 {
            0
        } else {
            self.handle.shared.route(peer, tag)
        }
    }

    #[inline]
    fn stage(&mut self, shard: usize, op: EngineOp) {
        self.pending += 1;
        if shard == 0 {
            self.primary_staged += 1;
            if let Err(op) = self.primary.push(op) {
                let full = std::mem::take(&mut self.primary);
                let _ = self.primary.push(op);
                self.push_slot(0, full);
            }
        } else {
            let r = &mut self.rest[shard - 1];
            r.1 += 1;
            if let Err(op) = r.0.push(op) {
                let full = std::mem::take(&mut r.0);
                let _ = r.0.push(op);
                self.push_slot(shard, full);
            }
        }
    }

    /// Quiet slot push with backpressure: a full ring gets the doorbell
    /// (the consumer may be parked behind our own unflushed work) and a
    /// yield, never a drop.
    fn push_slot(&self, shard: usize, mut slot: OpBatch) {
        let ring = &self.handle.shared.rings[shard];
        loop {
            match ring.try_push_quiet(slot) {
                Ok(()) => return,
                Err(back) => {
                    slot = back;
                    ring.doorbell();
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Stages one application send made of `parts` segments; the id is
    /// live (waitable) once [`flush`](Self::flush) returns.
    pub fn submit_send_parts(
        &mut self,
        dst: NodeId,
        tag: Tag,
        parts: Vec<(Bytes, Priority)>,
        rail_hint: Option<usize>,
    ) -> SendReqId {
        let req = SendReqId(self.alloc_id());
        let shard = self.shard_of(dst, tag);
        self.stage(
            shard,
            EngineOp::Send {
                req,
                dst,
                tag,
                parts,
                rail_hint,
            },
        );
        req
    }

    /// Stages a single-segment send.
    pub fn isend(&mut self, dst: NodeId, tag: Tag, data: impl Into<Bytes>) -> SendReqId {
        self.submit_send_parts(dst, tag, vec![(data.into(), Priority::Normal)], None)
    }

    /// Stages a receive of up to `max` bytes for flow (src, tag).
    #[inline]
    pub fn post_recv(&mut self, src: NodeId, tag: Tag, max: usize) -> RecvReqId {
        let req = RecvReqId(self.alloc_id());
        let shard = self.shard_of(src, tag);
        self.stage(shard, EngineOp::Recv { req, src, tag, max });
        req
    }

    /// Operations staged since the last flush, across all shards.
    #[inline]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Pushes the partially filled slots (if any) and rings each
    /// touched shard's doorbell once for everything staged since the
    /// last flush. The builder is reusable afterwards.
    pub fn flush(&mut self) {
        self.pending = 0;
        if !self.primary.is_empty() {
            let full = std::mem::take(&mut self.primary);
            self.push_slot(0, full);
        }
        if self.primary_staged > 0 {
            self.handle.shared.rings[0].doorbell();
            self.primary_staged = 0;
        }
        for shard in 1..self.shards {
            if !self.rest[shard - 1].0.is_empty() {
                let full = std::mem::take(&mut self.rest[shard - 1].0);
                self.push_slot(shard, full);
            }
            if self.rest[shard - 1].1 > 0 {
                self.handle.shared.rings[shard].doorbell();
                self.rest[shard - 1].1 = 0;
            }
        }
    }
}

impl Drop for SubmitBatch<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Max operations a progression thread drains from its ring between
/// pumps, bounding submission-drain latency vs fairness.
const SUBMIT_BATCH: usize = 256;

/// How long a progression thread parks when its engine is idle and its
/// ring is empty before re-checking.
const IDLE_PARK: Duration = Duration::from_micros(200);

/// A progression shard's thread body: drain the submission ring, pump
/// the engine, harvest completions, park when idle.
/// Every shard count runs the same loop: shards share nothing but the
/// board, the id watermark and the liveness flag.
// HOT-PATH: shard pump loop
fn run(mut engine: NmadEngine, shared: &Shared, shard: usize) -> NmadEngine {
    let mut shutting_down = false;
    let ring = &shared.rings[shard]; // PANIC-OK: shard < rings.len() by the spawn loop
    loop {
        // 1. Drain a bounded batch of submissions: one ring pop hands
        // over a whole slot of up to SLOT_OPS operations, so the
        // per-slot synchronization cost is amortized across the run.
        let mut drained = 0usize;
        while drained < SUBMIT_BATCH {
            let Some(batch) = ring.pop() else {
                break;
            };
            for op in batch {
                match op {
                    EngineOp::Send {
                        req,
                        dst,
                        tag,
                        parts,
                        rail_hint,
                    } => engine.submit_send_parts_as(req, dst, tag, parts, rail_hint),
                    EngineOp::Recv { req, src, tag, max } => {
                        engine.post_recv_as(req, src, tag, max)
                    }
                    EngineOp::Snapshot => {
                        let snap = engine.metrics();
                        shared.snap_slot.lock()[shard] = Some(snap);
                        shared.snap_cv.notify_all();
                    }
                    EngineOp::Shutdown => shutting_down = true,
                }
                drained += 1;
            }
        }

        // 2. One engine pump. A transport error kills the thread but
        // leaves a diagnosis for blocked waiters.
        let moved = match engine.try_progress() {
            Ok(moved) => moved,
            Err(e) => {
                *shared.fail.lock() =
                    Some(format!("transport failure on node {}: {e}", engine.node())); // ALLOC-OK: fatal-error path; the pump exits after
                shared.dead.store(true, Ordering::SeqCst);
                break;
            }
        };

        // 3. Harvest completions onto the board, batched symmetrically
        // with submission: each board bucket's lock is taken at most
        // once per harvest instead of once per completion.
        let done_sends = engine.drain_done_sends();
        let done_recvs = engine.drain_done_recvs();
        let harvested = !done_sends.is_empty() || !done_recvs.is_empty();
        shared.board.post_sends_done(&done_sends);
        shared.board.post_recvs_done(done_recvs);

        // Another shard died: exit even if not quiescent, so shutdown
        // joins don't hang behind work that can never finish.
        // ORDERING: advisory liveness flag; the error message travels under the board mutex
        if shared.dead.load(Ordering::Relaxed) {
            break;
        }

        if shutting_down && ring.is_empty() && engine.tx_quiescent() {
            break;
        }

        // 4. Pace: spin while work is outstanding, park on the ring
        // otherwise.
        if !moved && !harvested && drained == 0 {
            if engine.has_outstanding() || shutting_down {
                std::thread::yield_now();
            } else {
                ring.wait_nonempty(IDLE_PARK);
            }
        }
    }
    engine
}

/// Model-checked board properties (see `tests/model_check.rs` for the
/// rest of the suite): the [`CompletionBoard`] constructor is private,
/// so its exhaustive checks live here.
#[cfg(all(test, nmad_model))]
mod model_tests {
    use super::*;
    use crate::matching::RecvDone;
    use nmad_verify::{thread, Checker};

    /// Concurrent posts of *distinct* request ids never count as
    /// duplicates and are all observable afterwards, in every schedule.
    #[test]
    fn model_board_distinct_posts_are_duplicate_free() {
        let stats = Checker::new()
            .check(|| {
                let board = Arc::new(CompletionBoard::new(1));
                let (b1, b2) = (Arc::clone(&board), Arc::clone(&board));
                let t1 = thread::spawn(move || b1.post_sends_done(&[SendReqId(1)]));
                let t2 = thread::spawn(move || b2.post_sends_done(&[SendReqId(2)]));
                board.post_recvs_done(vec![(
                    RecvReqId(3),
                    RecvDone {
                        src: NodeId(0),
                        tag: Tag(0),
                        data: Bytes::from_static(b"x"),
                        truncated: false,
                    },
                )]);
                t1.join();
                t2.join();
                assert_eq!(board.duplicates(), 0, "distinct ids flagged duplicate");
                assert!(board.is_send_done(SendReqId(1)));
                assert!(board.is_send_done(SendReqId(2)));
                assert!(board.is_recv_done(RecvReqId(3)));
            })
            .expect("board posting must be duplicate-free in every schedule");
        assert!(
            stats.schedules >= 20,
            "board model underexplored: {stats:?}"
        );
    }

    /// Racing posts of the *same* id are counted — exactly once — no
    /// matter which thread wins the shard lock.
    #[test]
    fn model_board_counts_racing_duplicate_posts() {
        Checker::new()
            .check(|| {
                let board = Arc::new(CompletionBoard::new(1));
                let (b1, b2) = (Arc::clone(&board), Arc::clone(&board));
                let t1 = thread::spawn(move || b1.post_sends_done(&[SendReqId(7)]));
                let t2 = thread::spawn(move || b2.post_sends_done(&[SendReqId(7)]));
                t1.join();
                t2.join();
                assert_eq!(
                    board.duplicates(),
                    1,
                    "exactly one of the two racing posts is the duplicate"
                );
                assert!(board.is_send_done(SendReqId(7)));
            })
            .expect("duplicate accounting must hold in every schedule");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineCosts;
    use crate::strategy::StratAggreg;
    use nmad_net::mem::mem_fabric;
    use nmad_net::NullMeter;

    fn mem_pair() -> (ThreadedEngine, ThreadedEngine) {
        let mut fabric = mem_fabric(2);
        let b = fabric.pop().unwrap();
        let a = fabric.pop().unwrap();
        let launch = |d: nmad_net::mem::MemDriver| {
            ThreadedEngine::launch(
                NmadEngine::new(
                    vec![Box::new(d)],
                    Box::new(NullMeter),
                    Box::new(StratAggreg),
                    EngineCosts::zero(),
                ),
                EngineConfig::threaded(),
            )
        };
        (launch(a), launch(b))
    }

    /// A two-node pair with `rails` independent in-memory rails per
    /// node (one fabric per rail), launched with `shards` progression
    /// shards.
    fn mem_pair_sharded(rails: usize, shards: usize) -> (ThreadedEngine, ThreadedEngine) {
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
            ThreadedEngine::launch(
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
    fn threaded_roundtrip_delivers_payload() {
        let (a, b) = mem_pair();
        let (ah, bh) = (a.handle(), b.handle());
        let r = bh.post_recv(NodeId(0), Tag(5), 64);
        let s = ah.isend(NodeId(1), Tag(5), &b"payload"[..]);
        ah.wait_send(s);
        let done = bh.wait_recv(r);
        assert_eq!(done.data, b"payload");
        assert_eq!(done.src, NodeId(0));
        assert!(bh.try_take_recv(r).is_none(), "taken once");
        assert_eq!(ah.completion_duplicates(), 0);
        assert_eq!(bh.completion_duplicates(), 0);
    }

    #[test]
    fn batched_submission_roundtrip_with_one_flush() {
        let (a, b) = mem_pair();
        let (ah, bh) = (a.handle(), b.handle());
        let n = 40u32; // several ring slots' worth

        let mut rb = bh.submit_batch();
        let recvs: Vec<_> = (0..n)
            .map(|t| rb.post_recv(NodeId(0), Tag(t), 64))
            .collect();
        assert_eq!(rb.pending(), n as usize);
        rb.flush();
        assert_eq!(rb.pending(), 0);
        drop(rb);

        let mut sb = ah.submit_batch();
        let sends: Vec<_> = (0..n)
            .map(|t| sb.isend(NodeId(1), Tag(t), vec![t as u8; 48]))
            .collect();
        sb.flush();

        ah.wait_sends(&sends);
        let dones = bh.wait_recvs(&recvs);
        for (t, done) in dones.iter().enumerate() {
            assert_eq!(done.data, vec![t as u8; 48], "payload for tag {t}");
            assert_eq!(done.src, NodeId(0));
        }
        assert_eq!(ah.completion_duplicates(), 0);
        assert_eq!(bh.completion_duplicates(), 0);
    }

    #[test]
    fn dropping_an_unflushed_batch_flushes_it() {
        let (a, b) = mem_pair();
        let (ah, bh) = (a.handle(), b.handle());
        let r = bh.post_recv(NodeId(0), Tag(9), 16);
        let s = {
            let mut batch = ah.submit_batch();
            batch.isend(NodeId(1), Tag(9), &b"implicit"[..])
            // No explicit flush: Drop must push the partial slot and
            // ring the doorbell.
        };
        ah.wait_send(s);
        assert_eq!(bh.wait_recv(r).data, b"implicit");
    }

    #[test]
    fn batched_and_single_submissions_interleave_per_flow_fifo() {
        let (a, b) = mem_pair();
        let (ah, bh) = (a.handle(), b.handle());
        let recvs: Vec<_> = (0..6).map(|_| bh.post_recv(NodeId(0), Tag(3), 8)).collect();
        let s1 = ah.isend(NodeId(1), Tag(3), &b"m0"[..]);
        let mut batch = ah.submit_batch();
        let s2 = batch.isend(NodeId(1), Tag(3), &b"m1"[..]);
        let s3 = batch.isend(NodeId(1), Tag(3), &b"m2"[..]);
        batch.flush();
        let s4 = ah.isend(NodeId(1), Tag(3), &b"m3"[..]);
        let mut batch2 = ah.submit_batch();
        let s5 = batch2.isend(NodeId(1), Tag(3), &b"m4"[..]);
        let s6 = batch2.isend(NodeId(1), Tag(3), &b"m5"[..]);
        batch2.flush();
        ah.wait_sends(&[s1, s2, s3, s4, s5, s6]);
        let dones = bh.wait_recvs(&recvs);
        let got: Vec<_> = dones.iter().map(|d| d.data.clone()).collect();
        assert_eq!(
            got,
            [&b"m0"[..], b"m1", b"m2", b"m3", b"m4", b"m5"],
            "same-flow order across batched/unbatched submissions"
        );
    }

    #[test]
    fn threaded_rendezvous_roundtrip() {
        let (a, b) = mem_pair();
        let (ah, bh) = (a.handle(), b.handle());
        let body: Vec<u8> = (0..200_000u32).map(|i| (i % 241) as u8).collect();
        let r = bh.post_recv(NodeId(0), Tag(1), body.len());
        let s = ah.isend(NodeId(1), Tag(1), body.clone());
        ah.wait_send(s);
        assert_eq!(bh.wait_recv(r).data, body);
    }

    #[test]
    fn threaded_shutdown_returns_the_engine_for_inline_use() {
        let (a, b) = mem_pair();
        let (ah, bh) = (a.handle(), b.handle());
        let r = bh.post_recv(NodeId(0), Tag(0), 16);
        let s = ah.isend(NodeId(1), Tag(0), &b"one"[..]);
        ah.wait_send(s);
        bh.wait_recv(r);
        let mut a = a.shutdown();
        let mut b = b.shutdown();
        // Inline use after shutdown; ids must not collide with the
        // threaded phase's.
        let r2 = b.post_recv(NodeId(0), Tag(0), 16);
        let s2 = a.isend(NodeId(1), Tag(0), &b"two"[..]);
        assert!(s2.0 > s.0, "request ids reused after shutdown");
        for _ in 0..10_000 {
            a.progress_until_idle();
            b.progress_until_idle();
            if a.is_send_done(s2) && b.is_recv_done(r2) {
                break;
            }
        }
        assert_eq!(b.try_take_recv(r2).unwrap().data, b"two");
    }

    #[test]
    fn threaded_metrics_snapshot_is_exact() {
        let (a, b) = mem_pair();
        let (ah, bh) = (a.handle(), b.handle());
        let n = 8u32;
        let recvs: Vec<_> = (0..n)
            .map(|t| bh.post_recv(NodeId(0), Tag(t), 64))
            .collect();
        let sends: Vec<_> = (0..n)
            .map(|t| ah.isend(NodeId(1), Tag(t), vec![t as u8; 64]))
            .collect();
        for s in sends {
            ah.wait_send(s);
        }
        for r in recvs {
            bh.wait_recv(r);
        }
        // The snapshot RPC runs on the progression thread: totals are
        // exact, not approximate.
        let snap = ah.metrics();
        assert_eq!(snap.engine.requests_submitted, u64::from(n));
        assert_eq!(snap.engine.eager_entries, u64::from(n));
        assert_eq!(snap.wire.data_entries, u64::from(n));
        assert_eq!(snap.nics.len(), 1);
    }

    #[test]
    fn sharded_roundtrip_covers_every_shard() {
        let (a, b) = mem_pair_sharded(2, 2);
        assert_eq!(a.shards(), 2);
        let (ah, bh) = (a.handle(), b.handle());
        // Enough tags that HashByDest populates both shards.
        let n = 32u32;
        let shards_hit: std::collections::HashSet<usize> =
            (0..n).map(|t| ah.shard_of(NodeId(1), Tag(t))).collect();
        assert_eq!(shards_hit.len(), 2, "tag mix must cover both shards");
        let recvs: Vec<_> = (0..n)
            .map(|t| bh.post_recv(NodeId(0), Tag(t), 64))
            .collect();
        let sends: Vec<_> = (0..n)
            .map(|t| ah.isend(NodeId(1), Tag(t), vec![t as u8; 48]))
            .collect();
        ah.wait_sends(&sends);
        let dones = bh.wait_recvs(&recvs);
        for (t, done) in dones.iter().enumerate() {
            assert_eq!(done.data, vec![t as u8; 48], "payload for tag {t}");
            assert_eq!(done.src, NodeId(0));
        }

        // One send of three parts crosses the ring as one op; its
        // segments land on three in-order receives of the same flow.
        let tag = Tag(n);
        let recvs: Vec<_> = (0..3).map(|_| bh.post_recv(NodeId(0), tag, 16)).collect();
        let parts = (0..3u8)
            .map(|i| (Bytes::from(vec![i; 8 + usize::from(i)]), Priority::Normal))
            .collect();
        let s = ah.submit_send_parts(NodeId(1), tag, parts, None);
        ah.wait_send(s);
        for (i, done) in bh.wait_recvs(&recvs).iter().enumerate() {
            assert_eq!(done.data, vec![i as u8; 8 + i], "part {i}");
        }
        assert_eq!(ah.completion_duplicates(), 0);
        assert_eq!(bh.completion_duplicates(), 0);
    }

    #[test]
    fn sharded_launch_clamps_shards_to_rail_count() {
        let (a, b) = mem_pair_sharded(2, 8);
        assert_eq!(a.shards(), 2, "no shard may run without a rail");
        let (ah, bh) = (a.handle(), b.handle());
        let r = bh.post_recv(NodeId(0), Tag(1), 16);
        let s = ah.isend(NodeId(1), Tag(1), &b"clamped"[..]);
        ah.wait_send(s);
        assert_eq!(bh.wait_recv(r).data, b"clamped");
    }

    #[test]
    fn sharded_shutdown_merges_back_to_one_inline_engine() {
        let (a, b) = mem_pair_sharded(2, 2);
        let (ah, bh) = (a.handle(), b.handle());
        let n = 16u32;
        let recvs: Vec<_> = (0..n)
            .map(|t| bh.post_recv(NodeId(0), Tag(t), 32))
            .collect();
        let sends: Vec<_> = (0..n)
            .map(|t| ah.isend(NodeId(1), Tag(t), vec![t as u8; 24]))
            .collect();
        ah.wait_sends(&sends);
        bh.wait_recvs(&recvs);
        let max_send = sends.iter().map(|s| s.0).max().unwrap();
        let mut a = a.shutdown();
        let mut b = b.shutdown();
        assert_eq!(a.rail_count(), 2, "merge restores every rail");
        // Inline use after the merge; sequence state must continue the
        // threaded phase's per-flow numbering.
        let r2 = b.post_recv(NodeId(0), Tag(3), 32);
        let s2 = a.isend(NodeId(1), Tag(3), &b"post-merge"[..]);
        assert!(s2.0 > max_send, "request ids reused after shutdown");
        for _ in 0..10_000 {
            a.progress_until_idle();
            b.progress_until_idle();
            if a.is_send_done(s2) && b.is_recv_done(r2) {
                break;
            }
        }
        assert_eq!(b.try_take_recv(r2).unwrap().data, b"post-merge");
    }

    #[test]
    fn sharded_metrics_aggregate_across_shards() {
        let (a, b) = mem_pair_sharded(2, 2);
        let (ah, bh) = (a.handle(), b.handle());
        let n = 24u32;
        let recvs: Vec<_> = (0..n)
            .map(|t| bh.post_recv(NodeId(0), Tag(t), 64))
            .collect();
        let sends: Vec<_> = (0..n)
            .map(|t| ah.isend(NodeId(1), Tag(t), vec![t as u8; 64]))
            .collect();
        ah.wait_sends(&sends);
        bh.wait_recvs(&recvs);
        let snap = ah.metrics();
        assert_eq!(snap.engine.requests_submitted, u64::from(n));
        assert_eq!(snap.wire.data_entries, u64::from(n));
        assert_eq!(snap.nics.len(), 2, "both rails in the aggregate");
    }

    /// A transport error kills the shard that hits it, waiters panic
    /// with its diagnosis, and every other shard leaves through the
    /// `dead` flag, so dropping the runtime still joins. With two
    /// shards, shard 1 holds a rendezvous whose RTS is never answered:
    /// it is not quiescent, so a clean shutdown alone would never let
    /// it exit.
    #[test]
    fn transport_failure_reaches_waiters_and_stops_every_shard() {
        use nmad_net::Driver;
        for shards in [1, 2] {
            let mut rails: Vec<Box<dyn Driver>> = Vec::new();
            let mut peers = Vec::new();
            for _ in 0..shards {
                let mut fabric = mem_fabric(2);
                peers.push(fabric.pop().unwrap());
                rails.push(Box::new(fabric.pop().unwrap()));
            }
            let a = ThreadedEngine::launch(
                NmadEngine::new(
                    rails,
                    Box::new(NullMeter),
                    Box::new(StratAggreg),
                    EngineCosts::zero(),
                ),
                EngineConfig::sharded(shards),
            );
            let ah = a.handle();
            if shards == 2 {
                let tag = (0..).map(Tag).find(|&t| ah.shard_of(NodeId(1), t) == 1);
                ah.isend(NodeId(1), tag.unwrap(), vec![0u8; 100_000]);
                // Rail 1 belongs to shard 1: the RTS arriving there
                // means shard 1 now waits for a CTS.
                while peers[1].poll_recv().unwrap().is_none() {
                    std::thread::yield_now();
                }
            }
            let r = ah.post_recv(NodeId(1), Tag(0), 64);
            peers[0].post_send(NodeId(0), &[b"garbage"]).unwrap();
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ah.wait_recv(r)))
                .expect_err("a malformed frame must stop the runtime");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("malformed frame"), "{shards} shard(s): {msg}");
            drop(a);
        }
    }

    #[test]
    #[should_panic(expected = "refuses background progression")]
    fn threaded_launch_rejects_simulated_drivers() {
        use nmad_net::sim::SimDriver;
        use nmad_sim::{nic, shared_world, RailId, SimConfig};
        let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
        let d = SimDriver::new(world, NodeId(0), RailId(0));
        let m = Box::new(d.meter());
        let engine = NmadEngine::new(
            vec![Box::new(d)],
            m,
            Box::new(StratAggreg),
            EngineCosts::zero(),
        );
        let _ = ThreadedEngine::launch(engine, EngineConfig::threaded());
    }
}
