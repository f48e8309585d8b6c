//! Threaded asynchronous progression: a dedicated thread owns the
//! engine and pumps it, so communication overlaps application
//! computation instead of waiting for the application to poll.
//!
//! Ownership map:
//!
//! * the **progression thread** exclusively owns the [`NmadEngine`] —
//!   drivers, optimization window, strategy, matching state. No lock
//!   guards any of it: the engine's single-threaded state machine runs
//!   unmodified, just on another thread. One thread pumps every rail:
//!   the scheduler is asked for a frame whenever any NIC goes idle, so
//!   one engine already keeps all of its rails busy.
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
//! * **completions** come back through a bucketed [`CompletionBoard`]
//!   that `test`/`wait` poll without touching the engine, and counters
//!   through [`ThreadedHandle::metrics`], a snapshot the progression
//!   thread takes between pumps.
//!
//! Engines split with [`NmadEngine::split_for_shards`] are not run
//! here: their caller pumps them inline (see `DESIGN.md` §14).
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

use crate::engine::{EngineConfig, NmadEngine};
use crate::matching::RecvDone;
use crate::metrics::MetricsSnapshot;
use crate::ring::{Batch, SubmitRing};
use crate::segment::{Priority, RecvReqId, SendReqId, Tag};

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

/// Completion-board buckets: waiters on unrelated request ids contend
/// on different locks.
const BOARD_SHARDS: usize = 16;

#[derive(Default)]
struct BoardShard {
    sends: FxHashSet<u64>,
    recvs: FxHashMap<u64, RecvDone>,
}

/// Sharded completion queue the progression thread fills and
/// application threads poll. Sharding by request id keeps unrelated
/// waiters off each other's cache lines and locks; the engine itself
/// is never touched on the poll path. The bucket index is a pure
/// function of the request id, so a waiter always looks where the
/// completion was posted.
pub struct CompletionBoard {
    shards: Vec<CachePadded<Mutex<BoardShard>>>,
    /// Completions posted for an id already on the board — always a
    /// bug (request ids are unique); counted instead of silently
    /// overwritten so stress tests can assert zero.
    duplicates: AtomicU64,
}

impl CompletionBoard {
    fn new() -> Self {
        CompletionBoard {
            shards: (0..BOARD_SHARDS)
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

/// Capacity of the submission ring. A full ring pushes back on
/// submitters instead of growing.
const SUBMIT_RING_CAPACITY: usize = 1024;

/// State shared between application threads and the progression
/// thread.
struct Shared {
    ring: SubmitRing<OpBatch>,
    board: CompletionBoard,
    /// Application-side request id allocator, seeded from the engine's
    /// watermark at launch.
    next_req: AtomicU64,
    /// Serialises snapshot requesters (one RPC slot).
    snap_serial: Mutex<()>,
    /// The snapshot cell: a requester pushes an [`EngineOp::Snapshot`]
    /// and waits until the progression thread fills it.
    snap_slot: Mutex<Option<MetricsSnapshot>>,
    snap_cv: Condvar,
    /// The progression thread died on a transport error.
    dead: AtomicBool,
    fail: Mutex<Option<String>>,
}

/// A running progression runtime — one thread — plus the engine that
/// thread owns. Created with [`ThreadedEngine::launch`]; hand out
/// [`ThreadedHandle`]s with [`handle`](Self::handle); get the engine
/// back with [`shutdown`](Self::shutdown).
pub struct ThreadedEngine {
    shared: Arc<Shared>,
    node: NodeId,
    thread: Option<std::thread::JoinHandle<NmadEngine>>,
}

/// Cloneable application-side handle to a [`ThreadedEngine`]: submit
/// through the ring, poll the completion board, snapshot the metrics.
#[derive(Clone)]
pub struct ThreadedHandle {
    shared: Arc<Shared>,
    node: NodeId,
}

impl ThreadedEngine {
    /// Moves `engine` onto a freshly spawned progression thread, which
    /// pumps every one of its rails. [`EngineConfig::threaded`] is the
    /// only configuration.
    ///
    /// Panics if any of the engine's drivers vetoes background
    /// progression (the simulated transport does — see the module
    /// documentation).
    pub fn launch(engine: NmadEngine, _config: EngineConfig) -> Self {
        assert!(
            engine.threaded_progress_safe(),
            "a driver on node {} refuses background progression \
             (simulated transports must stay inline)",
            engine.node()
        );
        let node = engine.node();
        let shared = Arc::new(Shared {
            ring: SubmitRing::new(SUBMIT_RING_CAPACITY),
            board: CompletionBoard::new(),
            next_req: AtomicU64::new(engine.req_watermark()),
            snap_serial: Mutex::new(()),
            snap_slot: Mutex::new(None),
            snap_cv: Condvar::new(),
            dead: AtomicBool::new(false),
            fail: Mutex::new(None),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("nmad-progress-{}", node.0))
                .spawn(move || run(engine, &shared))
                .expect("spawn progression thread")
        };
        ThreadedEngine {
            shared,
            node,
            thread: Some(thread),
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

    /// Stops the progression thread — after it drains the ring and
    /// quiesces its transmit side — and returns the engine for inline
    /// use. Completions still parked on the board are dropped with it.
    pub fn shutdown(mut self) -> NmadEngine {
        self.shared.ring.push(Batch::of_one(EngineOp::Shutdown));
        let thread = self.thread.take().expect("joined only here or in Drop");
        let mut engine = thread.join().expect("progression thread panicked");
        // Ids handed out by handles but never submitted must still
        // never be reallocated inline.
        engine.set_req_watermark(self.shared.next_req.load(Ordering::Relaxed)); // ORDERING: read after the submit ring quiesced; the drain orders it
        engine
    }
}

impl Drop for ThreadedEngine {
    fn drop(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.shared.ring.push(Batch::of_one(EngineOp::Shutdown));
        // The engine is discarded; a panic on the progression thread
        // surfaces at the join unless we are already unwinding.
        if std::thread::panicking() {
            let _ = thread.join();
        } else {
            let _engine = thread.join().expect("progression thread panicked");
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

    /// Submits one application send made of `parts` segments (see
    /// [`NmadEngine::submit_send_parts`]). Blocks only for ring
    /// backpressure (a full submission ring).
    pub fn submit_send_parts(
        &self,
        dst: NodeId,
        tag: Tag,
        parts: Vec<(Bytes, Priority)>,
        rail_hint: Option<usize>,
    ) -> SendReqId {
        let req = SendReqId(self.alloc());
        self.shared.ring.push(Batch::of_one(EngineOp::Send {
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
    /// flow (src, tag).
    pub fn post_recv(&self, src: NodeId, tag: Tag, max: usize) -> RecvReqId {
        let req = RecvReqId(self.alloc());
        self.shared
            .ring
            .push(Batch::of_one(EngineOp::Recv { req, src, tag, max }));
        req
    }

    /// Opens a batched submission: operations staged on the returned
    /// builder share ring slots ([`SLOT_OPS`] per CAS) and the consumer
    /// doorbell rings **once**, at [`flush`](SubmitBatch::flush) (or
    /// drop). Request ids are allocated eagerly, so staged operations
    /// can be waited on — after the flush — exactly like single
    /// submissions.
    pub fn submit_batch(&self) -> SubmitBatch<'_> {
        SubmitBatch {
            handle: self,
            slot: Batch::new(),
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
    /// taken *on the progression thread* between pumps — its totals are
    /// exact at the moment it is taken, like the inline
    /// [`NmadEngine::metrics`].
    pub fn metrics(&self) -> MetricsSnapshot {
        // One requester at a time owns the RPC slot.
        let _serial = self.shared.snap_serial.lock();
        self.shared.ring.push(Batch::of_one(EngineOp::Snapshot));
        let mut slot = self.shared.snap_slot.lock();
        loop {
            if let Some(snap) = slot.take() {
                return snap;
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

/// A staged run of submissions sharing ring slots and one doorbell.
///
/// Obtained from [`ThreadedHandle::submit_batch`]. Operations staged
/// here are pushed quietly — full slots go into the ring without
/// waking the consumer — and the doorbell rings at most once, at
/// [`flush`](Self::flush). Until the flush, a parked progression thread
/// stays parked, so **never wait on a staged request before flushing**.
/// Dropping the builder flushes.
pub struct SubmitBatch<'a> {
    handle: &'a ThreadedHandle,
    /// The open slot, filled in place until it holds [`SLOT_OPS`]
    /// operations.
    slot: OpBatch,
    /// Operations staged (pushed quietly or buffered) since the last
    /// flush; a nonzero count earns exactly one doorbell at flush.
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

    #[inline]
    fn stage(&mut self, op: EngineOp) {
        self.pending += 1;
        if let Err(op) = self.slot.push(op) {
            let full = std::mem::take(&mut self.slot);
            let _ = self.slot.push(op);
            self.push_slot(full);
        }
    }

    /// Quiet slot push with backpressure: a full ring gets the doorbell
    /// (the consumer may be parked behind our own unflushed work) and a
    /// yield, never a drop.
    fn push_slot(&self, mut slot: OpBatch) {
        let ring = &self.handle.shared.ring;
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
        self.stage(EngineOp::Send {
            req,
            dst,
            tag,
            parts,
            rail_hint,
        });
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
        self.stage(EngineOp::Recv { req, src, tag, max });
        req
    }

    /// Operations staged since the last flush.
    #[inline]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Pushes the partially filled slot (if any) and rings the doorbell
    /// once for everything staged since the last flush. The builder is
    /// reusable afterwards.
    pub fn flush(&mut self) {
        if !self.slot.is_empty() {
            let full = std::mem::take(&mut self.slot);
            self.push_slot(full);
        }
        if self.pending > 0 {
            self.handle.shared.ring.doorbell();
            self.pending = 0;
        }
    }
}

impl Drop for SubmitBatch<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Max operations the progression thread drains from its ring between
/// pumps, bounding submission-drain latency vs fairness.
const SUBMIT_BATCH: usize = 256;

/// How long the progression thread parks when its engine is idle and
/// its ring is empty before re-checking.
const IDLE_PARK: Duration = Duration::from_micros(200);

/// The progression thread's body: drain the submission ring, pump the
/// engine, harvest completions, park when idle.
// HOT-PATH: progression pump loop
fn run(mut engine: NmadEngine, shared: &Shared) -> NmadEngine {
    let mut shutting_down = false;
    let ring = &shared.ring;
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
                        *shared.snap_slot.lock() = Some(snap);
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
                let board = Arc::new(CompletionBoard::new());
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
                let board = Arc::new(CompletionBoard::new());
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
    use nmad_net::{Driver, NullMeter};

    fn engine_over(rails: Vec<Box<dyn Driver>>) -> NmadEngine {
        NmadEngine::new(
            rails,
            Box::new(NullMeter),
            Box::new(StratAggreg),
            EngineCosts::zero(),
        )
    }

    /// A two-node pair with `rails` independent in-memory rails per
    /// node (one fabric per rail), each node on its own runtime.
    fn mem_pair(rails: usize) -> (ThreadedEngine, ThreadedEngine) {
        let mut a_rails: Vec<Box<dyn Driver>> = Vec::new();
        let mut b_rails: Vec<Box<dyn Driver>> = Vec::new();
        for _ in 0..rails {
            let mut fabric = mem_fabric(2);
            b_rails.push(Box::new(fabric.pop().unwrap()));
            a_rails.push(Box::new(fabric.pop().unwrap()));
        }
        let launch = |rails| ThreadedEngine::launch(engine_over(rails), EngineConfig::threaded());
        (launch(a_rails), launch(b_rails))
    }

    #[test]
    fn threaded_roundtrip_delivers_payload() {
        let (a, b) = mem_pair(1);
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
        let (a, b) = mem_pair(1);
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
        let (a, b) = mem_pair(1);
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
        let (a, b) = mem_pair(1);
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
        let (a, b) = mem_pair(1);
        let (ah, bh) = (a.handle(), b.handle());
        let body: Vec<u8> = (0..200_000u32).map(|i| (i % 241) as u8).collect();
        let r = bh.post_recv(NodeId(0), Tag(1), body.len());
        let s = ah.isend(NodeId(1), Tag(1), body.clone());
        ah.wait_send(s);
        assert_eq!(bh.wait_recv(r).data, body);
    }

    #[test]
    fn threaded_shutdown_returns_the_engine_for_inline_use() {
        let (a, b) = mem_pair(1);
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
        let (a, b) = mem_pair(1);
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
    fn multi_rail_roundtrip_delivers_single_and_multi_part_sends() {
        let (a, b) = mem_pair(2);
        let (ah, bh) = (a.handle(), b.handle());
        let n = 32u32;
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

    /// A rail hint crosses the ring with its send: on a 2-rail runtime
    /// every hinted frame leaves on the rail it names, seen directly at
    /// the peer's two raw endpoints.
    #[test]
    fn rail_hints_cross_the_ring_to_their_rail() {
        let mut rails: Vec<Box<dyn Driver>> = Vec::new();
        let mut peers = Vec::new();
        for _ in 0..2 {
            let mut fabric = mem_fabric(2);
            peers.push(fabric.pop().unwrap());
            rails.push(Box::new(fabric.pop().unwrap()));
        }
        let a = ThreadedEngine::launch(engine_over(rails), EngineConfig::threaded());
        let ah = a.handle();
        for rail in [1usize, 0, 1] {
            let part = (Bytes::from_static(b"pinned"), Priority::Normal);
            let s = ah.submit_send_parts(NodeId(1), Tag(0), vec![part], Some(rail));
            ah.wait_send(s);
            let frame = loop {
                if let Some(frame) = peers[rail].poll_recv().unwrap() {
                    break frame;
                }
                std::thread::yield_now();
            };
            assert_eq!(frame.src, NodeId(0));
            assert!(
                peers[1 - rail].poll_recv().unwrap().is_none(),
                "a send hinted to rail {rail} left on the other rail"
            );
        }
    }

    #[test]
    fn multi_rail_shutdown_returns_every_rail_for_inline_use() {
        let (a, b) = mem_pair(2);
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
        assert_eq!(a.rail_count(), 2, "shutdown returns every rail");
        // Inline use after shutdown; sequence state must continue the
        // threaded phase's per-flow numbering.
        let r2 = b.post_recv(NodeId(0), Tag(3), 32);
        let s2 = a.isend(NodeId(1), Tag(3), &b"after shutdown"[..]);
        assert!(s2.0 > max_send, "request ids reused after shutdown");
        for _ in 0..10_000 {
            a.progress_until_idle();
            b.progress_until_idle();
            if a.is_send_done(s2) && b.is_recv_done(r2) {
                break;
            }
        }
        assert_eq!(b.try_take_recv(r2).unwrap().data, b"after shutdown");
    }

    #[test]
    fn multi_rail_metrics_snapshot_lists_every_rail() {
        let (a, b) = mem_pair(2);
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
        assert_eq!(snap.nics.len(), 2, "both rails in the snapshot");
    }

    /// A transport error stops the progression thread, waiters panic
    /// with its diagnosis, and dropping the runtime still joins. With
    /// two rails the engine also holds a rendezvous whose RTS is never
    /// answered: it is not quiescent, so only the error lets the thread
    /// exit.
    #[test]
    fn transport_failure_reaches_waiters_and_stops_the_runtime() {
        for rails in [1, 2] {
            let mut drivers: Vec<Box<dyn Driver>> = Vec::new();
            let mut peers = Vec::new();
            for _ in 0..rails {
                let mut fabric = mem_fabric(2);
                peers.push(fabric.pop().unwrap());
                drivers.push(Box::new(fabric.pop().unwrap()));
            }
            let a = ThreadedEngine::launch(engine_over(drivers), EngineConfig::threaded());
            let ah = a.handle();
            if rails == 2 {
                ah.isend(NodeId(1), Tag(1), vec![0u8; 100_000]);
                // The RTS reaching a peer endpoint means the engine now
                // waits for a CTS that never comes.
                'rts: loop {
                    for peer in &mut peers {
                        if peer.poll_recv().unwrap().is_some() {
                            break 'rts;
                        }
                    }
                    std::thread::yield_now();
                }
            }
            let r = ah.post_recv(NodeId(1), Tag(0), 64);
            peers[0].post_send(NodeId(0), &[b"garbage"]).unwrap();
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ah.wait_recv(r)))
                .expect_err("a malformed frame must stop the runtime");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("malformed frame"), "{rails} rail(s): {msg}");
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

    /// The simulator's veto survives every driver decorator: each one
    /// forwards `threaded_progress_safe` to the driver it wraps.
    #[test]
    fn threaded_launch_rejects_decorated_simulated_drivers() {
        use nmad_net::sim::SimDriver;
        use nmad_net::{LossyDriver, ReliableDriver, SelectiveDriver};
        use nmad_sim::{nic, shared_world, RailId, SimConfig};
        let decorators: [fn(SimDriver) -> Box<dyn Driver>; 3] = [
            |d| Box::new(LossyDriver::new(d, 0.0, 1)),
            |d| Box::new(ReliableDriver::new(d, Box::new(|| 0), None, 1_000_000)),
            |d| Box::new(SelectiveDriver::new(d, Box::new(|| 0), None, 1_000_000)),
        ];
        for decorate in decorators {
            let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
            let driver = decorate(SimDriver::new(world, NodeId(0), RailId(0)));
            let engine = engine_over(vec![driver]);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ThreadedEngine::launch(engine, EngineConfig::threaded())
            }))
            .err()
            .expect("a decorated simulated driver must keep its veto");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("refuses background progression"), "{msg}");
        }
    }
}
