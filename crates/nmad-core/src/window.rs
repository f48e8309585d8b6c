//! The optimization window.
//!
//! "While the NICs are busy, NewMadeleine keeps accumulating packets in
//! its optimization window. As soon as a NIC becomes idle, the
//! optimization window is analyzed so as to create a new ready-to-send
//! packet" (§3.1). The window holds three classes of outgoing work:
//!
//! * **control messages** — rendezvous CTS grants, always urgent;
//! * **application segments** — on a *dedicated* per-NIC list when the
//!   application pinned a network, otherwise on the *common* list used
//!   for automatic load balancing across NICs (§3.3);
//! * **rendezvous jobs** — large segments whose CTS has arrived, ready
//!   for (possibly chunked, possibly multi-rail) zero-copy transfer.

use crate::segment::{PackWrapper, SendReqId, SeqNo, Tag, NUM_LANES};
use bytes::Bytes;
use nmad_sim::{FxHashMap, NodeId};
use std::collections::VecDeque;

/// An outgoing control message (currently only rendezvous CTS).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CtrlMsg {
    /// Destination node.
    pub dst: NodeId,
    /// Logical flow identifier.
    pub tag: Tag,
    /// Per-flow sequence number.
    pub seq: SeqNo,
    /// Announced total length in bytes.
    pub total: u32,
}

/// A granted rendezvous transfer in progress.
#[derive(Clone, Debug)]
pub struct RdvJob {
    /// Destination node.
    pub dst: NodeId,
    /// Logical flow identifier.
    pub tag: Tag,
    /// Per-flow sequence number.
    pub seq: SeqNo,
    /// The full granted payload.
    pub data: Bytes,
    /// Send request this transfer completes.
    pub req: SendReqId,
    cursor: usize,
    /// Wire offset of `data[0]` within the full segment (non-zero when
    /// the job resumes a chunk requeued after a NIC failure).
    base: u32,
    /// Submission-order stamp for deadline-aware admission (0 = old).
    order: u64,
}

/// One chunk cut from a rendezvous job by a strategy.
#[derive(Clone, Debug)]
pub struct RdvChunk {
    /// Destination node.
    pub dst: NodeId,
    /// Logical flow identifier.
    pub tag: Tag,
    /// Per-flow sequence number.
    pub seq: SeqNo,
    /// Byte offset within the full segment.
    pub offset: u32,
    /// This chunk's bytes.
    pub data: Bytes,
    /// Whether this is the final chunk of its segment.
    pub last: bool,
    /// Send request this transfer completes.
    pub req: SendReqId,
}

impl RdvJob {
    /// A fresh job covering `data` from offset zero.
    pub fn new(dst: NodeId, tag: Tag, seq: SeqNo, data: Bytes, req: SendReqId) -> Self {
        RdvJob {
            dst,
            tag,
            seq,
            data,
            req,
            cursor: 0,
            base: 0,
            order: 0,
        }
    }

    /// Stamps the job's submission-order age (deadline-aware rendezvous
    /// admission compares it against the window's order horizon).
    pub fn with_order(mut self, order: u64) -> Self {
        self.order = order;
        self
    }

    /// Submission-order stamp of the grant that created this job. Zero
    /// (infinitely old, admitted at full size) for resumed failover
    /// chunks and untracked callers.
    pub fn order(&self) -> u64 {
        self.order
    }

    /// Rebuilds a job from a chunk that could not be posted (NIC
    /// failure failover): the chunk's bytes re-enter the window at
    /// their original wire offset.
    pub fn resume(chunk: RdvChunk) -> Self {
        RdvJob {
            dst: chunk.dst,
            tag: chunk.tag,
            seq: chunk.seq,
            data: chunk.data,
            req: chunk.req,
            cursor: 0,
            base: chunk.offset,
            order: 0,
        }
    }

    /// Bytes not yet cut into chunks.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.cursor
    }

    /// Cuts the next chunk of at most `max` bytes. Returns `None` when
    /// exhausted (the caller should then drop the job).
    pub fn take_chunk(&mut self, max: usize) -> Option<RdvChunk> {
        if self.remaining() == 0 || max == 0 {
            return None;
        }
        let len = self.remaining().min(max);
        let offset = self.cursor;
        let data = self.data.slice(offset..offset + len);
        self.cursor += len;
        Some(RdvChunk {
            dst: self.dst,
            tag: self.tag,
            seq: self.seq,
            offset: self.base + u32::try_from(offset).expect("segment larger than 4 GiB"), // PANIC-OK: offsets bounded by the 4 GiB segment cap at submit
            data,
            last: self.remaining() == 0,
            req: self.req,
        })
    }
}

/// Per-destination work index, maintained at every push and take so
/// the per-refill queries below never have to scan a queue that holds
/// nothing for their destination.
///
/// `lanes[l]` holds the submission-order stamps of every queued
/// segment (common *and* dedicated) towards this destination on lane
/// `l`, sorted ascending — so "the oldest lane-`l` byte for this
/// destination" is the front, in O(1). Stamps arrive almost always in
/// increasing order (the engine's submission counter), so maintaining
/// sortedness is an O(1) `push_back` except on failover requeues.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct DstCounts {
    ctrl: usize,
    rdv: usize,
    lanes: [VecDeque<u64>; NUM_LANES],
}

impl DstCounts {
    fn is_zero(&self) -> bool {
        self.ctrl == 0 && self.rdv == 0 && self.lanes.iter().all(VecDeque::is_empty)
    }
}

/// The optimization window. See the module documentation.
///
/// Every refill of an idle NIC queries the window per destination
/// (drain the grants for `dst`, cut a rendezvous chunk for `dst`). The
/// window keeps a per-destination count index so those queries return
/// in O(1) when the answer is "nothing", instead of rescanning the full
/// control and rendezvous queues on every poll.
///
/// A window lives in one engine for that engine's whole life, as in the
/// paper (§3.1): each engine
/// [`NmadEngine::split_for_shards`](crate::NmadEngine::split_for_shards)
/// returns builds an empty one of its own, and queued work never moves
/// between windows.
#[derive(Debug)]
pub struct Window {
    ctrl: VecDeque<CtrlMsg>,
    dedicated: Vec<VecDeque<PackWrapper>>,
    common: VecDeque<PackWrapper>,
    rdv: VecDeque<RdvJob>,
    index: FxHashMap<NodeId, DstCounts>,
    /// Global queued-segment count per lane (all destinations), so
    /// "is any lane-`l` work pending at all?" is O(1).
    lane_counts: [usize; NUM_LANES],
    /// One past the largest submission-order stamp ever indexed; ages
    /// are measured against this horizon (aging promotion, rendezvous
    /// admission deadlines).
    order_horizon: u64,
}

impl Window {
    /// An empty window for an engine with `nic_count` rails (one
    /// dedicated list each).
    pub fn new(nic_count: usize) -> Self {
        Window {
            ctrl: VecDeque::new(),
            dedicated: (0..nic_count).map(|_| VecDeque::new()).collect(),
            common: VecDeque::new(),
            rdv: VecDeque::new(),
            index: FxHashMap::default(),
            lane_counts: [0; NUM_LANES],
            order_horizon: 0,
        }
    }

    /// Recomputes the per-destination index from the actual queue
    /// contents and compares. `true` when every entry matches (counts,
    /// per-lane order deques sorted ascending, global lane counts) and
    /// no zero entry lingers. O(window contents) — meant for
    /// `debug_assert!` on the mutation paths a rail fault exercises
    /// (requeue, reclaim) and for regression tests, not for the
    /// per-refill hot path.
    pub fn index_is_consistent(&self) -> bool {
        let mut expect: FxHashMap<NodeId, DstCounts> = FxHashMap::default();
        let mut expect_lanes = [0usize; NUM_LANES];
        for msg in &self.ctrl {
            expect.entry(msg.dst).or_default().ctrl += 1;
        }
        for job in &self.rdv {
            expect.entry(job.dst).or_default().rdv += 1;
        }
        for w in self.common.iter().chain(self.dedicated.iter().flatten()) {
            let lane = w.priority.lane() as usize;
            expect_lanes[lane] += 1;
            expect.entry(w.dst).or_default().lanes[lane].push_back(w.order);
        }
        for counts in expect.values_mut() {
            for q in &mut counts.lanes {
                q.make_contiguous().sort_unstable();
            }
        }
        // Comparing against a sorted expectation also proves the live
        // deques are sorted, which `global_oldest_in_lane` relies on.
        self.lane_counts == expect_lanes
            && self.index.len() == expect.len()
            && self
                .index
                .iter()
                .all(|(dst, counts)| !counts.is_zero() && expect.get(dst) == Some(counts))
    }

    fn update_counts(&mut self, dst: NodeId, f: impl FnOnce(&mut DstCounts)) {
        let counts = self.index.entry(dst).or_default();
        f(counts);
        if counts.is_zero() {
            self.index.remove(&dst);
        }
    }

    /// Records a queued segment in the per-(dst, lane) order index.
    fn index_segment(&mut self, w: &PackWrapper) {
        let lane = w.priority.lane() as usize;
        self.lane_counts[lane] += 1;
        self.order_horizon = self.order_horizon.max(w.order.saturating_add(1));
        let q = &mut self.index.entry(w.dst).or_default().lanes[lane];
        // Fresh submissions carry increasing stamps → O(1) append; a
        // failover requeue re-inserts an older stamp by position.
        match q.back() {
            Some(&back) if back > w.order => {
                let pos = q.partition_point(|&o| o <= w.order);
                q.insert(pos, w.order);
            }
            _ => q.push_back(w.order),
        }
    }

    /// Removes a no-longer-queued segment from the order index.
    fn unindex_segment(&mut self, w: &PackWrapper) {
        let lane = w.priority.lane() as usize;
        debug_assert!(self.lane_counts[lane] > 0, "lane count underflow");
        self.lane_counts[lane] = self.lane_counts[lane].saturating_sub(1);
        let order = w.order;
        self.update_counts(w.dst, |c| {
            let q = &mut c.lanes[lane];
            match q.binary_search(&order) {
                Ok(pos) => {
                    q.remove(pos);
                }
                Err(_) => debug_assert!(false, "unindex of untracked segment"),
            }
        });
    }

    // --- submission side (collect layer) ---

    /// Push ctrl.
    // HOT-PATH: window plan
    pub fn push_ctrl(&mut self, msg: CtrlMsg) {
        self.update_counts(msg.dst, |c| c.ctrl += 1);
        self.ctrl.push_back(msg);
    }

    /// Registers a collected segment; `rail_hint` selects a dedicated
    /// per-NIC list, `None` the common load-balanced list.
    // HOT-PATH: window plan
    pub fn push_segment(&mut self, wrapper: PackWrapper, rail_hint: Option<usize>) {
        self.index_segment(&wrapper);
        match rail_hint {
            Some(nic) => self.dedicated[nic].push_back(wrapper), // PANIC-OK: nic < dedicated.len() checked at enqueue
            None => self.common.push_back(wrapper),
        }
    }

    /// Re-inserts a segment at the *front* of the common list (failover
    /// requeue: the segment was already scheduled once and must keep
    /// its place).
    // HOT-PATH: window plan
    pub fn push_segment_front(&mut self, wrapper: PackWrapper) {
        self.index_segment(&wrapper);
        self.common.push_front(wrapper);
    }

    /// Push rdv.
    // HOT-PATH: window plan
    pub fn push_rdv(&mut self, job: RdvJob) {
        self.update_counts(job.dst, |c| c.rdv += 1);
        self.rdv.push_back(job);
    }

    /// Moves every segment dedicated to `nic` back onto the front of
    /// the common list, preserving their order (failover: the rail
    /// died, the survivors take its work). Returns how many moved.
    pub fn reclaim_dedicated(&mut self, nic: usize) -> usize {
        let mut moved = 0;
        while let Some(w) = self.dedicated[nic].pop_back() {
            self.common.push_front(w);
            moved += 1;
        }
        // The lane index spans common and dedicated lists alike, so
        // moving segments between them leaves every count untouched.
        debug_assert!(
            self.index_is_consistent(),
            "DstCounts index diverged across reclaim_dedicated({nic})"
        );
        moved
    }

    // --- strategy side ---

    /// True when nothing at all is pending for NIC `nic`.
    pub fn is_empty_for(&self, nic: usize) -> bool {
        self.ctrl.is_empty()
            && self.rdv.is_empty()
            && self.common.is_empty()
            && self.dedicated[nic].is_empty()
    }

    /// True when the whole window is drained.
    pub fn is_empty(&self) -> bool {
        self.ctrl.is_empty()
            && self.rdv.is_empty()
            && self.common.is_empty()
            && self.dedicated.iter().all(VecDeque::is_empty)
    }

    /// Pending application segments visible to NIC `nic` (window depth,
    /// an input the paper lists for the optimization function).
    pub fn depth_for(&self, nic: usize) -> usize {
        self.dedicated[nic].len() + self.common.len()
    }

    /// Application segments queued anywhere in the window — the common
    /// list and every dedicated list — in O(1), from the lane index.
    /// Control messages and rendezvous jobs are not segments, so
    /// `len() == 0` does not imply [`is_empty`](Self::is_empty).
    pub fn len(&self) -> usize {
        self.lane_counts.iter().sum()
    }

    /// Destination the next frame for `nic` should target, honouring
    /// the urgency order control > rendezvous data > fresh segments.
    // HOT-PATH: window drain
    pub fn next_dst(&self, nic: usize) -> Option<NodeId> {
        if let Some(c) = self.ctrl.front() {
            return Some(c.dst);
        }
        if let Some(j) = self.rdv.front() {
            return Some(j.dst);
        }
        // PANIC-OK: nic < dedicated.len() checked at enqueue
        if let Some(w) = self.dedicated[nic].front() {
            return Some(w.dst);
        }
        self.common.front().map(|w| w.dst)
    }

    /// Pops every queued control message towards `dst`. O(1) when the
    /// index shows none pending.
    // HOT-PATH: window drain
    pub fn drain_ctrl_for(&mut self, dst: NodeId) -> Vec<CtrlMsg> {
        let pending = self.index.get(&dst).map_or(0, |c| c.ctrl);
        if pending == 0 {
            return Vec::new(); // ALLOC-OK: Vec::new does not allocate
        }
        let mut out = Vec::with_capacity(pending); // ALLOC-OK: one exactly-sized drain batch
        let mut rest = VecDeque::with_capacity(self.ctrl.len() - pending);
        for msg in self.ctrl.drain(..) {
            if msg.dst == dst {
                out.push(msg);
            } else {
                rest.push_back(msg);
            }
        }
        self.ctrl = rest;
        self.update_counts(dst, |c| c.ctrl = 0);
        debug_assert!(
            self.index_is_consistent(),
            "DstCounts index diverged across drain_ctrl_for({dst:?})"
        );
        out
    }

    /// Front rendezvous job towards `dst`, if any. O(1) when the index
    /// shows none pending.
    pub fn rdv_front_for(&self, dst: NodeId) -> Option<&RdvJob> {
        if self.index.get(&dst).map_or(0, |c| c.rdv) == 0 {
            return None;
        }
        self.rdv.iter().find(|j| j.dst == dst)
    }

    /// Cuts a chunk of at most `max` bytes from the first rendezvous
    /// job towards `dst`, dropping the job once exhausted. O(1) when
    /// the index shows none pending.
    // HOT-PATH: window drain
    pub fn take_rdv_chunk(&mut self, dst: NodeId, max: usize) -> Option<RdvChunk> {
        if self.index.get(&dst).map_or(0, |c| c.rdv) == 0 {
            return None;
        }
        let idx = self.rdv.iter().position(|j| j.dst == dst)?;
        let chunk = self.rdv[idx].take_chunk(max)?; // PANIC-OK: idx from enumerate over rdv
        if chunk.last {
            self.rdv.remove(idx);
            self.update_counts(dst, |c| c.rdv -= 1);
        }
        debug_assert!(
            self.index_is_consistent(),
            "DstCounts index diverged across take_rdv_chunk({dst:?})"
        );
        Some(chunk)
    }

    /// True if any rendezvous job towards anyone has bytes pending.
    pub fn has_rdv(&self) -> bool {
        !self.rdv.is_empty()
    }

    /// Whether the destination index counts a control message or a
    /// rendezvous job towards `dst`.
    #[cfg(test)]
    fn indexed_ctrl_or_rdv(&self, dst: NodeId) -> bool {
        self.index
            .get(&dst)
            .is_some_and(|c| c.ctrl > 0 || c.rdv > 0)
    }

    // --- lane queries (tail-aware strategies) ---

    /// Queued segments on `lane` across every destination, in O(1).
    pub fn lane_depth(&self, lane: u8) -> usize {
        self.lane_counts.get(lane as usize).copied().unwrap_or(0)
    }

    /// Destination holding the globally-oldest queued segment on
    /// `lane`, with its stamp. O(active destinations) — one indexed
    /// front per destination, no queue scan; strategies call it once
    /// per frame synthesis, not per poll.
    pub fn global_oldest_in_lane(&self, lane: u8) -> Option<(NodeId, u64)> {
        if self.lane_depth(lane) == 0 {
            return None;
        }
        self.index
            .iter()
            .filter_map(|(dst, c)| c.lanes[lane as usize].front().map(|&o| (*dst, o)))
            .min_by_key(|&(_, o)| o)
    }

    /// One past the largest submission-order stamp ever indexed here.
    /// `order_horizon() - w.order` is a segment's age in submissions.
    pub fn order_horizon(&self) -> u64 {
        self.order_horizon
    }

    /// Read-only view of the common list (selection heuristics).
    pub fn common_ref(&self) -> &VecDeque<PackWrapper> {
        &self.common
    }

    /// Read-only view of the queued control messages (selection
    /// heuristics).
    pub fn ctrl_ref(&self) -> &VecDeque<CtrlMsg> {
        &self.ctrl
    }

    /// Removes and returns the first segment visible to `nic` (its
    /// dedicated list first, then the common list) satisfying `pred`,
    /// scanning past non-matching segments (reordering permitted), and
    /// reports whether the take jumped past earlier-queued segments
    /// (i.e. an actual reordering decision, not a FIFO pop).
    // HOT-PATH: window drain
    pub fn take_first_matching_tracked(
        &mut self,
        nic: usize,
        mut pred: impl FnMut(&PackWrapper) -> bool,
    ) -> Option<(PackWrapper, bool)> {
        // PANIC-OK: nic < dedicated.len() checked at enqueue
        if let Some(pos) = self.dedicated[nic].iter().position(&mut pred) {
            let w = self.dedicated[nic].remove(pos)?; // PANIC-OK: nic < dedicated.len() checked at enqueue
            self.unindex_segment(&w);
            return Some((w, pos > 0));
        }
        if let Some(pos) = self.common.iter().position(&mut pred) {
            let jumped = pos > 0 || !self.dedicated[nic].is_empty(); // PANIC-OK: nic < dedicated.len() checked at enqueue
            let w = self.common.remove(pos)?;
            self.unindex_segment(&w);
            return Some((w, jumped));
        }
        None
    }

    /// Removes and returns the front segment visible to `nic` if it
    /// satisfies `pred` (FIFO discipline, no reordering).
    // HOT-PATH: window drain
    pub fn take_front_if(
        &mut self,
        nic: usize,
        mut pred: impl FnMut(&PackWrapper) -> bool,
    ) -> Option<PackWrapper> {
        // PANIC-OK: nic < dedicated.len() checked at enqueue
        if let Some(front) = self.dedicated[nic].front() {
            if pred(front) {
                let w = self.dedicated[nic].pop_front()?; // PANIC-OK: nic < dedicated.len() checked at enqueue
                self.unindex_segment(&w);
                return Some(w);
            }
            return None;
        }
        if let Some(front) = self.common.front() {
            if pred(front) {
                let w = self.common.pop_front()?;
                self.unindex_segment(&w);
                return Some(w);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::Priority;

    fn wrapper(dst: u32, tag: u32, seq: u32, len: usize) -> PackWrapper {
        PackWrapper {
            dst: NodeId(dst),
            tag: Tag(tag),
            seq: SeqNo(seq),
            priority: Priority::Normal,
            data: Bytes::from(vec![0u8; len]),
            req: SendReqId(0),
            order: 0,
        }
    }

    #[test]
    fn urgency_order_ctrl_then_rdv_then_segments() {
        let mut w = Window::new(1);
        w.push_segment(wrapper(3, 0, 0, 8), None);
        assert_eq!(w.next_dst(0), Some(NodeId(3)));
        w.push_rdv(RdvJob::new(
            NodeId(2),
            Tag(0),
            SeqNo(0),
            Bytes::from_static(b"abc"),
            SendReqId(1),
        ));
        assert_eq!(w.next_dst(0), Some(NodeId(2)));
        w.push_ctrl(CtrlMsg {
            dst: NodeId(1),
            tag: Tag(0),
            seq: SeqNo(0),
            total: 3,
        });
        assert_eq!(w.next_dst(0), Some(NodeId(1)));
    }

    #[test]
    fn drain_ctrl_filters_by_destination() {
        let mut w = Window::new(1);
        for dst in [1, 2, 1, 3] {
            w.push_ctrl(CtrlMsg {
                dst: NodeId(dst),
                tag: Tag(dst),
                seq: SeqNo(0),
                total: 0,
            });
        }
        let for_one = w.drain_ctrl_for(NodeId(1));
        assert_eq!(for_one.len(), 2);
        assert!(for_one.iter().all(|c| c.dst == NodeId(1)));
        assert_eq!(w.drain_ctrl_for(NodeId(2)).len(), 1);
        assert_eq!(w.drain_ctrl_for(NodeId(3)).len(), 1);
        assert!(w.is_empty());
    }

    #[test]
    fn rdv_job_chunks_cover_exactly_the_payload() {
        let data: Bytes = (0..100u8).collect::<Vec<u8>>().into();
        let mut job = RdvJob::new(NodeId(1), Tag(0), SeqNo(0), data.clone(), SendReqId(0));
        let mut rebuilt = Vec::new();
        let mut last_seen = false;
        while let Some(chunk) = job.take_chunk(33) {
            assert_eq!(chunk.offset as usize, rebuilt.len());
            rebuilt.extend_from_slice(&chunk.data);
            last_seen = chunk.last;
        }
        assert!(last_seen);
        assert_eq!(rebuilt, data.to_vec());
        assert!(job.take_chunk(33).is_none(), "exhausted job yields nothing");
    }

    #[test]
    fn take_rdv_chunk_drops_exhausted_jobs() {
        let mut w = Window::new(1);
        w.push_rdv(RdvJob::new(
            NodeId(1),
            Tag(0),
            SeqNo(0),
            Bytes::from(vec![0u8; 10]),
            SendReqId(0),
        ));
        let c = w.take_rdv_chunk(NodeId(1), 100).unwrap();
        assert!(c.last);
        assert!(!w.has_rdv());
        assert!(w.take_rdv_chunk(NodeId(1), 100).is_none());
    }

    #[test]
    fn dedicated_list_is_preferred_over_common() {
        let mut w = Window::new(2);
        w.push_segment(wrapper(5, 0, 0, 4), None);
        w.push_segment(wrapper(6, 0, 0, 4), Some(1));
        // NIC 1 sees its dedicated segment first.
        assert_eq!(w.next_dst(1), Some(NodeId(6)));
        // NIC 0 has no dedicated work and sees the common list.
        assert_eq!(w.next_dst(0), Some(NodeId(5)));
        assert_eq!(w.depth_for(0), 1);
        assert_eq!(w.depth_for(1), 2);
    }

    #[test]
    fn take_first_matching_skips_non_matching() {
        let mut w = Window::new(1);
        w.push_segment(wrapper(1, 10, 0, 4), None);
        w.push_segment(wrapper(2, 20, 0, 4), None);
        w.push_segment(wrapper(1, 30, 0, 4), None);
        let (got, _) = w
            .take_first_matching_tracked(0, |s| s.dst == NodeId(2))
            .unwrap();
        assert_eq!(got.tag, Tag(20));
        // Order of the rest preserved.
        let a = w.take_front_if(0, |_| true).unwrap();
        let b = w.take_front_if(0, |_| true).unwrap();
        assert_eq!((a.tag, b.tag), (Tag(10), Tag(30)));
    }

    #[test]
    fn tracked_take_flags_out_of_order_pops() {
        let mut w = Window::new(2);
        w.push_segment(wrapper(1, 10, 0, 4), None);
        w.push_segment(wrapper(2, 20, 0, 4), None);
        // Front of the common list: a FIFO pop, not a reorder.
        let (got, jumped) = w
            .take_first_matching_tracked(0, |s| s.dst == NodeId(1))
            .unwrap();
        assert_eq!(got.tag, Tag(10));
        assert!(!jumped);
        // Only one left; taking it is again in order.
        let (_, jumped) = w.take_first_matching_tracked(0, |_| true).unwrap();
        assert!(!jumped);

        // Jumping past an earlier segment is a reorder.
        w.push_segment(wrapper(1, 10, 0, 4), None);
        w.push_segment(wrapper(2, 20, 0, 4), None);
        let (got, jumped) = w
            .take_first_matching_tracked(0, |s| s.dst == NodeId(2))
            .unwrap();
        assert_eq!(got.tag, Tag(20));
        assert!(jumped);

        // A common-list take behind queued dedicated work also jumps.
        let mut w = Window::new(2);
        w.push_segment(wrapper(3, 30, 0, 4), Some(1));
        w.push_segment(wrapper(4, 40, 0, 4), None);
        let (got, jumped) = w
            .take_first_matching_tracked(1, |s| s.dst == NodeId(4))
            .unwrap();
        assert_eq!(got.tag, Tag(40));
        assert!(jumped);
    }

    #[test]
    fn destination_index_tracks_every_push_and_take() {
        let mut w = Window::new(1);
        // Interleave control and rendezvous work for two destinations.
        for dst in [1u32, 2, 1] {
            w.push_ctrl(CtrlMsg {
                dst: NodeId(dst),
                tag: Tag(0),
                seq: SeqNo(0),
                total: 0,
            });
        }
        w.push_rdv(RdvJob::new(
            NodeId(2),
            Tag(0),
            SeqNo(0),
            Bytes::from(vec![0u8; 10]),
            SendReqId(0),
        ));
        assert!(w.indexed_ctrl_or_rdv(NodeId(1)));
        assert!(w.indexed_ctrl_or_rdv(NodeId(2)));
        assert!(!w.indexed_ctrl_or_rdv(NodeId(3)));

        // Draining node 1's grants empties its index entry.
        assert_eq!(w.drain_ctrl_for(NodeId(1)).len(), 2);
        assert!(!w.indexed_ctrl_or_rdv(NodeId(1)));
        assert!(w.drain_ctrl_for(NodeId(1)).is_empty(), "indexed early-out");

        // Node 2 still has a grant and a rendezvous job.
        assert_eq!(w.drain_ctrl_for(NodeId(2)).len(), 1);
        assert!(w.indexed_ctrl_or_rdv(NodeId(2)), "rdv job still queued");
        assert!(w.rdv_front_for(NodeId(2)).is_some());
        assert!(w.rdv_front_for(NodeId(1)).is_none());

        // A partial chunk keeps the job (and the index entry); the
        // final chunk removes both.
        let head = w.take_rdv_chunk(NodeId(2), 6).unwrap();
        assert!(!head.last);
        assert!(w.indexed_ctrl_or_rdv(NodeId(2)));
        let tail = w.take_rdv_chunk(NodeId(2), 100).unwrap();
        assert!(tail.last);
        assert!(!w.indexed_ctrl_or_rdv(NodeId(2)));
        assert!(w.take_rdv_chunk(NodeId(2), 100).is_none());
        assert!(w.is_empty());
    }

    fn lane_wrapper(dst: u32, lane: u8, order: u64) -> PackWrapper {
        PackWrapper {
            dst: NodeId(dst),
            tag: Tag(0),
            seq: SeqNo(order as u32),
            priority: Priority::from_lane(lane),
            data: Bytes::from(vec![0u8; 4]),
            req: SendReqId(order),
            order,
        }
    }

    #[test]
    fn lane_index_answers_oldest_queries_in_o1() {
        let mut w = Window::new(2);
        w.push_segment(lane_wrapper(1, 2, 10), None);
        w.push_segment(lane_wrapper(1, 0, 11), Some(1)); // dedicated counts too
        w.push_segment(lane_wrapper(2, 0, 12), None);
        w.push_segment(lane_wrapper(1, 0, 13), None);

        let oldest: Vec<_> = (0..NUM_LANES as u8)
            .map(|lane| w.global_oldest_in_lane(lane))
            .collect();
        assert_eq!(
            oldest,
            [Some((NodeId(1), 11)), None, Some((NodeId(1), 10)), None]
        );
        assert_eq!(w.lane_depth(0), 3);
        assert_eq!(w.lane_depth(1), 0);
        assert_eq!(w.order_horizon(), 14);
        assert!(w.index_is_consistent());

        // Taking the dedicated Urgent segment re-points the oldest.
        let (got, _) = w.take_first_matching_tracked(1, |s| s.order == 11).unwrap();
        assert_eq!(got.order, 11);
        assert_eq!(w.global_oldest_in_lane(0), Some((NodeId(2), 12)));
        assert!(w.index_is_consistent());

        // Draining everything clears counts but keeps the horizon.
        while w.take_front_if(0, |_| true).is_some() {}
        assert_eq!(w.lane_depth(0), 0);
        assert_eq!(w.lane_depth(2), 0);
        assert_eq!(w.order_horizon(), 14);
        assert!(w.index_is_consistent());
    }

    #[test]
    fn requeue_at_front_restores_sorted_lane_order() {
        let mut w = Window::new(1);
        w.push_segment(lane_wrapper(1, 0, 5), None);
        w.push_segment(lane_wrapper(1, 0, 6), None);
        // Failover requeue: order 4 was scheduled before either.
        w.push_segment_front(lane_wrapper(1, 0, 4));
        assert_eq!(w.global_oldest_in_lane(0), Some((NodeId(1), 4)));
        assert!(w.index_is_consistent());
        let first = w.take_front_if(0, |_| true).unwrap();
        assert_eq!(first.order, 4);
        assert_eq!(w.global_oldest_in_lane(0), Some((NodeId(1), 5)));
        assert!(w.index_is_consistent());
    }

    #[test]
    fn rdv_job_order_stamp_roundtrips() {
        let job = RdvJob::new(
            NodeId(1),
            Tag(0),
            SeqNo(0),
            Bytes::from_static(b"abc"),
            SendReqId(0),
        );
        assert_eq!(job.order(), 0, "fresh jobs default to infinitely old");
        assert_eq!(job.with_order(42).order(), 42);
    }

    #[test]
    fn take_front_if_respects_fifo_discipline() {
        let mut w = Window::new(1);
        w.push_segment(wrapper(1, 10, 0, 4), None);
        w.push_segment(wrapper(2, 20, 0, 4), None);
        // Front is dst 1, predicate wants dst 2: nothing may be taken.
        assert!(w.take_front_if(0, |s| s.dst == NodeId(2)).is_none());
        assert_eq!(w.depth_for(0), 2);
    }

    #[test]
    fn front_of_dedicated_blocks_common_under_fifo() {
        // FIFO discipline is per-view: a non-matching dedicated front
        // hides the common list for take_front_if.
        let mut w = Window::new(1);
        w.push_segment(wrapper(1, 10, 0, 4), Some(0));
        w.push_segment(wrapper(2, 20, 0, 4), None);
        assert!(w.take_front_if(0, |s| s.dst == NodeId(2)).is_none());
    }
}

#[cfg(test)]
mod failover_tests {
    use super::*;
    use crate::segment::Priority;

    fn wrapper(tag: u32, len: usize) -> PackWrapper {
        PackWrapper {
            dst: NodeId(1),
            tag: Tag(tag),
            seq: SeqNo(0),
            priority: Priority::Normal,
            data: Bytes::from(vec![0u8; len]),
            req: SendReqId(0),
            order: 0,
        }
    }

    #[test]
    fn push_segment_front_restores_queue_position() {
        let mut w = Window::new(1);
        w.push_segment(wrapper(2, 4), None);
        w.push_segment_front(wrapper(1, 4));
        let first = w.take_front_if(0, |_| true).unwrap();
        assert_eq!(first.tag, Tag(1), "requeued segment leads the queue");
    }

    #[test]
    fn resumed_rdv_job_keeps_wire_offsets() {
        // Cut a chunk at offset 40, resume it, and check the chunks it
        // emits still carry absolute offsets.
        let data = Bytes::from((0..100u8).collect::<Vec<u8>>());
        let mut job = RdvJob::new(NodeId(1), Tag(0), SeqNo(0), data, SendReqId(0));
        let _head = job.take_chunk(40).unwrap();
        let tail = job.take_chunk(100).unwrap();
        assert_eq!(tail.offset, 40);
        assert!(tail.last);
        let mut resumed = RdvJob::resume(tail);
        let c1 = resumed.take_chunk(25).unwrap();
        assert_eq!(c1.offset, 40, "absolute offset preserved after resume");
        let c2 = resumed.take_chunk(100).unwrap();
        assert_eq!(c2.offset, 65);
        assert_eq!(c2.data.len(), 35);
        assert!(c2.last);
    }

    #[test]
    fn reclaim_keeps_the_destination_index_consistent() {
        // A rail fault reclaims dedicated segments while control and
        // rendezvous work is queued: the (ctrl, rdv) index must come
        // through untouched and the checker must agree.
        let mut w = Window::new(2);
        w.push_segment(wrapper(1, 8), Some(0));
        w.push_segment(wrapper(2, 8), Some(0));
        w.push_ctrl(CtrlMsg {
            dst: NodeId(1),
            tag: Tag(0),
            seq: SeqNo(0),
            total: 10,
        });
        w.push_rdv(RdvJob::new(
            NodeId(1),
            Tag(1),
            SeqNo(0),
            Bytes::from(vec![0u8; 16]),
            SendReqId(3),
        ));
        assert!(w.index_is_consistent());
        assert_eq!(w.reclaim_dedicated(0), 2);
        assert!(w.index_is_consistent());
        assert!(w.indexed_ctrl_or_rdv(NodeId(1)));
        // The reclaimed segments lead the common list in order.
        let first = w.take_front_if(1, |_| true).unwrap();
        assert_eq!(first.tag, Tag(1));
    }

    #[test]
    fn index_consistency_checker_detects_divergence() {
        let mut w = Window::new(1);
        w.push_ctrl(CtrlMsg {
            dst: NodeId(1),
            tag: Tag(0),
            seq: SeqNo(0),
            total: 0,
        });
        assert!(w.index_is_consistent());
        // Corrupt the index directly: the checker must notice both an
        // inflated count and a lingering zero entry.
        w.index.get_mut(&NodeId(1)).unwrap().ctrl += 1;
        assert!(!w.index_is_consistent());
        w.index.get_mut(&NodeId(1)).unwrap().ctrl = 1;
        w.index.insert(NodeId(9), DstCounts::default());
        assert!(!w.index_is_consistent());
    }
}
