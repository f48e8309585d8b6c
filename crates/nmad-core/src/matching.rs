//! Receiver-side matching and reassembly.
//!
//! Incoming entries are matched to posted receives by **(source, tag,
//! sequence number)** — the metadata the collect layer stamped on every
//! segment. Because identity is explicit, the scheduler is free to
//! reorder and aggregate wire traffic arbitrarily; the receiver always
//! reconstructs per-flow submission order.
//!
//! Protocol arrival cases handled here:
//!
//! * eager `Data` with a posted receive → landed in place by the NIC's
//!   matching/scatter hardware (no host copy);
//! * eager `Data` without a posted receive → *unexpected*: retained as
//!   a zero-copy [`Bytes`] slice of the received frame (the frame
//!   buffer stays pinned instead of being copied into a bounce buffer)
//!   and handed over as-is when the receive arrives — still the reason
//!   eager is wrong for large segments, which would pin whole frames
//!   indefinitely;
//! * `Rts` → reply CTS when the receive is posted, else park it;
//! * `RdvData` chunks → written straight at their offset (zero-copy
//!   when the NIC has RDMA; one copy otherwise), completion when every
//!   byte of the announced total has landed.

use crate::segment::{RecvReqId, SeqNo, Tag};
use bytes::Bytes;
use nmad_sim::{FxHashMap, FxHashSet, NodeId};
use std::collections::{HashMap, HashSet};

/// Side effects the engine must apply after feeding an event in (CPU
/// cost accounting and outgoing control traffic).
#[derive(Debug, PartialEq, Eq)]
pub enum Effect {
    /// Account one memory copy of this many bytes.
    ChargeCopy(usize),
    /// Queue a CTS towards `dst` granting (tag, seq).
    SendCts {
        /// Destination node.
        dst: NodeId,
        /// Logical flow identifier.
        tag: Tag,
        /// Per-flow sequence number.
        seq: SeqNo,
        /// Announced total length in bytes.
        total: u32,
    },
    /// A duplicate wire entry was discarded (retransmission or a
    /// conservative failover requeue re-delivered it); the engine
    /// counts these.
    DuplicateDropped,
}

/// A completed receive, ready for the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecvDone {
    /// Source node.
    pub src: NodeId,
    /// Logical flow identifier.
    pub tag: Tag,
    /// The received payload (possibly truncated). For eager segments
    /// this is a zero-copy slice of the received frame buffer.
    pub data: Bytes,
    /// The sender's segment was larger than the posted buffer; `data`
    /// holds the truncated prefix.
    pub truncated: bool,
}

#[derive(Debug)]
struct Slot {
    req: RecvReqId,
    max: usize,
    /// Reassembly buffer, grown to the rendezvous total when granted.
    buf: Vec<u8>,
    /// Bytes of rendezvous payload landed so far.
    received: usize,
    /// Announced rendezvous total, once the RTS has been seen.
    total: Option<usize>,
    sender_len: usize,
    /// Offsets of rendezvous chunks already landed — duplicates of a
    /// chunk (retransmission, failover requeue) are dropped instead of
    /// double-counted. The sender picks the offsets: std's keyed hash.
    chunk_offsets: HashSet<u32>,
}

/// Per-flow record of sequence numbers whose receive has completed:
/// a watermark plus the out-of-order completions above it, compacted
/// as the watermark advances.
#[derive(Debug, Default)]
struct FlowDelivered {
    next: u32,
    ahead: FxHashSet<u32>,
}

impl FlowDelivered {
    fn contains(&self, seq: SeqNo) -> bool {
        seq.0 < self.next || self.ahead.contains(&seq.0)
    }

    fn mark(&mut self, seq: SeqNo) {
        if seq.0 == self.next {
            self.next += 1;
            while self.ahead.remove(&self.next) {
                self.next += 1;
            }
        } else if seq.0 > self.next {
            self.ahead.insert(seq.0);
        }
    }
}

/// Matching state of one engine (one node).
///
/// Tables keyed by what this process chose (flows its application
/// posted, request ids it allocated) use the fast [`FxHashMap`]; the
/// two whose keys arrive from a remote peer before any local post —
/// `unexpected` and `pending_rts` — keep std's randomly keyed hash, so
/// a peer cannot pick keys that collide (see `nmad_sim::hash`).
#[derive(Debug, Default)]
pub struct Matching {
    posted: FxHashMap<(NodeId, Tag, SeqNo), Slot>,
    next_seq: FxHashMap<(NodeId, Tag), SeqNo>,
    unexpected: HashMap<(NodeId, Tag, SeqNo), Bytes>,
    pending_rts: HashMap<(NodeId, Tag, SeqNo), u32>,
    done: FxHashMap<RecvReqId, RecvDone>,
    delivered: FxHashMap<(NodeId, Tag), FlowDelivered>,
}

impl Matching {
    /// Creates empty matching state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Posts a receive of up to `max` bytes for the next segment of the
    /// (src, tag) flow; returns the sequence number this receive will
    /// match plus effects (an unexpected segment may complete it
    /// immediately, a parked RTS may fire a CTS).
    pub fn post_recv(
        &mut self,
        src: NodeId,
        tag: Tag,
        max: usize,
        req: RecvReqId,
    ) -> (SeqNo, Vec<Effect>) {
        let seq_slot = self.next_seq.entry((src, tag)).or_insert(SeqNo(0));
        let seq = *seq_slot;
        *seq_slot = seq_slot.next();

        let mut effects = Vec::new();
        // `remove` hashes its key even on an empty map; the common
        // pre-posted receive finds both peer-keyed queues empty.
        let staged = if self.unexpected.is_empty() {
            None
        } else {
            self.unexpected.remove(&(src, tag, seq))
        };
        if let Some(staged) = staged {
            // The staged segment is a zero-copy slice of its receive
            // frame; handing it over costs nothing — the frame buffer
            // was the bounce buffer.
            let truncated = staged.len() > max;
            let data = staged.slice(..staged.len().min(max));
            self.done.insert(
                req,
                RecvDone {
                    src,
                    tag,
                    data,
                    truncated,
                },
            );
            self.mark_delivered(src, tag, seq);
            return (seq, effects);
        }

        let mut slot = Slot {
            req,
            max,
            buf: Vec::new(),
            received: 0,
            total: None,
            sender_len: 0,
            chunk_offsets: HashSet::new(),
        };
        let parked = if self.pending_rts.is_empty() {
            None
        } else {
            self.pending_rts.remove(&(src, tag, seq))
        };
        if let Some(total) = parked {
            Self::grant(&mut slot, total);
            effects.push(Effect::SendCts {
                dst: src,
                tag,
                seq,
                total,
            });
        }
        self.posted.insert((src, tag, seq), slot);
        (seq, effects)
    }

    fn grant(slot: &mut Slot, total: u32) {
        let total = total as usize;
        slot.total = Some(total);
        slot.sender_len = total;
        slot.buf = vec![0u8; total.min(slot.max)];
    }

    fn already_delivered(&self, src: NodeId, tag: Tag, seq: SeqNo) -> bool {
        self.delivered
            .get(&(src, tag))
            .is_some_and(|f| f.contains(seq))
    }

    fn mark_delivered(&mut self, src: NodeId, tag: Tag, seq: SeqNo) {
        self.delivered.entry((src, tag)).or_default().mark(seq);
    }

    /// Feeds an eager data entry as a zero-copy slice of the received
    /// frame buffer.
    pub fn on_data(&mut self, src: NodeId, tag: Tag, seq: SeqNo, payload: Bytes) -> Vec<Effect> {
        if self.already_delivered(src, tag, seq) || self.unexpected.contains_key(&(src, tag, seq)) {
            // Retransmission or failover requeue re-delivered the
            // segment: the first copy won.
            return vec![Effect::DuplicateDropped];
        }
        match self.posted.remove(&(src, tag, seq)) {
            Some(slot) => {
                let truncated = payload.len() > slot.max;
                let kept = payload.len().min(slot.max);
                self.done.insert(
                    slot.req,
                    RecvDone {
                        src,
                        tag,
                        data: payload.slice(..kept),
                        truncated,
                    },
                );
                self.mark_delivered(src, tag, seq);
                // Posted receive: the NIC's matching/scatter hardware
                // lands the segment in place — no host copy (MX and
                // Elan both match posted receives in hardware).
                vec![]
            }
            None => {
                // Unexpected: retain the slice — the receive frame
                // buffer stays pinned in place of a bounce-buffer copy.
                self.unexpected.insert((src, tag, seq), payload);
                vec![]
            }
        }
    }

    /// Feeds a rendezvous request-to-send.
    pub fn on_rts(&mut self, src: NodeId, tag: Tag, seq: SeqNo, total: u32) -> Vec<Effect> {
        if self.already_delivered(src, tag, seq) {
            return vec![Effect::DuplicateDropped];
        }
        match self.posted.get_mut(&(src, tag, seq)) {
            Some(slot) => {
                if slot.total.is_some() {
                    // Duplicate RTS for an already-granted transfer:
                    // the original CTS may have been lost. Re-grant
                    // idempotently — without resetting the reassembly
                    // buffer — so the handshake can recover.
                    return vec![
                        Effect::DuplicateDropped,
                        Effect::SendCts {
                            dst: src,
                            tag,
                            seq,
                            total,
                        },
                    ];
                }
                Self::grant(slot, total);
                vec![Effect::SendCts {
                    dst: src,
                    tag,
                    seq,
                    total,
                }]
            }
            None => {
                if self.pending_rts.insert((src, tag, seq), total).is_some() {
                    return vec![Effect::DuplicateDropped];
                }
                vec![]
            }
        }
    }

    /// Feeds one rendezvous data chunk. `zero_copy` reflects the NIC's
    /// RDMA capability: without it the chunk costs a copy out of the
    /// bounce area.
    pub fn on_rdv_chunk(
        &mut self,
        src: NodeId,
        tag: Tag,
        seq: SeqNo,
        offset: u32,
        payload: &[u8],
        zero_copy: bool,
    ) -> Vec<Effect> {
        let key = (src, tag, seq);
        let Some(slot) = self.posted.get_mut(&key) else {
            if self.already_delivered(src, tag, seq) {
                // Late chunk for a transfer that already completed —
                // a conservative failover requeue re-sent bytes the
                // first attempt had in fact delivered.
                return vec![Effect::DuplicateDropped];
            }
            panic!("rdv chunk for a never-granted segment (protocol bug)"); // PANIC-OK: peer protocol violation; failing loudly beats silent corruption
        };
        let total = slot
            .total
            .expect("rdv chunk before RTS grant (protocol bug)"); // PANIC-OK: peer protocol violation; failing loudly beats silent corruption
        if !slot.chunk_offsets.insert(offset) {
            return vec![Effect::DuplicateDropped];
        }
        let offset = offset as usize;
        // Place the bytes that fit in the application buffer.
        if offset < slot.buf.len() {
            let kept = payload.len().min(slot.buf.len() - offset);
            slot.buf[offset..offset + kept].copy_from_slice(&payload[..kept]);
        }
        slot.received += payload.len();
        // PANIC-OK: peer protocol violation; failing loudly beats silent corruption
        assert!(
            slot.received <= total,
            "rendezvous over-delivery: {} of {total} bytes",
            slot.received
        );
        let mut effects = Vec::new();
        if !zero_copy {
            effects.push(Effect::ChargeCopy(payload.len()));
        }
        if slot.received == total {
            let slot = self.posted.remove(&key).expect("present"); // PANIC-OK: key presence established by the grant check above
            let truncated = slot.sender_len > slot.max;
            self.done.insert(
                slot.req,
                RecvDone {
                    src,
                    tag,
                    // Zero-copy wrap: the reassembly buffer becomes the
                    // delivered payload without another copy.
                    data: Bytes::from(slot.buf),
                    truncated,
                },
            );
            self.mark_delivered(src, tag, seq);
        }
        effects
    }

    /// Takes the completion of `req`, if ready.
    pub fn try_take_done(&mut self, req: RecvReqId) -> Option<RecvDone> {
        self.done.remove(&req)
    }

    /// True if `req` has completed (non-destructive).
    pub fn is_done(&self, req: RecvReqId) -> bool {
        self.done.contains_key(&req)
    }

    /// Drains every ready completion at once. The threaded progression
    /// loop harvests with this after each pump so app threads observe
    /// completions through the completion board instead of probing the
    /// matching table request by request.
    pub fn drain_done(&mut self) -> Vec<(RecvReqId, RecvDone)> {
        if self.done.is_empty() {
            return Vec::new();
        }
        self.done.drain().collect()
    }

    /// Number of unexpected segments currently staged (tests/metrics).
    pub fn unexpected_count(&self) -> usize {
        self.unexpected.len()
    }

    /// Non-destructive probe: length of the next segment of (src, tag)
    /// if its arrival (eager payload) or announcement (rendezvous RTS)
    /// has already been seen, without posting a receive.
    pub fn probe(&self, src: NodeId, tag: Tag) -> Option<usize> {
        let seq = self.next_seq.get(&(src, tag)).copied().unwrap_or(SeqNo(0));
        if let Some(staged) = self.unexpected.get(&(src, tag, seq)) {
            return Some(staged.len());
        }
        self.pending_rts
            .get(&(src, tag, seq))
            .map(|&total| total as usize)
    }

    /// Number of posted-but-incomplete receives (deadlock diagnosis).
    pub fn posted_count(&self) -> usize {
        self.posted.len()
    }

    /// Partitions this matching state into `shards` independent states
    /// by flow ownership: every map entry keyed by a `(src, tag)` flow
    /// moves to the part `owner(src, tag) % shards` selects. Because
    /// every structure here is keyed by flow, the partition is exact —
    /// no state is shared between parts and [`Matching::merge`]
    /// restores the original.
    pub fn split_by(
        self,
        shards: usize,
        mut owner: impl FnMut(NodeId, Tag) -> usize,
    ) -> Vec<Matching> {
        assert!(shards > 0, "cannot split into zero shards");
        let mut parts: Vec<Matching> = (0..shards).map(|_| Matching::new()).collect();
        for (k, v) in self.posted {
            parts[owner(k.0, k.1) % shards].posted.insert(k, v);
        }
        for (k, v) in self.next_seq {
            parts[owner(k.0, k.1) % shards].next_seq.insert(k, v);
        }
        for (k, v) in self.unexpected {
            parts[owner(k.0, k.1) % shards].unexpected.insert(k, v);
        }
        for (k, v) in self.pending_rts {
            parts[owner(k.0, k.1) % shards].pending_rts.insert(k, v);
        }
        for (req, d) in self.done {
            parts[owner(d.src, d.tag) % shards].done.insert(req, d);
        }
        for (k, v) in self.delivered {
            parts[owner(k.0, k.1) % shards].delivered.insert(k, v);
        }
        parts
    }

    /// Reunites states produced by [`Matching::split_by`]. Keys are
    /// disjoint when the parts came from one split; overlapping flow
    /// records (possible when merging independently-grown states) are
    /// reconciled conservatively: sequence allocators take the maximum,
    /// delivery watermarks union.
    pub fn merge(parts: Vec<Matching>) -> Matching {
        let mut merged = Matching::new();
        for part in parts {
            merged.posted.extend(part.posted);
            for (k, v) in part.next_seq {
                let slot = merged.next_seq.entry(k).or_insert(v);
                if v.0 > slot.0 {
                    *slot = v;
                }
            }
            merged.unexpected.extend(part.unexpected);
            merged.pending_rts.extend(part.pending_rts);
            merged.done.extend(part.done);
            for (k, v) in part.delivered {
                match merged.delivered.entry(k) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(v);
                    }
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let cur = e.get_mut();
                        cur.next = cur.next.max(v.next);
                        cur.ahead.extend(v.ahead);
                        cur.ahead.retain(|&s| s >= cur.next);
                        while cur.ahead.remove(&cur.next) {
                            cur.next += 1;
                        }
                    }
                }
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: NodeId = NodeId(7);
    const TAG: Tag = Tag(3);

    fn by(p: &'static [u8]) -> Bytes {
        Bytes::from_static(p)
    }

    #[test]
    fn peer_chosen_keys_keep_randomized_hashing() {
        // A remote peer chooses these keys: eager data and RTS entries
        // arrive for receives not posted yet, and a granted transfer's
        // chunks carry the sender's offsets. They keep std's randomly
        // keyed hash so a peer cannot aim keys at one bucket; moving
        // any of them to the fast hasher stops this from compiling.
        use std::collections::hash_map::RandomState;
        fn keyed<K, V>(_: &HashMap<K, V, RandomState>) {}
        fn keyed_set<K>(_: &HashSet<K, RandomState>) {}
        let mut m = Matching::new();
        keyed(&m.unexpected);
        keyed(&m.pending_rts);
        m.post_recv(SRC, TAG, 64, RecvReqId(1));
        let slot = m.posted.values().next().expect("one posted slot");
        keyed_set(&slot.chunk_offsets);
    }

    #[test]
    fn expected_eager_completes_copy_free() {
        let mut m = Matching::new();
        let fx = m.post_recv(SRC, TAG, 64, RecvReqId(1)).1;
        assert!(fx.is_empty());
        let fx = m.on_data(SRC, TAG, SeqNo(0), by(b"hello"));
        assert_eq!(fx, vec![], "posted receives land without a host copy");
        let done = m.try_take_done(RecvReqId(1)).unwrap();
        assert_eq!(done.data, b"hello");
        assert!(!done.truncated);
        assert!(m.try_take_done(RecvReqId(1)).is_none(), "taken once");
    }

    #[test]
    fn unexpected_eager_is_retained_and_delivered_copy_free() {
        let mut m = Matching::new();
        // The frame slice is retained as-is: no bounce-buffer copy at
        // arrival, no placement copy at post time.
        let frame = Bytes::from(b"frame: early".to_vec());
        let fx = m.on_data(SRC, TAG, SeqNo(0), frame.slice(7..));
        assert_eq!(fx, vec![], "staging an unexpected slice is copy-free");
        assert_eq!(m.unexpected_count(), 1);
        let fx = m.post_recv(SRC, TAG, 64, RecvReqId(9)).1;
        assert_eq!(fx, vec![], "handover is copy-free too");
        let done = m.try_take_done(RecvReqId(9)).unwrap();
        assert_eq!(done.data, b"early");
        // Zero-copy means the delivered data still shares the frame's
        // backing storage.
        assert_eq!(done.data.as_slice().as_ptr(), frame[7..].as_ptr());
        assert_eq!(m.unexpected_count(), 0);
    }

    #[test]
    fn unexpected_truncation_slices_the_retained_frame() {
        let mut m = Matching::new();
        m.on_data(SRC, TAG, SeqNo(0), by(b"oversized"));
        let fx = m.post_recv(SRC, TAG, 4, RecvReqId(9)).1;
        assert_eq!(fx, vec![]);
        let done = m.try_take_done(RecvReqId(9)).unwrap();
        assert!(done.truncated);
        assert_eq!(done.data, b"over");
    }

    #[test]
    fn out_of_order_arrival_matches_by_seq() {
        let mut m = Matching::new();
        m.post_recv(SRC, TAG, 64, RecvReqId(1)); // seq 0
        m.post_recv(SRC, TAG, 64, RecvReqId(2)); // seq 1
                                                 // Wire reordered: seq 1 lands first.
        m.on_data(SRC, TAG, SeqNo(1), by(b"second"));
        m.on_data(SRC, TAG, SeqNo(0), by(b"first"));
        assert_eq!(m.try_take_done(RecvReqId(1)).unwrap().data, b"first");
        assert_eq!(m.try_take_done(RecvReqId(2)).unwrap().data, b"second");
    }

    #[test]
    fn flows_are_isolated_by_tag_and_source() {
        let mut m = Matching::new();
        m.post_recv(SRC, Tag(1), 64, RecvReqId(1));
        m.post_recv(SRC, Tag(2), 64, RecvReqId(2));
        m.post_recv(NodeId(8), Tag(1), 64, RecvReqId(3));
        m.on_data(NodeId(8), Tag(1), SeqNo(0), by(b"other-source"));
        m.on_data(SRC, Tag(2), SeqNo(0), by(b"tag-two"));
        m.on_data(SRC, Tag(1), SeqNo(0), by(b"tag-one"));
        assert_eq!(m.try_take_done(RecvReqId(1)).unwrap().data, b"tag-one");
        assert_eq!(m.try_take_done(RecvReqId(2)).unwrap().data, b"tag-two");
        assert_eq!(m.try_take_done(RecvReqId(3)).unwrap().data, b"other-source");
    }

    #[test]
    fn rts_after_post_grants_immediately() {
        let mut m = Matching::new();
        m.post_recv(SRC, TAG, 1024, RecvReqId(1));
        let fx = m.on_rts(SRC, TAG, SeqNo(0), 1000);
        assert_eq!(
            fx,
            vec![Effect::SendCts {
                dst: SRC,
                tag: TAG,
                seq: SeqNo(0),
                total: 1000
            }]
        );
    }

    #[test]
    fn rts_before_post_is_parked_until_post() {
        let mut m = Matching::new();
        assert!(m.on_rts(SRC, TAG, SeqNo(0), 500).is_empty());
        let fx = m.post_recv(SRC, TAG, 1024, RecvReqId(1)).1;
        assert_eq!(
            fx,
            vec![Effect::SendCts {
                dst: SRC,
                tag: TAG,
                seq: SeqNo(0),
                total: 500
            }]
        );
    }

    #[test]
    fn rdv_chunks_reassemble_in_any_order() {
        let mut m = Matching::new();
        m.post_recv(SRC, TAG, 100, RecvReqId(1));
        m.on_rts(SRC, TAG, SeqNo(0), 100);
        let body: Vec<u8> = (0..100).collect();
        // Deliver the second half first (multirail out-of-order).
        let fx = m.on_rdv_chunk(SRC, TAG, SeqNo(0), 50, &body[50..], true);
        assert!(fx.is_empty(), "zero-copy chunk charges nothing");
        assert!(m.try_take_done(RecvReqId(1)).is_none());
        m.on_rdv_chunk(SRC, TAG, SeqNo(0), 0, &body[..50], true);
        let done = m.try_take_done(RecvReqId(1)).unwrap();
        assert_eq!(done.data, body);
        assert!(!done.truncated);
    }

    #[test]
    fn rdv_without_rdma_charges_copies() {
        let mut m = Matching::new();
        m.post_recv(SRC, TAG, 10, RecvReqId(1));
        m.on_rts(SRC, TAG, SeqNo(0), 10);
        let fx = m.on_rdv_chunk(SRC, TAG, SeqNo(0), 0, &[1u8; 10], false);
        assert_eq!(fx, vec![Effect::ChargeCopy(10)]);
    }

    #[test]
    fn eager_truncation_is_flagged() {
        let mut m = Matching::new();
        m.post_recv(SRC, TAG, 3, RecvReqId(1));
        m.on_data(SRC, TAG, SeqNo(0), by(b"toolong"));
        let done = m.try_take_done(RecvReqId(1)).unwrap();
        assert!(done.truncated);
        assert_eq!(done.data, b"too");
    }

    #[test]
    fn rdv_truncation_keeps_prefix() {
        let mut m = Matching::new();
        m.post_recv(SRC, TAG, 4, RecvReqId(1));
        m.on_rts(SRC, TAG, SeqNo(0), 8);
        m.on_rdv_chunk(SRC, TAG, SeqNo(0), 0, &[1, 2, 3, 4, 5, 6, 7, 8], true);
        let done = m.try_take_done(RecvReqId(1)).unwrap();
        assert!(done.truncated);
        assert_eq!(done.data, vec![1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "protocol bug")]
    fn rdv_chunk_without_grant_is_a_protocol_bug() {
        let mut m = Matching::new();
        m.on_rdv_chunk(SRC, TAG, SeqNo(0), 0, b"x", true);
    }

    #[test]
    fn duplicate_eager_data_is_dropped_not_redelivered() {
        let mut m = Matching::new();
        m.post_recv(SRC, TAG, 64, RecvReqId(1));
        assert!(m.on_data(SRC, TAG, SeqNo(0), by(b"once")).is_empty());
        assert_eq!(
            m.on_data(SRC, TAG, SeqNo(0), by(b"once")),
            vec![Effect::DuplicateDropped]
        );
        assert_eq!(m.try_take_done(RecvReqId(1)).unwrap().data, b"once");
        // A third copy after the completion was taken is still a dup.
        assert_eq!(
            m.on_data(SRC, TAG, SeqNo(0), by(b"once")),
            vec![Effect::DuplicateDropped]
        );
        assert_eq!(m.unexpected_count(), 0, "duplicates must not be staged");
    }

    #[test]
    fn duplicate_unexpected_data_is_dropped_while_staged() {
        let mut m = Matching::new();
        m.on_data(SRC, TAG, SeqNo(0), by(b"early"));
        assert_eq!(
            m.on_data(SRC, TAG, SeqNo(0), by(b"early")),
            vec![Effect::DuplicateDropped]
        );
        assert_eq!(m.unexpected_count(), 1);
        m.post_recv(SRC, TAG, 64, RecvReqId(1));
        assert_eq!(m.try_take_done(RecvReqId(1)).unwrap().data, b"early");
        // And after consumption too.
        assert_eq!(
            m.on_data(SRC, TAG, SeqNo(0), by(b"early")),
            vec![Effect::DuplicateDropped]
        );
    }

    #[test]
    fn duplicate_rdv_chunk_offsets_are_dropped() {
        let mut m = Matching::new();
        m.post_recv(SRC, TAG, 100, RecvReqId(1));
        m.on_rts(SRC, TAG, SeqNo(0), 100);
        let body: Vec<u8> = (0..100).collect();
        m.on_rdv_chunk(SRC, TAG, SeqNo(0), 0, &body[..50], true);
        // A retransmitted copy of the same chunk must not double-count.
        assert_eq!(
            m.on_rdv_chunk(SRC, TAG, SeqNo(0), 0, &body[..50], true),
            vec![Effect::DuplicateDropped]
        );
        assert!(m.try_take_done(RecvReqId(1)).is_none());
        m.on_rdv_chunk(SRC, TAG, SeqNo(0), 50, &body[50..], true);
        assert_eq!(m.try_take_done(RecvReqId(1)).unwrap().data, body);
    }

    #[test]
    fn late_chunk_after_completion_is_dropped_not_a_panic() {
        let mut m = Matching::new();
        m.post_recv(SRC, TAG, 10, RecvReqId(1));
        m.on_rts(SRC, TAG, SeqNo(0), 10);
        m.on_rdv_chunk(SRC, TAG, SeqNo(0), 0, &[1u8; 10], true);
        assert!(m.is_done(RecvReqId(1)));
        // A failover requeue re-sent bytes the first rail delivered.
        assert_eq!(
            m.on_rdv_chunk(SRC, TAG, SeqNo(0), 0, &[1u8; 10], true),
            vec![Effect::DuplicateDropped]
        );
    }

    #[test]
    fn duplicate_rts_regrants_without_wiping_received_chunks() {
        let mut m = Matching::new();
        m.post_recv(SRC, TAG, 100, RecvReqId(1));
        m.on_rts(SRC, TAG, SeqNo(0), 100);
        let body: Vec<u8> = (0..100).collect();
        m.on_rdv_chunk(SRC, TAG, SeqNo(0), 0, &body[..50], true);
        // The CTS was lost; the sender re-announces. The re-grant must
        // not reset the reassembly buffer.
        let fx = m.on_rts(SRC, TAG, SeqNo(0), 100);
        assert_eq!(
            fx,
            vec![
                Effect::DuplicateDropped,
                Effect::SendCts {
                    dst: SRC,
                    tag: TAG,
                    seq: SeqNo(0),
                    total: 100
                }
            ]
        );
        m.on_rdv_chunk(SRC, TAG, SeqNo(0), 50, &body[50..], true);
        assert_eq!(m.try_take_done(RecvReqId(1)).unwrap().data, body);
    }

    #[test]
    fn duplicate_parked_rts_is_dropped() {
        let mut m = Matching::new();
        assert!(m.on_rts(SRC, TAG, SeqNo(0), 500).is_empty());
        assert_eq!(
            m.on_rts(SRC, TAG, SeqNo(0), 500),
            vec![Effect::DuplicateDropped]
        );
    }
}
