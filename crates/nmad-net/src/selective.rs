//! Selective-repeat reliability as a driver decorator.
//!
//! The go-back-N layer ([`ReliableDriver`](crate::reliable)) resends
//! its whole unacknowledged window on any loss — cheap state, expensive
//! wire. `SelectiveDriver` is the classic alternative: every frame is
//! acknowledged *individually*, the receiver buffers out-of-order
//! frames, and only frames whose own timer expires are retransmitted.
//! The lossy-fabric study (`bench --bin lossy`) compares the two.
//!
//! Wire format per frame: `kind (1) + seq (4) + checksum (4) +
//! payload`, where an ack frame's `seq` names the acknowledged data
//! frame. The checksum ([`checksum32`]) covers the rest of the frame;
//! frames that fail to verify are dropped and recovered by each
//! frame's own retransmission timer, which backs off exponentially
//! per attempt (shared [`BackoffPolicy`] schedule).

use crate::backoff::BackoffPolicy;
use crate::driver::{Capabilities, Driver, LinkStats, NetResult, RxFrame, SendHandle};
use crate::fault::{checksum32, FaultPlan, FaultStats};
use bytes::Bytes;
use nmad_sim::NodeId;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Decorator header: kind (1) + seq (4) + checksum (4).
pub const HEADER_LEN: usize = 9;
/// Frame kind: data carrying an engine frame as payload.
pub const KIND_DATA: u8 = 1;
/// Frame kind: individual acknowledgement of one data frame.
pub const KIND_ACK: u8 = 2;

/// Per-frame retransmission backoff cap, as a multiple of the base RTO.
const RTO_BACKOFF_CAP: u64 = 32;

/// Bound on receiver-side out-of-order buffering per peer.
const REORDER_WINDOW: usize = 1024;

/// Selective-repeat counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelectiveStats {
    /// Data frames sent for the first time.
    pub data_sent: u64,
    /// Individual frames retransmitted after their timer expired.
    pub retransmits: u64,
    /// Ack frames sent.
    pub acks_sent: u64,
    /// Duplicate data frames discarded at the receiver.
    pub duplicates_dropped: u64,
    /// Frames discarded because their checksum did not verify.
    pub corrupt_dropped: u64,
}

struct Outstanding {
    payload: Vec<u8>,
    last_tx_ns: u64,
    /// Times this frame's own timer has expired; feeds its
    /// exponentially backed-off RTO.
    attempt: u32,
}

#[derive(Default)]
struct PeerState {
    next_tx_seq: u32,
    unacked: BTreeMap<u32, Outstanding>,
    next_rx_seq: u32,
    out_of_order: BTreeMap<u32, Bytes>,
    /// Seqs received since the last pump, to acknowledge.
    owed_acks: Vec<u32>,
}

/// See the module documentation.
pub struct SelectiveDriver<D> {
    inner: D,
    now: Box<dyn Fn() -> u64 + Send>,
    request_wakeup: Option<Box<dyn Fn(u64) + Send>>,
    rto_ns: u64,
    peers: HashMap<NodeId, PeerState>,
    rx_ready: VecDeque<RxFrame>,
    inner_handles: VecDeque<SendHandle>,
    pending: HashMap<SendHandle, (NodeId, u32)>,
    next_handle: u64,
    stats: SelectiveStats,
}

fn encode(kind: u8, seq: u32, payload: &[u8]) -> Vec<u8> {
    encode_iov(kind, seq, &[payload])
}

/// Encodes a decorator frame directly from the engine's gather iov,
/// avoiding an intermediate concatenation buffer.
fn encode_iov(kind: u8, seq: u32, iov: &[&[u8]]) -> Vec<u8> {
    let len: usize = iov.iter().map(|s| s.len()).sum();
    let mut out = Vec::with_capacity(HEADER_LEN + len);
    out.push(kind);
    out.extend_from_slice(&seq.to_le_bytes());
    let crc = {
        let mut parts: Vec<&[u8]> = Vec::with_capacity(iov.len() + 1);
        parts.push(&out[..5]);
        parts.extend_from_slice(iov);
        checksum32(&parts)
    };
    out.extend_from_slice(&crc.to_le_bytes());
    for seg in iov {
        out.extend_from_slice(seg);
    }
    out
}

/// Verifies a received decorator frame's checksum.
fn verify(frame: &[u8]) -> bool {
    debug_assert!(frame.len() >= HEADER_LEN);
    let stamped = u32::from_le_bytes(frame[5..9].try_into().expect("4")); // PANIC-OK: 4-byte slice by construction
    stamped == checksum32(&[&frame[..5], &frame[HEADER_LEN..]])
}

impl<D: Driver> SelectiveDriver<D> {
    /// Wraps `inner` with selective-repeat reliability; parameters as
    /// in [`ReliableDriver::new`](crate::reliable::ReliableDriver::new)
    /// (here the RTO only needs to cover the round trip of a *single*
    /// frame plus its ack).
    pub fn new(
        inner: D,
        now: Box<dyn Fn() -> u64 + Send>,
        request_wakeup: Option<Box<dyn Fn(u64) + Send>>,
        rto_ns: u64,
    ) -> Self {
        assert!(rto_ns > 0, "zero retransmission timeout");
        SelectiveDriver {
            inner,
            now,
            request_wakeup,
            rto_ns,
            peers: HashMap::new(),
            rx_ready: VecDeque::new(),
            inner_handles: VecDeque::new(),
            pending: HashMap::new(),
            next_handle: 0,
            stats: SelectiveStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> SelectiveStats {
        self.stats
    }

    /// The wrapped driver.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    fn arm_timer(&self, deadline: u64) {
        if let Some(hook) = &self.request_wakeup {
            hook(deadline);
        }
    }

    fn reap_inner_handles(&mut self) -> NetResult<()> {
        for _ in 0..self.inner_handles.len() {
            let h = self.inner_handles.pop_front().expect("len checked"); // PANIC-OK: len checked in the loop condition
            if !self.inner.test_send(h)? {
                self.inner_handles.push_back(h);
            }
        }
        Ok(())
    }

    fn send_raw(&mut self, dst: NodeId, frame: &[u8]) -> NetResult<()> {
        let h = self.inner.post_send(dst, &[frame])?;
        self.inner_handles.push_back(h);
        Ok(())
    }

    fn handle_data(&mut self, src: NodeId, seq: u32, payload: Bytes) {
        let peer = self.peers.entry(src).or_default();
        if seq < peer.next_rx_seq || peer.out_of_order.contains_key(&seq) {
            self.stats.duplicates_dropped += 1;
        } else if seq == peer.next_rx_seq {
            peer.next_rx_seq += 1;
            self.rx_ready.push_back(RxFrame { src, payload });
            while let Some(p) = peer.out_of_order.remove(&peer.next_rx_seq) {
                peer.next_rx_seq += 1;
                self.rx_ready.push_back(RxFrame { src, payload: p });
            }
        } else if peer.out_of_order.len() < REORDER_WINDOW {
            peer.out_of_order.insert(seq, payload);
        } else {
            // Reorder buffer full: drop the frame unacknowledged, so
            // the sender's timer resends it.
            return;
        }
        peer.owed_acks.push(seq);
    }
}

impl<D: Driver> Driver for SelectiveDriver<D> {
    fn caps(&self) -> &Capabilities {
        self.inner.caps()
    }

    fn local_node(&self) -> NodeId {
        self.inner.local_node()
    }

    fn post_send(&mut self, dst: NodeId, iov: &[&[u8]]) -> NetResult<SendHandle> {
        let now = (self.now)();
        let (seq, frame) = {
            let peer = self.peers.entry(dst).or_default();
            let seq = peer.next_tx_seq;
            peer.next_tx_seq += 1;
            // Assemble the wire frame straight from the gather iov;
            // the retransmission copy is carved from the frame itself.
            let frame = encode_iov(KIND_DATA, seq, iov);
            peer.unacked.insert(
                seq,
                Outstanding {
                    payload: frame[HEADER_LEN..].to_vec(),
                    last_tx_ns: now,
                    attempt: 0,
                },
            );
            (seq, frame)
        };
        self.send_raw(dst, &frame)?;
        self.stats.data_sent += 1;
        self.arm_timer(now + self.rto_ns);
        let handle = SendHandle(self.next_handle);
        self.next_handle += 1;
        self.pending.insert(handle, (dst, seq));
        Ok(handle)
    }

    fn test_send(&mut self, handle: SendHandle) -> NetResult<bool> {
        self.pump()?;
        Ok(!self.pending.contains_key(&handle))
    }

    fn poll_recv(&mut self) -> NetResult<Option<RxFrame>> {
        if let Some(f) = self.rx_ready.pop_front() {
            return Ok(Some(f));
        }
        self.pump()?;
        Ok(self.rx_ready.pop_front())
    }

    fn tx_idle(&self) -> bool {
        self.inner.tx_idle()
    }

    fn link_stats(&self) -> LinkStats {
        let mut stats = self.inner.link_stats();
        stats.retransmits += self.stats.retransmits;
        stats.acks += self.stats.acks_sent;
        stats
    }

    fn pump(&mut self) -> NetResult<()> {
        self.inner.pump()?;
        self.reap_inner_handles()?;

        while let Some(frame) = self.inner.poll_recv()? {
            if frame.payload.len() < HEADER_LEN {
                continue;
            }
            if !verify(&frame.payload) {
                self.stats.corrupt_dropped += 1;
                continue;
            }
            let kind = frame.payload[0];
            let seq = u32::from_le_bytes(frame.payload[1..5].try_into().expect("4")); // PANIC-OK: 4-byte slice by construction
            match kind {
                KIND_ACK => {
                    if let Some(peer) = self.peers.get_mut(&frame.src) {
                        peer.unacked.remove(&seq);
                    }
                    self.pending
                        .retain(|_, &mut (peer, s)| !(peer == frame.src && s == seq));
                }
                // Zero-copy: the delivered payload is a slice of the
                // received frame buffer.
                KIND_DATA => self.handle_data(frame.src, seq, frame.payload.slice(HEADER_LEN..)),
                _ => {}
            }
        }

        // Send owed acks, one frame per received seq (individual acks
        // are the essence of selective repeat).
        let owing: Vec<(NodeId, Vec<u32>)> = self
            .peers
            .iter_mut()
            .filter(|(_, p)| !p.owed_acks.is_empty())
            .map(|(&n, p)| (n, std::mem::take(&mut p.owed_acks)))
            .collect();
        for (dst, seqs) in owing {
            for seq in seqs {
                let frame = encode(KIND_ACK, seq, &[]);
                self.send_raw(dst, &frame)?;
                self.stats.acks_sent += 1;
            }
        }

        // Per-frame retransmission timers, each with its own
        // exponentially backed-off deadline (shared backoff schedule,
        // capped at RTO_BACKOFF_CAP × the base RTO).
        let now = (self.now)();
        let policy = BackoffPolicy::new(self.rto_ns, self.rto_ns.saturating_mul(RTO_BACKOFF_CAP));
        let mut resends: Vec<(NodeId, Vec<u8>)> = Vec::new();
        let mut next_deadline: Option<u64> = None;
        for (&dst, peer) in &mut self.peers {
            for (&seq, out) in &mut peer.unacked {
                if now.saturating_sub(out.last_tx_ns) >= policy.delay_for(out.attempt) {
                    out.last_tx_ns = now;
                    out.attempt = out.attempt.saturating_add(1);
                    resends.push((dst, encode(KIND_DATA, seq, &out.payload)));
                }
                let deadline = out.last_tx_ns.saturating_add(policy.delay_for(out.attempt));
                next_deadline = Some(next_deadline.map_or(deadline, |d| d.min(deadline)));
            }
        }
        if let Some(deadline) = next_deadline {
            self.arm_timer(deadline);
        }
        for (dst, frame) in resends {
            self.send_raw(dst, &frame)?;
            self.stats.retransmits += 1;
        }
        Ok(())
    }

    fn install_faults(&mut self, plan: FaultPlan) -> bool {
        self.inner.install_faults(plan)
    }

    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }

    fn endpoint_stats(&self) -> crate::endpoint::EndpointStats {
        self.inner.endpoint_stats()
    }

    fn set_rx_backpressure(&mut self, paused: bool) {
        self.inner.set_rx_backpressure(paused);
    }

    fn threaded_progress_safe(&self) -> bool {
        self.inner.threaded_progress_safe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lossy::LossyDriver;
    use crate::mem::mem_fabric;
    use nmad_verify::sync::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn test_clock() -> (Arc<AtomicU64>, Box<dyn Fn() -> u64 + Send>) {
        let t = Arc::new(AtomicU64::new(0));
        let t2 = t.clone();
        (t, Box::new(move || t2.load(Ordering::Relaxed)))
    }

    #[test]
    fn lossless_in_order_delivery_without_retransmits() {
        let mut fabric = mem_fabric(2);
        let (_, clk_b) = test_clock();
        let (_, clk_a) = test_clock();
        let mut b = SelectiveDriver::new(fabric.pop().expect("pair"), clk_b, None, 1_000_000);
        let mut a = SelectiveDriver::new(fabric.pop().expect("pair"), clk_a, None, 1_000_000);
        for i in 0..25u8 {
            a.post_send(NodeId(1), &[&[i; 4]]).unwrap();
        }
        let mut got = Vec::new();
        while got.len() < 25 {
            a.pump().unwrap();
            b.pump().unwrap();
            while let Some(f) = b.poll_recv().unwrap() {
                got.push(f.payload[0]);
            }
        }
        assert_eq!(got, (0..25).collect::<Vec<u8>>());
        assert_eq!(a.stats().retransmits, 0);
    }

    #[test]
    fn selective_repeat_resends_only_lost_frames() {
        let mut fabric = mem_fabric(2);
        let b_raw = fabric.pop().expect("pair");
        let a_raw = fabric.pop().expect("pair");
        let (ta, clk_a) = test_clock();
        let (_, clk_b) = test_clock();
        // Loss only on a→b data; acks flow losslessly back.
        let mut a =
            SelectiveDriver::new(LossyDriver::new(a_raw, 0.3, 0xD00D), clk_a, None, 500_000);
        let mut b = SelectiveDriver::new(b_raw, clk_b, None, 500_000);
        let n = 60u8;
        for i in 0..n {
            a.post_send(NodeId(1), &[&[i; 16]]).unwrap();
        }
        let first_pass = a.inner().stats().passed;
        let lost = n as u64 - first_pass;
        assert!(lost > 0, "seeded loss must drop something");
        let mut got = Vec::new();
        for _ in 0..100_000 {
            ta.fetch_add(100_000, Ordering::Relaxed);
            a.pump().unwrap();
            b.pump().unwrap();
            while let Some(f) = b.poll_recv().unwrap() {
                got.push(f.payload[0]);
            }
            if got.len() == n as usize {
                break;
            }
        }
        assert_eq!(got, (0..n).collect::<Vec<u8>>());
        // The defining property: retransmissions stay in the order of
        // the losses, not of the whole window (go-back-N would resend
        // many follow-on frames per loss).
        let retx = a.stats().retransmits;
        assert!(
            retx < 3 * lost + 6,
            "selective repeat resent {retx} for {lost} losses"
        );
    }

    /// The engine's snapshot reads the decorator's own counters through
    /// `link_stats`, added on top of the wrapped driver's.
    #[test]
    fn link_stats_report_acks_and_retransmits() {
        let mut fabric = mem_fabric(2);
        let b_raw = fabric.pop().expect("pair");
        let a_raw = fabric.pop().expect("pair");
        let (ta, clk_a) = test_clock();
        let (_, clk_b) = test_clock();
        let mut a =
            SelectiveDriver::new(LossyDriver::new(a_raw, 0.3, 0xD00D), clk_a, None, 500_000);
        let mut b = SelectiveDriver::new(b_raw, clk_b, None, 500_000);
        let n = 20u8;
        for i in 0..n {
            a.post_send(NodeId(1), &[&[i; 16]]).unwrap();
        }
        let mut got = 0;
        for _ in 0..100_000 {
            ta.fetch_add(100_000, Ordering::Relaxed);
            a.pump().unwrap();
            b.pump().unwrap();
            while b.poll_recv().unwrap().is_some() {
                got += 1;
            }
            if got == n {
                break;
            }
        }
        assert_eq!(got, n, "every frame delivered");
        assert!(b.stats().acks_sent >= u64::from(n));
        assert_eq!(b.link_stats().acks, b.stats().acks_sent);
        assert!(a.stats().retransmits > 0, "seeded loss must force resends");
        assert_eq!(a.link_stats().retransmits, a.stats().retransmits);
    }

    #[test]
    fn injected_corruption_is_detected_and_recovered() {
        let mut fabric = mem_fabric(2);
        let b_raw = fabric.pop().expect("pair");
        let mut a_raw = fabric.pop().expect("pair");
        // Flip one bit in roughly half of a's outgoing frames.
        assert!(a_raw.install_faults(FaultPlan::new(0xC0).with_corrupt_probability(0.5)));
        let (ta, clk_a) = test_clock();
        let (_, clk_b) = test_clock();
        let mut a = SelectiveDriver::new(a_raw, clk_a, None, 500_000);
        let mut b = SelectiveDriver::new(b_raw, clk_b, None, 500_000);
        let n = 30u8;
        for i in 0..n {
            a.post_send(NodeId(1), &[&[i; 16]]).unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..100_000 {
            ta.fetch_add(2_000_000, Ordering::Relaxed);
            a.pump().unwrap();
            b.pump().unwrap();
            while let Some(f) = b.poll_recv().unwrap() {
                got.push(f.payload.clone());
            }
            if got.len() == n as usize {
                break;
            }
        }
        assert_eq!(got.len(), n as usize, "all frames recovered");
        for (i, payload) in got.iter().enumerate() {
            assert_eq!(payload, &vec![i as u8; 16], "in-order, uncorrupted content");
        }
        let corrupted_on_wire = a.fault_stats().corrupted;
        assert!(corrupted_on_wire > 0, "the plan must have corrupted frames");
        // Corrupted data frames land at b; corrupted acks land back at a.
        assert!(
            a.stats().corrupt_dropped + b.stats().corrupt_dropped > 0,
            "checksum must have caught corruption"
        );
    }

    #[test]
    fn per_frame_rto_backs_off_exponentially() {
        let mut fabric = mem_fabric(2);
        let _b_raw = fabric.pop().expect("pair");
        let a_raw = fabric.pop().expect("pair");
        let (ta, clk_a) = test_clock();
        // No peer ever pumps, so the single frame times out repeatedly.
        let mut a = SelectiveDriver::new(a_raw, clk_a, None, 1_000_000);
        a.post_send(NodeId(1), &[b"lonely"]).unwrap();
        let mut timeout_steps = Vec::new();
        for step in 0..64u64 {
            ta.fetch_add(1_000_000, Ordering::Relaxed);
            let before = a.stats().retransmits;
            a.pump().unwrap();
            if a.stats().retransmits > before {
                timeout_steps.push(step);
            }
        }
        assert!(timeout_steps.len() >= 3, "expected several timeouts");
        let gaps: Vec<u64> = timeout_steps.windows(2).map(|w| w[1] - w[0]).collect();
        for pair in gaps.windows(2) {
            assert!(pair[1] >= pair[0], "gaps must not shrink: {gaps:?}");
        }
        assert!(
            gaps.last().expect("gaps") > gaps.first().expect("gaps"),
            "backoff must actually grow: {gaps:?}"
        );
    }

    #[test]
    fn frames_dropped_by_a_full_reorder_buffer_are_resent() {
        let mut fabric = mem_fabric(2);
        let b_raw = fabric.pop().expect("pair");
        let mut a_raw = fabric.pop().expect("pair");
        // The mem fabric's fault clock counts posted frames: this drops
        // the first data frame and nothing else.
        assert!(a_raw.install_faults(FaultPlan::new(0).link_down(0, 1)));
        let (ta, clk_a) = test_clock();
        let (_, clk_b) = test_clock();
        let mut a = SelectiveDriver::new(a_raw, clk_a, None, 1_000_000);
        let mut b = SelectiveDriver::new(b_raw, clk_b, None, 1_000_000);
        let n = (REORDER_WINDOW + 100) as u32;
        let sends: Vec<SendHandle> = (0..n)
            .map(|i| a.post_send(NodeId(1), &[&i.to_le_bytes()]).unwrap())
            .collect();
        // One receiver pump before any timer fires: seq 0 is missing,
        // seqs 1..=REORDER_WINDOW fill the buffer and the rest do not
        // fit. Only the buffered frames may count as delivered.
        b.pump().unwrap();
        let done = sends.iter().filter(|&&h| a.test_send(h).unwrap()).count();
        assert_eq!(done, REORDER_WINDOW);
        let mut got = Vec::new();
        for _ in 0..100 {
            ta.fetch_add(1_000_000, Ordering::Relaxed);
            a.pump().unwrap();
            b.pump().unwrap();
            while let Some(f) = b.poll_recv().unwrap() {
                got.push(u32::from_le_bytes(f.payload[..4].try_into().unwrap()));
            }
            if got.len() == n as usize {
                break;
            }
        }
        assert_eq!(got, (0..n).collect::<Vec<u32>>());
        for h in sends {
            assert!(a.test_send(h).unwrap());
        }
    }

    #[test]
    fn duplicate_data_is_acked_but_not_redelivered() {
        let mut fabric = mem_fabric(2);
        let b_raw = fabric.pop().expect("pair");
        let a_raw = fabric.pop().expect("pair");
        let (ta, clk_a) = test_clock();
        let (_, clk_b) = test_clock();
        // Drop essentially all acks so a keeps retransmitting.
        let mut a = SelectiveDriver::new(a_raw, clk_a, None, 300_000);
        let mut b = SelectiveDriver::new(LossyDriver::new(b_raw, 0.95, 5), clk_b, None, 300_000);
        a.post_send(NodeId(1), &[b"exactly-once"]).unwrap();
        let mut deliveries = 0;
        for _ in 0..60 {
            ta.fetch_add(400_000, Ordering::Relaxed);
            a.pump().unwrap();
            b.pump().unwrap();
            while let Some(f) = b.poll_recv().unwrap() {
                assert_eq!(f.payload, b"exactly-once");
                deliveries += 1;
            }
        }
        assert_eq!(deliveries, 1);
        assert!(b.stats().duplicates_dropped > 0);
    }
}
