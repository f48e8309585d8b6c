//! Go-back-N reliability as a driver decorator.
//!
//! The paper's fabrics (Myrinet, Quadrics, SCI) are lossless and its
//! TCP port inherits reliability from TCP. [`ReliableDriver`] extends
//! the reproduction to *lossy datagram* fabrics: it wraps any
//! [`Driver`] and guarantees in-order, exactly-once frame delivery on
//! top of a link that may drop frames (for example a
//! [`LossyDriver`](crate::lossy::LossyDriver)).
//!
//! Protocol (classic go-back-N with cumulative acks):
//!
//! * every data frame carries `(seq, ack)`; `ack` is the receiver's
//!   next expected sequence, piggybacked on everything;
//! * the receiver delivers in-order frames, buffers a bounded window of
//!   out-of-order ones, and acknowledges every arrival (a duplicate
//!   cumulative ack signals a gap);
//! * the sender holds unacknowledged frames and retransmits them all on
//!   a duplicate ack or when the retransmission timeout fires.
//!
//! Time is abstracted: the decorator takes a `now` closure (virtual
//! time under the simulator, `Instant` on real transports) and an
//! optional wakeup hook so a simulated clock knows to stop at the
//! retransmission deadline.

use crate::backoff::BackoffPolicy;
use crate::driver::{Capabilities, Driver, LinkStats, NetResult, RxFrame, SendHandle};
use crate::fault::{checksum32, FaultPlan, FaultStats};
use bytes::Bytes;
use nmad_sim::NodeId;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Decorator header: kind (1) + seq (4) + ack (4) + checksum (4).
/// Public so harnesses can peel the header off captured frames.
pub const HEADER_LEN: usize = 13;
/// Frame kind: data carrying an engine frame as payload.
pub const KIND_DATA: u8 = 1;
/// Frame kind: standalone cumulative acknowledgement.
pub const KIND_ACK: u8 = 2;

/// Consecutive timeouts double the retransmission timeout up to this
/// multiple of the base RTO (exponential backoff; reset on ack
/// progress).
const RTO_BACKOFF_CAP: u64 = 32;

/// Cap on buffered out-of-order frames per peer (go-back-N resends
/// everything anyway; the buffer only saves bandwidth).
const REORDER_WINDOW: usize = 64;

/// Reliability-layer counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReliableStats {
    /// Data frames sent for the first time.
    pub data_sent: u64,
    /// Data frames retransmitted.
    pub retransmits: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Duplicate cumulative acks received (gap signals).
    pub dup_acks: u64,
    /// Duplicate/old data frames discarded at the receiver.
    pub duplicates_dropped: u64,
    /// Standalone ack frames sent.
    pub acks_sent: u64,
    /// Frames discarded because their checksum did not verify
    /// (corruption on the wire).
    pub corrupt_dropped: u64,
}

#[derive(Default)]
struct PeerState {
    // --- sender side ---
    next_tx_seq: u32,
    /// Unacknowledged payloads, oldest first: (seq, payload).
    unacked: VecDeque<(u32, Vec<u8>)>,
    last_tx_ns: u64,
    last_ack_seen: u32,
    /// Consecutive retransmission timeouts without ack progress; feeds
    /// the exponential backoff of this peer's effective RTO.
    rto_attempt: u32,
    // --- receiver side ---
    next_rx_seq: u32,
    out_of_order: BTreeMap<u32, Bytes>,
    owes_ack: bool,
}

/// See the module documentation.
pub struct ReliableDriver<D> {
    inner: D,
    now: Box<dyn Fn() -> u64 + Send>,
    request_wakeup: Option<Box<dyn Fn(u64) + Send>>,
    rto_ns: u64,
    peers: HashMap<NodeId, PeerState>,
    rx_ready: VecDeque<RxFrame>,
    /// Inner send handles we fire-and-forget (acks, retransmits);
    /// reaped opportunistically.
    inner_handles: VecDeque<SendHandle>,
    /// Public handles map 1:1 to data frames; complete once acked.
    pending: HashMap<SendHandle, (NodeId, u32)>,
    next_handle: u64,
    stats: ReliableStats,
}

fn encode(kind: u8, seq: u32, ack: u32, payload: &[u8]) -> Vec<u8> {
    encode_iov(kind, seq, ack, &[payload])
}

/// Encodes a decorator frame directly from the engine's gather iov, so
/// multi-segment posts are assembled once instead of concatenated into
/// an intermediate buffer first.
fn encode_iov(kind: u8, seq: u32, ack: u32, iov: &[&[u8]]) -> Vec<u8> {
    let len: usize = iov.iter().map(|s| s.len()).sum();
    let mut out = Vec::with_capacity(HEADER_LEN + len);
    out.push(kind);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&ack.to_le_bytes());
    let crc = {
        let mut parts: Vec<&[u8]> = Vec::with_capacity(iov.len() + 1);
        parts.push(&out[..9]);
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
    let stamped = u32::from_le_bytes(frame[9..13].try_into().expect("4")); // PANIC-OK: 4-byte slice by construction
    stamped == checksum32(&[&frame[..9], &frame[HEADER_LEN..]])
}

impl<D: Driver> ReliableDriver<D> {
    /// Wraps `inner` with go-back-N reliability.
    ///
    /// `now` supplies monotonic nanoseconds; `request_wakeup` (if any)
    /// is invoked with the absolute deadline whenever a retransmission
    /// timer is armed, so a virtual clock can schedule a stop there.
    /// `rto_ns` is the retransmission timeout; size it above the
    /// worst-case round trip *including the serialization time of the
    /// largest frame*, or go-back-N will retransmit spuriously.
    pub fn new(
        inner: D,
        now: Box<dyn Fn() -> u64 + Send>,
        request_wakeup: Option<Box<dyn Fn(u64) + Send>>,
        rto_ns: u64,
    ) -> Self {
        assert!(rto_ns > 0, "zero retransmission timeout");
        ReliableDriver {
            inner,
            now,
            request_wakeup,
            rto_ns,
            peers: HashMap::new(),
            rx_ready: VecDeque::new(),
            inner_handles: VecDeque::new(),
            pending: HashMap::new(),
            next_handle: 0,
            stats: ReliableStats::default(),
        }
    }

    /// Reliability counters so far.
    pub fn stats(&self) -> ReliableStats {
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

    /// Effective RTO after `attempt` consecutive timeouts: the shared
    /// exponential-backoff schedule over the base RTO.
    fn rto_for(&self, attempt: u32) -> u64 {
        BackoffPolicy::new(self.rto_ns, self.rto_ns.saturating_mul(RTO_BACKOFF_CAP))
            .delay_for(attempt)
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

    fn retransmit_all(&mut self, dst: NodeId) -> NetResult<()> {
        let now = (self.now)();
        let peer = self.peers.entry(dst).or_default();
        let ack = peer.next_rx_seq;
        let frames: Vec<(u32, Vec<u8>)> = peer
            .unacked
            .iter()
            .map(|(seq, payload)| (*seq, encode(KIND_DATA, *seq, ack, payload)))
            .collect();
        let count = frames.len() as u64;
        if count == 0 {
            return Ok(());
        }
        let attempt = {
            let peer = self.peers.get_mut(&dst).expect("present"); // PANIC-OK: dst drawn from the peers keys
            peer.last_tx_ns = now;
            peer.rto_attempt
        };
        for (_, frame) in frames {
            self.send_raw(dst, &frame)?;
        }
        self.stats.retransmits += count;
        self.arm_timer(now + self.rto_for(attempt));
        Ok(())
    }

    fn send_ack(&mut self, dst: NodeId) -> NetResult<()> {
        let peer = self.peers.entry(dst).or_default();
        let ack = peer.next_rx_seq;
        let seq = peer.next_tx_seq; // informational on ack frames
        peer.owes_ack = false;
        let frame = encode(KIND_ACK, seq, ack, &[]);
        self.send_raw(dst, &frame)?;
        self.stats.acks_sent += 1;
        Ok(())
    }

    fn handle_ack(&mut self, src: NodeId, ack: u32) -> NetResult<()> {
        let (stale, dup) = {
            let peer = self.peers.entry(src).or_default();
            let before = peer.unacked.len();
            while peer.unacked.front().is_some_and(|&(seq, _)| seq < ack) {
                peer.unacked.pop_front();
            }
            let advanced = peer.unacked.len() != before;
            if advanced {
                // Ack progress: the next timeout starts over at the
                // base RTO.
                peer.rto_attempt = 0;
            }
            let dup = !advanced && ack == peer.last_ack_seen && !peer.unacked.is_empty();
            peer.last_ack_seen = ack;
            (peer.unacked.is_empty(), dup)
        };
        // Completions: every pending handle whose seq is now acked.
        self.pending
            .retain(|_, &mut (peer, seq)| !(peer == src && seq < ack));
        let _ = stale;
        if dup {
            // A duplicate cumulative ack while data is outstanding is a
            // gap signal: go back and resend the window.
            self.stats.dup_acks += 1;
            self.retransmit_all(src)?;
        }
        Ok(())
    }

    fn handle_data(&mut self, src: NodeId, seq: u32, payload: Bytes) {
        let peer = self.peers.entry(src).or_default();
        if seq < peer.next_rx_seq {
            self.stats.duplicates_dropped += 1;
            peer.owes_ack = true; // re-ack so the sender advances
            return;
        }
        if seq == peer.next_rx_seq {
            peer.next_rx_seq += 1;
            self.rx_ready.push_back(RxFrame { src, payload });
            // Drain any directly following buffered frames.
            while let Some(p) = peer.out_of_order.remove(&peer.next_rx_seq) {
                peer.next_rx_seq += 1;
                self.rx_ready.push_back(RxFrame { src, payload: p });
            }
        } else if peer.out_of_order.len() < REORDER_WINDOW {
            peer.out_of_order.insert(seq, payload);
        }
        // Ack everything we see: in-order data advances the cumulative
        // ack, out-of-order data produces the duplicate-ack gap signal.
        peer.owes_ack = true;
    }
}

impl<D: Driver> Driver for ReliableDriver<D> {
    fn caps(&self) -> &Capabilities {
        self.inner.caps()
    }

    fn local_node(&self) -> NodeId {
        self.inner.local_node()
    }

    fn post_send(&mut self, dst: NodeId, iov: &[&[u8]]) -> NetResult<SendHandle> {
        let now = (self.now)();
        let (seq, frame, attempt) = {
            let peer = self.peers.entry(dst).or_default();
            let seq = peer.next_tx_seq;
            peer.next_tx_seq += 1;
            // Assemble the wire frame straight from the gather iov;
            // the retransmission copy is carved from the frame itself.
            let frame = encode_iov(KIND_DATA, seq, peer.next_rx_seq, iov);
            peer.unacked.push_back((seq, frame[HEADER_LEN..].to_vec()));
            peer.last_tx_ns = now;
            (seq, frame, peer.rto_attempt)
        };
        self.send_raw(dst, &frame)?;
        self.stats.data_sent += 1;
        self.arm_timer(now + self.rto_for(attempt));
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

        // Drain the wire.
        while let Some(frame) = self.inner.poll_recv()? {
            if frame.payload.len() < HEADER_LEN {
                continue; // not ours; drop (corrupt or foreign)
            }
            if !verify(&frame.payload) {
                // Bit rot on the wire: drop the whole frame; the
                // sender's window retransmits it intact.
                self.stats.corrupt_dropped += 1;
                continue;
            }
            let kind = frame.payload[0];
            let seq = u32::from_le_bytes(frame.payload[1..5].try_into().expect("4")); // PANIC-OK: 4-byte slice by construction
            let ack = u32::from_le_bytes(frame.payload[5..9].try_into().expect("4")); // PANIC-OK: 4-byte slice by construction
            self.handle_ack(frame.src, ack)?;
            if kind == KIND_DATA {
                // Zero-copy: the delivered payload is a slice of the
                // received frame buffer.
                self.handle_data(frame.src, seq, frame.payload.slice(HEADER_LEN..));
            }
        }

        // Send owed acks.
        let owing: Vec<NodeId> = self
            .peers
            .iter()
            .filter(|&(_, p)| p.owes_ack)
            .map(|(&n, _)| n)
            .collect();
        for dst in owing {
            self.send_ack(dst)?;
        }

        // Retransmission timeouts, each peer judged against its own
        // backed-off RTO.
        let now = (self.now)();
        let expired: Vec<NodeId> = self
            .peers
            .iter()
            .filter(|&(_, p)| {
                !p.unacked.is_empty()
                    && now.saturating_sub(p.last_tx_ns) >= self.rto_for(p.rto_attempt)
            })
            .map(|(&n, _)| n)
            .collect();
        for dst in expired {
            self.stats.timeouts += 1;
            // Another consecutive timeout: back the RTO off before the
            // retransmission arms the next timer.
            let peer = self.peers.get_mut(&dst).expect("expired implies present"); // PANIC-OK: expiry list built from live peers entries
            peer.rto_attempt = peer.rto_attempt.saturating_add(1);
            self.retransmit_all(dst)?;
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

    /// A controllable test clock.
    fn test_clock() -> (Arc<AtomicU64>, Box<dyn Fn() -> u64 + Send>) {
        let t = Arc::new(AtomicU64::new(0));
        let t2 = t.clone();
        (t, Box::new(move || t2.load(Ordering::Relaxed)))
    }

    fn wrap<D: Driver>(d: D, clock: Box<dyn Fn() -> u64 + Send>) -> ReliableDriver<D> {
        ReliableDriver::new(d, clock, None, 1_000_000)
    }

    #[test]
    fn lossless_path_delivers_in_order() {
        let mut fabric = mem_fabric(2);
        let (ca, _) = test_clock();
        let (cb, _) = test_clock();
        let _ = (ca, cb);
        let b_raw = fabric.pop().expect("pair");
        let a_raw = fabric.pop().expect("pair");
        let (_, clk_a) = test_clock();
        let (_, clk_b) = test_clock();
        let mut a = wrap(a_raw, clk_a);
        let mut b = wrap(b_raw, clk_b);
        let mut handles = Vec::new();
        for i in 0..20u8 {
            handles.push(a.post_send(NodeId(1), &[&[i; 8]]).unwrap());
        }
        let mut got = Vec::new();
        while got.len() < 20 {
            b.pump().unwrap();
            a.pump().unwrap();
            while let Some(f) = b.poll_recv().unwrap() {
                got.push(f.payload[0]);
            }
        }
        assert_eq!(got, (0..20).collect::<Vec<u8>>());
        // Acks flow back: every handle eventually completes.
        for h in handles {
            let mut done = false;
            for _ in 0..100 {
                a.pump().unwrap();
                b.pump().unwrap();
                if a.test_send(h).unwrap() {
                    done = true;
                    break;
                }
            }
            assert!(done, "send never acknowledged");
        }
        assert_eq!(a.stats().retransmits, 0, "no loss, no retransmits");
    }

    #[test]
    fn heavy_loss_is_recovered_by_gap_signals_and_timeouts() {
        let mut fabric = mem_fabric(2);
        let b_raw = fabric.pop().expect("pair");
        let a_raw = fabric.pop().expect("pair");
        let (ta, clk_a) = test_clock();
        let (_, clk_b) = test_clock();
        // 30% loss in both directions.
        let mut a = wrap(LossyDriver::new(a_raw, 0.3, 0xFEED), clk_a);
        let mut b = wrap(LossyDriver::new(b_raw, 0.3, 0xBEEF), clk_b);

        for i in 0..40u8 {
            a.post_send(NodeId(1), &[&[i; 4]]).unwrap();
        }
        let mut got = Vec::new();
        for round in 0..200_000 {
            // Advance a's clock so its RTO can fire (b only acks).
            ta.fetch_add(50_000, Ordering::Relaxed);
            a.pump().unwrap();
            b.pump().unwrap();
            while let Some(f) = b.poll_recv().unwrap() {
                got.push(f.payload[0]);
            }
            if got.len() == 40 {
                break;
            }
            assert!(round < 199_999, "did not recover: got {} of 40", got.len());
        }
        assert_eq!(got, (0..40).collect::<Vec<u8>>(), "in order, exactly once");
        assert!(
            a.stats().retransmits > 0,
            "30% loss must force retransmissions: {:?}",
            a.stats()
        );
    }

    #[test]
    fn link_stats_surface_reliability_counters() {
        let mut fabric = mem_fabric(2);
        let b_raw = fabric.pop().expect("pair");
        let a_raw = fabric.pop().expect("pair");
        let (ta, clk_a) = test_clock();
        let (_, clk_b) = test_clock();
        let mut a = wrap(a_raw, clk_a);
        let mut b = wrap(b_raw, clk_b);
        let h = a.post_send(NodeId(1), &[b"ping"]).unwrap();
        for _ in 0..100 {
            ta.fetch_add(50_000, Ordering::Relaxed);
            a.pump().unwrap();
            b.pump().unwrap();
            while b.poll_recv().unwrap().is_some() {}
            if a.test_send(h).unwrap() {
                break;
            }
        }
        assert!(b.link_stats().acks > 0, "receiver acked at least once");
        assert_eq!(a.link_stats().retransmits, 0, "lossless path");
        // Counters stack on top of the inner driver's (mem driver: zero).
        assert_eq!(b.link_stats().acks, b.stats().acks_sent);
    }

    #[test]
    fn injected_corruption_is_detected_and_recovered() {
        let mut fabric = mem_fabric(2);
        let b_raw = fabric.pop().expect("pair");
        let mut a_raw = fabric.pop().expect("pair");
        // Corrupt ~half of a→b frames (mem pseudo-time = frame count).
        assert!(a_raw.install_faults(FaultPlan::new(0xC0).with_corrupt_probability(0.5)));
        let (ta, clk_a) = test_clock();
        let (_, clk_b) = test_clock();
        let mut a = wrap(a_raw, clk_a);
        let mut b = wrap(b_raw, clk_b);
        for i in 0..30u8 {
            a.post_send(NodeId(1), &[&[i; 16]]).unwrap();
        }
        let mut got = Vec::new();
        for round in 0..10_000 {
            ta.fetch_add(2_000_000, Ordering::Relaxed);
            a.pump().unwrap();
            b.pump().unwrap();
            while let Some(f) = b.poll_recv().unwrap() {
                assert_eq!(f.payload, vec![got.len() as u8; 16], "order and content");
                got.push(f.payload[0]);
            }
            if got.len() == 30 {
                break;
            }
            assert!(round < 9_999, "did not recover: got {} of 30", got.len());
        }
        assert!(
            b.stats().corrupt_dropped > 0,
            "checksum must catch the injected flips: {:?}",
            b.stats()
        );
        assert!(a.fault_stats().corrupted > 0);
    }

    #[test]
    fn rto_backs_off_exponentially_and_resets_on_progress() {
        let mut fabric = mem_fabric(2);
        let _b_raw = fabric.pop().expect("pair");
        let a_raw = fabric.pop().expect("pair");
        let (ta, clk_a) = test_clock();
        // b never pumps: no acks ever come back.
        let mut a = wrap(a_raw, clk_a);
        a.post_send(NodeId(1), &[b"never acked"]).unwrap();
        // Base RTO is 1ms. Walk time forward in base-RTO steps: with
        // exponential backoff, later timeouts need more steps to fire.
        let mut timeouts_at = Vec::new();
        for step in 0..64u64 {
            ta.fetch_add(1_000_000, Ordering::Relaxed);
            let before = a.stats().timeouts;
            a.pump().unwrap();
            if a.stats().timeouts > before {
                timeouts_at.push(step);
            }
        }
        assert!(
            timeouts_at.len() >= 3,
            "several timeouts must fire in 64ms: {timeouts_at:?}"
        );
        let gaps: Vec<u64> = timeouts_at.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            gaps.windows(2).all(|w| w[1] >= w[0]),
            "gaps must be non-decreasing: {gaps:?}"
        );
        assert!(
            *gaps.last().unwrap() > *gaps.first().unwrap(),
            "backoff must actually grow: {gaps:?}"
        );
    }

    #[test]
    fn duplicates_are_dropped_not_redelivered() {
        let mut fabric = mem_fabric(2);
        let b_raw = fabric.pop().expect("pair");
        let a_raw = fabric.pop().expect("pair");
        let (ta, clk_a) = test_clock();
        let (_, clk_b) = test_clock();
        // Lossless inner, but force a timeout retransmission by never
        // letting b's acks reach a... easiest: drop 100% of b→a frames.
        let mut a = wrap(a_raw, clk_a);
        let mut b = wrap(LossyDriver::new(b_raw, 0.99, 3), clk_b);
        a.post_send(NodeId(1), &[b"only-once"]).unwrap();
        let mut deliveries = 0;
        for _ in 0..50 {
            ta.fetch_add(2_000_000, Ordering::Relaxed); // exceed RTO
            a.pump().unwrap();
            b.pump().unwrap();
            while let Some(f) = b.poll_recv().unwrap() {
                assert_eq!(f.payload, b"only-once");
                deliveries += 1;
            }
        }
        assert_eq!(deliveries, 1, "retransmits must not duplicate delivery");
        assert!(a.stats().timeouts > 0);
        assert!(b.stats().duplicates_dropped > 0);
    }
}
