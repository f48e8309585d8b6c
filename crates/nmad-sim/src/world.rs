//! The discrete-event simulated cluster.
//!
//! `SimWorld` owns the virtual clock and, per node × rail: the NIC
//! transmit occupancy, the in-flight packet queue towards that node, and
//! a per-node CPU account. Engines interact with it through the same
//! primitive operations a user-level NIC driver offers — post a
//! (possibly gather) send, test a send for completion, poll for
//! received packets — plus an explicit CPU charge used to model memory
//! copies and per-request software costs.
//!
//! Time only moves in [`SimWorld::advance`], which jumps to the next
//! recorded wakeup (a transmit completion, a packet delivery, or a CPU
//! account becoming free). The co-simulation loop in [`crate::runner`]
//! calls it whenever every engine is quiescent, which makes every run
//! deterministic and lets the figure harnesses read exact virtual
//! timings.
//!
//! The world also publishes the values an idle poll reads — the clock,
//! and per node × rail the instant the inbox head is due and the
//! instant the transmit side is free — in a lock-free [`Readiness`]
//! mirror, so a driver can answer "nothing yet" without the world lock.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crossbeam::sync::{AtomicU64, Ordering};

use crate::hash::FxHashMap;
use crate::host::HostModel;
use crate::nic::NicModel;
use crate::time::{SimDuration, SimTime};
use crate::topo::{NodeId, RailId, SimConfig};
use crate::trace::{Trace, TraceEvent};

/// Handle for an in-progress simulated send.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SendToken(u64);

/// A packet delivered to a node's NIC.
#[derive(Clone, Debug)]
pub struct RxPacket {
    /// Source node.
    pub src: NodeId,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Instant the packet reached the NIC (≤ `now` at poll time).
    pub delivered_at: SimTime,
}

/// Aggregate counters, used by tests and the figure harnesses to report
/// wire-level behaviour (e.g. "aggregation sent fewer, larger packets").
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorldStats {
    /// Wire packets sent in the whole world.
    pub packets_sent: u64,
    /// Wire payload bytes sent in the whole world.
    pub bytes_sent: u64,
    /// Number of CPU charges recorded.
    pub cpu_charges: u64,
    /// Total CPU time charged.
    pub cpu_time: SimDuration,
    /// Payload bytes carried per rail (multirail split diagnostics).
    pub per_rail_bytes: Vec<u64>,
}

#[derive(Debug)]
struct InFlight {
    deliver_at: SimTime,
    seq: u64,
    src: NodeId,
    payload: Vec<u8>,
}

// Order by delivery time, ties broken by global send sequence so
// delivery order is total and deterministic.
impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

#[derive(Debug, Default)]
struct RailState {
    tx_busy_until: SimTime,
    /// Cumulative wire occupancy of this transmit side (observability).
    tx_busy_total: SimDuration,
    inbox: BinaryHeap<Reverse<InFlight>>,
    pending_sends: FxHashMap<SendToken, SimTime>,
    failed: bool,
}

#[derive(Debug)]
struct NodeState {
    cpu_free_at: SimTime,
    rails: Vec<RailState>,
}

/// Lock-free mirror of the world state an idle poll reads.
///
/// A poll that finds nothing is the engine's most frequent operation:
/// the transfer layer keeps polling every NIC and asks its strategy for
/// a packet only when one goes idle (paper §3.3). `SimWorld` publishes
/// the three values that decide such a poll, and a driver answers from
/// them without the world lock:
///
/// * the clock, stored by [`SimWorld::advance`];
/// * per node × rail, the delivery instant of the inbox head, or
///   `u64::MAX` for an empty inbox, stored after every push, pop and
///   clear of that inbox;
/// * per node × rail, the instant the transmit side is free, stored by
///   every post; `0` once the rail failed, because a failed rail
///   reports idle to its driver.
///
/// Every store happens under the world lock, right after the state it
/// mirrors changed; DESIGN §4 argues why an answer read from the mirror
/// always equals the locked world's.
pub struct Readiness {
    rails: usize,
    now_ns: AtomicU64,
    rx_ready_at: Box<[AtomicU64]>,
    tx_free_at: Box<[AtomicU64]>,
}

impl Readiness {
    fn new(nodes: usize, rails: usize) -> Self {
        let slots = |init: u64| (0..nodes * rails).map(|_| AtomicU64::new(init)).collect();
        Readiness {
            rails,
            now_ns: AtomicU64::new(0),
            rx_ready_at: slots(u64::MAX),
            tx_free_at: slots(0),
        }
    }

    fn slot(&self, node: NodeId, rail: RailId) -> usize {
        node.index() * self.rails + rail.index()
    }

    /// Current virtual time, in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::Acquire)
    }

    /// Instant (ns) the next packet in `node`'s inbox on `rail` is due,
    /// or `u64::MAX` when the inbox is empty.
    pub fn rx_ready_at(&self, node: NodeId, rail: RailId) -> u64 {
        self.rx_ready_at[self.slot(node, rail)].load(Ordering::Acquire)
    }

    /// Instant (ns) `node`'s transmit side on `rail` is free; `0` once
    /// the rail failed.
    pub fn tx_free_at(&self, node: NodeId, rail: RailId) -> u64 {
        self.tx_free_at[self.slot(node, rail)].load(Ordering::Acquire)
    }
}

/// The simulated cluster. See the module documentation.
pub struct SimWorld {
    now: SimTime,
    host: HostModel,
    rails: Vec<NicModel>,
    nodes: Vec<NodeState>,
    next_seq: u64,
    /// Instants [`advance`](Self::advance) may stop at, earliest
    /// first. Duplicates and instants at or before `now` are skipped
    /// when popped.
    wakeups: BinaryHeap<Reverse<SimTime>>,
    stats: WorldStats,
    trace: Option<Trace>,
    ready: Arc<Readiness>,
}

impl SimWorld {
    /// Builds the cluster described by `config`, at time zero.
    pub fn new(config: SimConfig) -> Self {
        assert!(config.nodes >= 1, "need at least one node");
        assert!(!config.rails.is_empty(), "need at least one rail");
        let rail_count = config.rails.len();
        let ready = Arc::new(Readiness::new(config.nodes, rail_count));
        let nodes = (0..config.nodes)
            .map(|_| NodeState {
                cpu_free_at: SimTime::ZERO,
                rails: config.rails.iter().map(|_| RailState::default()).collect(),
            })
            .collect();
        SimWorld {
            now: SimTime::ZERO,
            host: config.host,
            rails: config.rails,
            nodes,
            next_seq: 0,
            wakeups: BinaryHeap::new(),
            stats: WorldStats {
                per_rail_bytes: vec![0; rail_count],
                ..WorldStats::default()
            },
            trace: None,
            ready,
        }
    }

    /// The lock-free mirror of the clock and of every rail's readiness,
    /// shared with the drivers.
    pub fn readiness(&self) -> Arc<Readiness> {
        Arc::clone(&self.ready)
    }

    /// Publishes the head of `node`'s inbox on `rail` to the mirror.
    fn publish_rx(&self, node: NodeId, rail: RailId) {
        let head = self.nodes[node.index()].rails[rail.index()]
            .inbox
            .peek()
            .map_or(u64::MAX, |Reverse(p)| p.deliver_at.as_ns());
        self.ready.rx_ready_at[self.ready.slot(node, rail)].store(head, Ordering::Release);
    }

    /// Publishes when `node`'s transmit side on `rail` is free.
    fn publish_tx(&self, node: NodeId, rail: RailId, free_at: SimTime) {
        self.ready.tx_free_at[self.ready.slot(node, rail)]
            .store(free_at.as_ns(), Ordering::Release);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Host (CPU/memcpy) model shared by all nodes.
    pub fn host(&self) -> &HostModel {
        &self.host
    }

    /// Node count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Rail count.
    pub fn rail_count(&self) -> usize {
        self.rails.len()
    }

    /// NIC model of a rail (panics on an unknown rail, which is a
    /// harness bug).
    pub fn rail_model(&self, rail: RailId) -> &NicModel {
        &self.rails[rail.index()]
    }

    /// Aggregate wire/CPU counters since construction.
    pub fn stats(&self) -> &WorldStats {
        &self.stats
    }

    /// Enables event tracing (tests use this to compare runs).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Trace::default());
    }

    /// Takes the accumulated trace, leaving tracing enabled.
    pub fn take_trace(&mut self) -> Trace {
        self.trace.replace(Trace::default()).unwrap_or_default()
    }

    fn record(&mut self, event: TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.push(self.now, event);
        }
    }

    /// Charges `dur` of CPU time to `node` and returns the instant the
    /// CPU becomes free again. Charges are serialized per node: the
    /// account never runs in the past.
    pub fn charge_cpu(&mut self, node: NodeId, dur: SimDuration) -> SimTime {
        if dur == SimDuration::ZERO {
            return self.nodes[node.index()].cpu_free_at.max(self.now);
        }
        let state = &mut self.nodes[node.index()];
        let start = state.cpu_free_at.max(self.now);
        state.cpu_free_at = start + dur;
        let free_at = state.cpu_free_at;
        self.wakeups.push(Reverse(free_at));
        self.stats.cpu_charges += 1;
        self.stats.cpu_time += dur;
        self.record(TraceEvent::CpuCharge { node, dur });
        free_at
    }

    /// Charges the CPU time of one memcpy of `bytes` bytes on `node`.
    pub fn charge_memcpy(&mut self, node: NodeId, bytes: usize) -> SimTime {
        let cost = self.host.memcpy_time(bytes);
        self.charge_cpu(node, cost)
    }

    /// Instant the node's CPU account is free (≥ `now` means busy).
    pub fn cpu_free_at(&self, node: NodeId) -> SimTime {
        self.nodes[node.index()].cpu_free_at
    }

    /// True when the rail's transmit side has no queued work — the
    /// trigger the NewMadeleine transfer layer uses to ask its scheduler
    /// for the next packet (§3.3). A failed NIC never reports idle.
    pub fn nic_idle(&self, node: NodeId, rail: RailId) -> bool {
        let state = &self.nodes[node.index()].rails[rail.index()];
        !state.failed && state.tx_busy_until <= self.now
    }

    /// Fails `node`'s NIC on `rail`: future sends are refused, its
    /// inbox is dropped, and packets still in flight towards it are
    /// lost (fault-injection for failover tests).
    pub fn fail_rail(&mut self, node: NodeId, rail: RailId) {
        let state = &mut self.nodes[node.index()].rails[rail.index()];
        state.failed = true;
        state.inbox.clear();
        self.publish_rx(node, rail);
        self.publish_tx(node, rail, SimTime::ZERO);
    }

    /// Whether `node`'s NIC on `rail` has been failed.
    pub fn rail_failed(&self, node: NodeId, rail: RailId) -> bool {
        self.nodes[node.index()].rails[rail.index()].failed
    }

    /// Instant the rail's transmit side drains, for diagnostics.
    pub fn nic_busy_until(&self, node: NodeId, rail: RailId) -> SimTime {
        self.nodes[node.index()].rails[rail.index()].tx_busy_until
    }

    /// Cumulative wire occupancy of `node`'s transmit side on `rail`
    /// since construction. Charged at post time for the whole frame, so
    /// it includes the tail of a transmission still in progress and may
    /// briefly exceed elapsed virtual time.
    pub fn nic_busy_total(&self, node: NodeId, rail: RailId) -> SimDuration {
        self.nodes[node.index()].rails[rail.index()].tx_busy_total
    }

    /// Records a strategy scheduling decision into the event trace
    /// (no-op while tracing is disabled). Scalar arguments keep this
    /// crate free of engine-layer types.
    pub fn record_strategy_decision(
        &mut self,
        node: NodeId,
        strategy: &'static str,
        entries: u32,
        reordered: u32,
    ) {
        self.record(TraceEvent::StrategyDecision {
            node,
            strategy,
            entries,
            reordered,
        });
    }

    /// Posts a send of `payload` from `src` to `dst` on `rail`.
    ///
    /// The post itself costs the NIC's `tx_overhead` of CPU on `src`;
    /// transmission starts once both the CPU charge and any earlier
    /// transmission on the same NIC have finished; the packet is
    /// delivered one `latency` after the wire drains. The returned
    /// token tests complete at the transmit end (sender buffer reuse
    /// point).
    pub fn post_send(
        &mut self,
        src: NodeId,
        rail: RailId,
        dst: NodeId,
        payload: Vec<u8>,
    ) -> SendToken {
        self.post_send_delayed(src, rail, dst, payload, SimDuration::ZERO)
    }

    /// Like [`post_send`](Self::post_send), but delivered `extra`
    /// later than the model's latency (fault-injected latency spike).
    /// The transmit side is unaffected: the wire occupancy and the
    /// sender's completion point are those of a normal send.
    pub fn post_send_delayed(
        &mut self,
        src: NodeId,
        rail: RailId,
        dst: NodeId,
        payload: Vec<u8>,
        extra: SimDuration,
    ) -> SendToken {
        assert!(src.index() < self.nodes.len(), "bad src {src}"); // PANIC-OK: simulator precondition; a sim panic is a test failure
        assert!(dst.index() < self.nodes.len(), "bad dst {dst}"); // PANIC-OK: simulator precondition; a sim panic is a test failure
        assert_ne!(
            // PANIC-OK: simulator precondition; a sim panic is a test failure
            src,
            dst,
            "self-send must be short-circuited above the driver"
        );
        let model = &self.rails[rail.index()];
        // PANIC-OK: simulator precondition; a sim panic is a test failure
        assert!(
            payload.len() <= model.mtu,
            "packet of {} bytes exceeds {} MTU ({})",
            payload.len(),
            model.name,
            model.mtu
        );

        let tx_overhead = model.tx_overhead;
        let wire = model.wire_time(payload.len());
        let latency = model.latency;

        // PANIC-OK: simulator precondition; a sim panic is a test failure
        assert!(
            !self.nodes[src.index()].rails[rail.index()].failed,
            "post_send on a failed rail (drivers must check rail_failed)"
        );
        let cpu_done = self.charge_cpu(src, tx_overhead);
        let rail_state = &mut self.nodes[src.index()].rails[rail.index()];
        let start = cpu_done.max(rail_state.tx_busy_until).max(self.now);
        let tx_end = start + wire;
        let deliver_at = tx_end + latency + extra;
        rail_state.tx_busy_until = tx_end;
        rail_state.tx_busy_total += wire;
        self.publish_tx(src, rail, tx_end);

        let token = SendToken(self.next_seq);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.nodes[src.index()].rails[rail.index()]
            .pending_sends
            .insert(token, tx_end);

        let bytes = payload.len();
        // A packet towards a failed receiver NIC is silently lost (the
        // sender completed locally, as on real hardware).
        if !self.nodes[dst.index()].rails[rail.index()].failed {
            self.nodes[dst.index()].rails[rail.index()]
                .inbox
                .push(Reverse(InFlight {
                    deliver_at,
                    seq,
                    src,
                    payload,
                }));
            self.publish_rx(dst, rail);
        }

        self.wakeups.push(Reverse(tx_end));
        self.wakeups.push(Reverse(deliver_at));
        self.stats.packets_sent += 1;
        self.stats.bytes_sent += bytes as u64;
        self.stats.per_rail_bytes[rail.index()] += bytes as u64;
        self.record(TraceEvent::Send {
            src,
            dst,
            rail,
            bytes,
            deliver_at,
        });
        token
    }

    /// True once the send has left the host (its token is consumed).
    /// Unknown tokens (already consumed) also report complete, so
    /// callers may poll idempotently.
    pub fn test_send(&mut self, node: NodeId, rail: RailId, token: SendToken) -> bool {
        let rail_state = &mut self.nodes[node.index()].rails[rail.index()];
        match rail_state.pending_sends.get(&token) {
            Some(&complete_at) if complete_at <= self.now => {
                rail_state.pending_sends.remove(&token);
                true
            }
            Some(_) => false,
            None => true,
        }
    }

    /// Pops the next delivered packet on `node`/`rail`, if any. Consuming
    /// the completion costs the NIC's `rx_overhead` of CPU.
    pub fn poll_recv(&mut self, node: NodeId, rail: RailId) -> Option<RxPacket> {
        let now = self.now;
        let rail_state = &mut self.nodes[node.index()].rails[rail.index()];
        let ready = matches!(rail_state.inbox.peek(), Some(Reverse(p)) if p.deliver_at <= now);
        if !ready {
            return None;
        }
        let Reverse(pkt) = self.nodes[node.index()].rails[rail.index()]
            .inbox
            .pop()
            .expect("peeked"); // PANIC-OK: peeked on the line above
        self.publish_rx(node, rail);
        let rx_overhead = self.rails[rail.index()].rx_overhead;
        self.charge_cpu(node, rx_overhead);
        self.record(TraceEvent::Deliver {
            dst: node,
            src: pkt.src,
            rail,
            bytes: pkt.payload.len(),
        });
        Some(RxPacket {
            src: pkt.src,
            payload: pkt.payload,
            delivered_at: pkt.deliver_at,
        })
    }

    /// Registers an extra wakeup so [`advance`](Self::advance) will not
    /// jump past `t` (engines use this for timer-like behaviour, e.g.
    /// flush-on-threshold strategies).
    pub fn schedule_wakeup(&mut self, t: SimTime) {
        if t > self.now {
            self.wakeups.push(Reverse(t));
        }
    }

    /// Advances the clock to the next pending event strictly after
    /// `now`. Returns the new time, or `None` when no event is pending
    /// (every queue drained — quiescence or deadlock, the caller knows
    /// which from its own state).
    pub fn advance(&mut self) -> Option<SimTime> {
        while let Some(Reverse(t)) = self.wakeups.pop() {
            if t > self.now {
                self.now = t;
                self.ready.now_ns.store(t.as_ns(), Ordering::Release);
                return Some(t);
            }
        }
        None
    }

    /// Human-readable snapshot of outstanding work, for deadlock
    /// reports.
    pub fn pending_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "sim time {}, pending state:", self.now);
        for (ni, node) in self.nodes.iter().enumerate() {
            for (ri, rail) in node.rails.iter().enumerate() {
                if rail.inbox.is_empty() && rail.pending_sends.is_empty() {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "  n{ni}/r{ri}: {} in-flight in, {} unconsumed send tokens, tx busy until {}",
                    rail.inbox.len(),
                    rail.pending_sends.len(),
                    rail.tx_busy_until,
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nic;

    fn world() -> SimWorld {
        SimWorld::new(SimConfig::two_nodes(nic::mx_myri10g()))
    }

    const R0: RailId = RailId(0);
    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);

    fn drain_to(world: &mut SimWorld, mut pred: impl FnMut(&mut SimWorld) -> bool) {
        for _ in 0..1000 {
            if pred(world) {
                return;
            }
            if world.advance().is_none() {
                panic!("no pending events; {}", world.pending_summary());
            }
        }
        panic!("predicate never satisfied");
    }

    #[test]
    fn packet_takes_expected_one_way_time() {
        let mut w = world();
        let nic = nic::mx_myri10g();
        let payload = vec![7u8; 1024];
        w.post_send(N0, R0, N1, payload.clone());
        drain_to(&mut w, |w| w.poll_recv(N1, R0).is_some());
        // poll consumed the packet at exactly the delivery instant
        let expected = nic.one_way_time(1024);
        assert_eq!(w.now().saturating_since(SimTime::ZERO), expected);
    }

    #[test]
    fn send_token_completes_at_tx_end_before_delivery() {
        let mut w = world();
        let token = w.post_send(N0, R0, N1, vec![0u8; 64 * 1024]);
        assert!(!w.test_send(N0, R0, token), "cannot complete at t=0");
        drain_to(&mut w, |w| w.test_send(N0, R0, token));
        let tx_done = w.now();
        drain_to(&mut w, |w| w.poll_recv(N1, R0).is_some());
        assert!(w.now() > tx_done, "delivery strictly after tx completion");
    }

    #[test]
    fn nic_serializes_back_to_back_sends() {
        let mut w = world();
        let bytes = 256 * 1024;
        w.post_send(N0, R0, N1, vec![1u8; bytes]);
        w.post_send(N0, R0, N1, vec![2u8; bytes]);
        let mut got = Vec::new();
        drain_to(&mut w, |w| {
            while let Some(p) = w.poll_recv(N1, R0) {
                got.push((w.now(), p));
            }
            got.len() == 2
        });
        let (t1, p1) = &got[0];
        let (t2, p2) = &got[1];
        assert_eq!(p1.payload[0], 1);
        assert_eq!(p2.payload[0], 2);
        // Second delivery is one wire-time later: the wire pipelines but
        // does not parallelize.
        let gap = t2.saturating_since(*t1);
        let wire = nic::mx_myri10g().wire_time(bytes);
        let slack = SimDuration::from_us(2);
        assert!(
            gap >= wire && gap <= wire + slack,
            "gap {gap} vs wire {wire}"
        );
    }

    #[test]
    fn rails_are_independent() {
        let mut w = SimWorld::new(SimConfig::two_nodes_multirail(vec![
            nic::mx_myri10g(),
            nic::quadrics_qm500(),
        ]));
        let bytes = 1 << 20;
        w.post_send(N0, RailId(0), N1, vec![0u8; bytes]);
        w.post_send(N0, RailId(1), N1, vec![0u8; bytes]);
        let mut done = [None, None];
        drain_to(&mut w, |w| {
            for (r, slot) in done.iter_mut().enumerate() {
                if slot.is_none() && w.poll_recv(N1, RailId(r as u16)).is_some() {
                    *slot = Some(w.now());
                }
            }
            done.iter().all(Option::is_some)
        });
        // Both transfers overlapped: total time is near max, not sum.
        let serial =
            nic::mx_myri10g().one_way_time(bytes) + nic::quadrics_qm500().one_way_time(bytes);
        assert!(w.now().saturating_since(SimTime::ZERO) < serial);
    }

    #[test]
    fn cpu_charges_serialize_per_node() {
        let mut w = world();
        let d = SimDuration::from_us(5);
        let f1 = w.charge_cpu(N0, d);
        let f2 = w.charge_cpu(N0, d);
        assert_eq!(f2.saturating_since(f1), d);
        // Other node unaffected.
        assert_eq!(w.cpu_free_at(N1), SimTime::ZERO);
    }

    #[test]
    fn cpu_charge_delays_transmission_start() {
        let mut w = world();
        let copy = SimDuration::from_us(100);
        w.charge_cpu(N0, copy);
        w.post_send(N0, R0, N1, vec![0u8; 4]);
        drain_to(&mut w, |w| w.poll_recv(N1, R0).is_some());
        let base = nic::mx_myri10g().one_way_time(4);
        assert_eq!(
            w.now().saturating_since(SimTime::ZERO),
            base + copy,
            "transmission must wait for the CPU account"
        );
    }

    #[test]
    fn advance_returns_none_when_quiescent() {
        let mut w = world();
        assert!(w.advance().is_none());
        w.post_send(N0, R0, N1, vec![0u8; 4]);
        while w.advance().is_some() {}
        assert!(w.poll_recv(N1, R0).is_some());
        // Consuming the delivery charges rx CPU, which schedules one
        // more wakeup; after draining it the world is quiescent.
        while w.advance().is_some() {}
        assert!(w.advance().is_none());
    }

    #[test]
    fn advance_visits_each_scheduled_instant_once() {
        let mut w = world();
        // Out of order, duplicated, and one instant 600 s ahead.
        let far = 600_000_000_000;
        for t in [5_000, 1_000, 2_000, far, 1_000, 5_000, 2_000] {
            w.schedule_wakeup(SimTime::from_ns(t));
        }
        let mut visited = Vec::new();
        while let Some(t) = w.advance() {
            visited.push(t.as_ns());
            // A wakeup at `now` must not stop the clock again.
            w.schedule_wakeup(t);
            if t.as_ns() == 1_000 {
                // Scheduled between pending instants, after a pop.
                w.schedule_wakeup(SimTime::from_ns(1_500));
            }
        }
        assert_eq!(visited, [1_000, 1_500, 2_000, 5_000, far]);
    }

    #[test]
    fn stats_count_packets_and_bytes() {
        let mut w = world();
        w.post_send(N0, R0, N1, vec![0u8; 100]);
        w.post_send(N1, R0, N0, vec![0u8; 28]);
        assert_eq!(w.stats().packets_sent, 2);
        assert_eq!(w.stats().bytes_sent, 128);
    }

    #[test]
    fn deliveries_preserve_post_order_on_one_link() {
        let mut w = world();
        for i in 0..10u8 {
            w.post_send(N0, R0, N1, vec![i; 8]);
        }
        let mut seen = Vec::new();
        drain_to(&mut w, |w| {
            while let Some(p) = w.poll_recv(N1, R0) {
                seen.push(p.payload[0]);
            }
            seen.len() == 10
        });
        assert_eq!(seen, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn mtu_is_enforced() {
        let mut w = SimWorld::new(SimConfig::two_nodes(nic::sisci_sci()));
        w.post_send(N0, R0, N1, vec![0u8; 128 * 1024]);
    }

    #[test]
    fn tx_busy_total_accumulates_wire_time() {
        let mut w = world();
        assert_eq!(w.nic_busy_total(N0, R0), SimDuration::ZERO);
        w.post_send(N0, R0, N1, vec![0u8; 1024]);
        let wire = nic::mx_myri10g().wire_time(1024);
        assert_eq!(w.nic_busy_total(N0, R0), wire);
        w.post_send(N0, R0, N1, vec![0u8; 1024]);
        assert_eq!(w.nic_busy_total(N0, R0), wire + wire);
        assert_eq!(w.nic_busy_total(N1, R0), SimDuration::ZERO);
    }

    #[test]
    fn strategy_decisions_enter_the_trace() {
        let mut w = world();
        w.record_strategy_decision(N0, "aggreg", 3, 0); // tracing off: dropped
        w.enable_trace();
        w.record_strategy_decision(N0, "aggreg", 8, 2);
        let t = w.take_trace();
        assert_eq!(t.decisions(), 1);
        assert_eq!(t.decision_entries_for(N0), 8);
        assert_eq!(t.decision_entries_for(N1), 0);
        assert_eq!(t.events()[0].kind_name(), "decision");
    }

    /// Asserts the readiness mirror equals the locked state it mirrors.
    fn assert_mirror(w: &SimWorld) -> Result<(), proptest::test_runner::TestCaseError> {
        let ready = w.readiness();
        proptest::prop_assert_eq!(ready.now_ns(), w.now.as_ns());
        for (n, node) in w.nodes.iter().enumerate() {
            for (r, rail) in node.rails.iter().enumerate() {
                let (id, rid) = (NodeId(n as u32), RailId(r as u16));
                let head = rail
                    .inbox
                    .peek()
                    .map_or(u64::MAX, |Reverse(p)| p.deliver_at.as_ns());
                proptest::prop_assert_eq!(ready.rx_ready_at(id, rid), head, "{}/{}", id, rid);
                let free = if rail.failed {
                    0
                } else {
                    rail.tx_busy_until.as_ns()
                };
                proptest::prop_assert_eq!(ready.tx_free_at(id, rid), free, "{}/{}", id, rid);
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 64,
            ..proptest::test_runner::ProptestConfig::default()
        })]

        /// Every push, pop and clear of an inbox, every post and every
        /// clock move leaves the mirror equal to the locked state.
        #[test]
        fn readiness_mirrors_every_state_change(
            ops in proptest::collection::vec((0u8..4, 0u32..3, 1u32..3, 0u16..2, 0usize..20_000), 1..200)
        ) {
            let mut w = SimWorld::new(SimConfig {
                nodes: 3,
                ..SimConfig::two_nodes_multirail(vec![nic::mx_myri10g(), nic::quadrics_qm500()])
            });
            assert_mirror(&w)?;
            for (kind, node, hop, rail, len) in ops {
                let (id, rid) = (NodeId(node), RailId(rail));
                match kind {
                    0 if !w.rail_failed(id, rid) => {
                        w.post_send(id, rid, NodeId((node + hop) % 3), vec![0u8; len]);
                    }
                    1 => {
                        w.advance();
                    }
                    2 => {
                        w.poll_recv(id, rid);
                    }
                    3 if len < 1_000 => w.fail_rail(id, rid),
                    _ => {}
                }
                assert_mirror(&w)?;
            }
        }
    }

    #[test]
    fn trace_records_send_and_delivery() {
        let mut w = world();
        w.enable_trace();
        w.post_send(N0, R0, N1, vec![0u8; 16]);
        drain_to(&mut w, |w| w.poll_recv(N1, R0).is_some());
        let trace = w.take_trace();
        let kinds: Vec<_> = trace.events().iter().map(|e| e.kind_name()).collect();
        assert!(kinds.contains(&"send"), "{kinds:?}");
        assert!(kinds.contains(&"deliver"), "{kinds:?}");
    }
}
