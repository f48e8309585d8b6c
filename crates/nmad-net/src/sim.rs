//! Simulated drivers: bind one node × rail of a
//! [`nmad_sim::SimWorld`] to the [`Driver`] trait.
//!
//! One `SimDriver` plays the role of the MX, Elan, GM or SISCI transfer
//! module of the paper, depending on the NIC model the rail was
//! configured with. Gather sends are free up to the hardware's gather
//! capability (the card DMA-gathers); the corresponding [`SimCpuMeter`]
//! charges staging copies and software costs to the node's virtual CPU
//! account.
//!
//! A poll that finds nothing takes no world lock: `poll_recv`,
//! `tx_idle` and `test_send` first read the world's [`Readiness`]
//! mirror, and lock only to pop a packet that is due or to consume a
//! finished send token.

use std::sync::Arc;

use crate::driver::{
    Capabilities, CpuMeter, Driver, LinkStats, NetError, NetResult, RxFrame, SendHandle,
    StrategyDecision,
};
use crate::fault::{FaultInjector, FaultPlan, FaultStats, FaultVerdict};
use nmad_sim::{
    FxHashMap, NodeId, RailId, Readiness, SendToken, SharedWorld, SimDuration, SimTime,
};

/// A [`Driver`] over one rail of a shared simulated world.
pub struct SimDriver {
    world: SharedWorld,
    ready: Arc<Readiness>,
    node: NodeId,
    rail: RailId,
    caps: Capabilities,
    gather_entry_overhead: SimDuration,
    next_handle: u64,
    /// Each send's world token beside its transmit-end instant (ns):
    /// until the clock reaches it, testing the send needs no lock.
    tokens: FxHashMap<SendHandle, (SendToken, u64)>,
    faults: Option<FaultInjector>,
}

impl SimDriver {
    /// Binds `node`'s NIC on `rail`.
    pub fn new(world: SharedWorld, node: NodeId, rail: RailId) -> Self {
        let (caps, gather_entry_overhead, ready) = {
            let w = world.lock();
            assert!(node.index() < w.node_count(), "unknown node {node}");
            let model = w.rail_model(rail);
            (
                Capabilities::from_nic(model),
                model.gather_entry_overhead,
                w.readiness(),
            )
        };
        SimDriver {
            world,
            ready,
            node,
            rail,
            caps,
            gather_entry_overhead,
            next_handle: 0,
            tokens: FxHashMap::default(),
            faults: None,
        }
    }

    /// One driver per rail for `node` — the multi-NIC endpoint of the
    /// multirail experiments.
    pub fn all_rails(world: &SharedWorld, node: NodeId) -> Vec<SimDriver> {
        let rails = world.lock().rail_count();
        (0..rails)
            .map(|r| SimDriver::new(world.clone(), node, RailId(r as u16)))
            .collect()
    }

    /// Rail (NIC index) the event occurred on.
    pub fn rail(&self) -> RailId {
        self.rail
    }

    /// A meter charging this node's virtual CPU account.
    pub fn meter(&self) -> SimCpuMeter {
        SimCpuMeter {
            world: self.world.clone(),
            node: self.node,
        }
    }
}

impl Driver for SimDriver {
    fn caps(&self) -> &Capabilities {
        &self.caps
    }

    fn local_node(&self) -> NodeId {
        self.node
    }

    fn threaded_progress_safe(&self) -> bool {
        // Virtual time advances only through the co-simulation loop on
        // the application thread; a background pump would deadlock (or
        // worse, desynchronise) the discrete-event world.
        false
    }

    fn post_send(&mut self, dst: NodeId, iov: &[&[u8]]) -> NetResult<SendHandle> {
        // One world lock for the whole post: the failed-rail check, the
        // gather charge, the fault plan's clock and the post itself.
        let mut w = self.world.lock();
        if w.rail_failed(self.node, self.rail) {
            return Err(NetError::Closed);
        }
        if iov.len() > self.caps.gather_max_segs {
            return Err(NetError::TooManySegments {
                got: iov.len(),
                max: self.caps.gather_max_segs,
            });
        }
        let len: usize = iov.iter().map(|s| s.len()).sum();
        if len > self.caps.mtu {
            return Err(NetError::FrameTooLarge {
                len,
                mtu: self.caps.mtu,
            });
        }
        // The card gathers: assembly costs no memcpy, only the per-
        // descriptor DMA setup the firmware charges for each gather
        // entry beyond the first (the paper's MX model). Single-segment
        // posts pay nothing extra. Charged before the post's own
        // `tx_overhead`, so the CPU account serializes them in that
        // order.
        if iov.len() > 1 && self.gather_entry_overhead > SimDuration::ZERO {
            let extra =
                SimDuration::from_ns(self.gather_entry_overhead.as_ns() * (iov.len() as u64 - 1));
            w.charge_cpu(self.node, extra);
        }
        let mut frame = Vec::with_capacity(len);
        for seg in iov {
            frame.extend_from_slice(seg);
        }
        // An installed fault plan judges the frame just before the wire.
        let mut extra_delay = SimDuration::ZERO;
        if let Some(inj) = &mut self.faults {
            match inj.on_post(w.now().as_ns(), &mut frame) {
                FaultVerdict::Dead => {
                    // The NIC died: tear the rail down in the world so
                    // every layer (tx_idle, future posts, in-flight
                    // delivery) sees the same death, and refuse.
                    w.fail_rail(self.node, self.rail);
                    return Err(NetError::Closed);
                }
                FaultVerdict::Drop => {
                    // Swallow the frame but report a completed send:
                    // a handle with no token tests complete at once.
                    let handle = SendHandle(self.next_handle);
                    self.next_handle += 1;
                    return Ok(handle);
                }
                FaultVerdict::Deliver { extra_delay_ns } => {
                    extra_delay = SimDuration::from_ns(extra_delay_ns);
                }
            }
        }
        let token = w.post_send_delayed(self.node, self.rail, dst, frame, extra_delay);
        // The post just moved this transmit side's busy horizon to the
        // frame's transmit end: the instant its token completes.
        let tx_end = w.nic_busy_until(self.node, self.rail).as_ns();
        drop(w);
        let handle = SendHandle(self.next_handle);
        self.next_handle += 1;
        self.tokens.insert(handle, (token, tx_end));
        Ok(handle)
    }

    fn test_send(&mut self, handle: SendHandle) -> NetResult<bool> {
        match self.tokens.get(&handle) {
            None => Ok(true), // already completed and consumed
            // Still on the wire: the world would answer false.
            Some(&(_, tx_end)) if tx_end > self.ready.now_ns() => Ok(false),
            Some(&(token, _)) => {
                let done = self.world.lock().test_send(self.node, self.rail, token);
                if done {
                    self.tokens.remove(&handle);
                }
                Ok(done)
            }
        }
    }

    fn poll_recv(&mut self) -> NetResult<Option<RxFrame>> {
        // Nothing due yet: the world would find nothing either.
        if self.ready.rx_ready_at(self.node, self.rail) > self.ready.now_ns() {
            return Ok(None);
        }
        Ok(self
            .world
            .lock()
            .poll_recv(self.node, self.rail)
            .map(|p| RxFrame {
                src: p.src,
                payload: p.payload.into(),
            }))
    }

    fn tx_idle(&self) -> bool {
        // A failed rail reports idle so the engine probes it, receives
        // `Closed` from post_send, and marks the NIC dead (failover
        // discovery); the simulator's own `nic_idle` stays false for
        // failed rails, but its mirror publishes a failed rail as free
        // from time zero.
        self.ready.tx_free_at(self.node, self.rail) <= self.ready.now_ns()
    }

    fn link_stats(&self) -> LinkStats {
        let w = self.world.lock();
        let busy_ns = w.nic_busy_total(self.node, self.rail).as_ns();
        let elapsed_ns = w.now().saturating_since(SimTime::ZERO).as_ns();
        LinkStats {
            busy_ns,
            // Busy time is charged at post time for the whole frame, so
            // it can briefly run ahead of the clock; saturate.
            idle_ns: elapsed_ns.saturating_sub(busy_ns),
            retransmits: 0,
            acks: 0,
        }
    }

    fn install_faults(&mut self, plan: FaultPlan) -> bool {
        self.faults = Some(FaultInjector::new(plan));
        true
    }

    fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|f| f.stats()).unwrap_or_default()
    }
}

/// [`CpuMeter`] charging a node's virtual CPU account.
pub struct SimCpuMeter {
    world: SharedWorld,
    node: NodeId,
}

impl SimCpuMeter {
    /// A meter bound to `node` of `world`.
    pub fn new(world: SharedWorld, node: NodeId) -> Self {
        SimCpuMeter { world, node }
    }
}

impl CpuMeter for SimCpuMeter {
    fn charge_ns(&mut self, ns: u64) {
        if ns > 0 {
            self.world
                .lock()
                .charge_cpu(self.node, SimDuration::from_ns(ns));
        }
    }

    fn charge_memcpy(&mut self, bytes: usize) {
        if bytes > 0 {
            self.world.lock().charge_memcpy(self.node, bytes);
        }
    }

    fn note_decision(&mut self, decision: &StrategyDecision) {
        self.world.lock().record_strategy_decision(
            self.node,
            decision.strategy,
            decision.entries,
            decision.reordered,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmad_sim::{nic, shared_world, SimConfig};

    fn pair() -> (SharedWorld, SimDriver, SimDriver) {
        let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
        let a = SimDriver::new(world.clone(), NodeId(0), RailId(0));
        let b = SimDriver::new(world.clone(), NodeId(1), RailId(0));
        (world, a, b)
    }

    fn settle(world: &SharedWorld) {
        while world.lock().advance().is_some() {}
    }

    #[test]
    fn gather_send_concatenates_segments() {
        let (world, mut a, mut b) = pair();
        a.post_send(NodeId(1), &[b"hello ", b"gather ", b"world"])
            .unwrap();
        settle(&world);
        let frame = b.poll_recv().unwrap().expect("frame delivered");
        assert_eq!(frame.src, NodeId(0));
        assert_eq!(frame.payload, b"hello gather world");
    }

    #[test]
    fn gather_limit_is_enforced() {
        let world = shared_world(SimConfig::two_nodes(nic::gm_myrinet2000()));
        let mut a = SimDriver::new(world, NodeId(0), RailId(0));
        // GM has no hardware gather (max 1 segment).
        let err = a.post_send(NodeId(1), &[b"a", b"b"]).unwrap_err();
        assert!(matches!(err, NetError::TooManySegments { max: 1, .. }));
    }

    #[test]
    fn multi_segment_posts_charge_gather_dma_setup() {
        let (world, mut a, _b) = pair();
        a.post_send(NodeId(1), &[b"one"]).unwrap();
        let single = world.lock().cpu_free_at(NodeId(0));
        a.post_send(NodeId(1), &[b"hd", b"p1", b"p2"]).unwrap();
        let multi = world.lock().cpu_free_at(NodeId(0));
        let model = nic::mx_myri10g();
        let expected = model.tx_overhead.as_ns() + 2 * model.gather_entry_overhead.as_ns();
        assert_eq!(multi.saturating_since(single).as_ns(), expected);
    }

    #[test]
    fn send_handle_completion_is_idempotent() {
        let (world, mut a, _b) = pair();
        let h = a.post_send(NodeId(1), &[b"x"]).unwrap();
        assert!(!a.test_send(h).unwrap());
        settle(&world);
        assert!(a.test_send(h).unwrap());
        assert!(a.test_send(h).unwrap(), "re-testing stays true");
    }

    #[test]
    fn tx_idle_tracks_wire_occupancy() {
        let (world, mut a, _b) = pair();
        assert!(a.tx_idle());
        a.post_send(NodeId(1), &[&vec![0u8; 1 << 20]]).unwrap();
        assert!(!a.tx_idle(), "large frame occupies the wire");
        settle(&world);
        assert!(a.tx_idle());
    }

    #[test]
    fn meter_charges_virtual_cpu() {
        let (world, a, _b) = pair();
        let before = world.lock().cpu_free_at(NodeId(0));
        a.meter().charge_memcpy(1 << 20);
        let after = world.lock().cpu_free_at(NodeId(0));
        assert!(after > before);
        // zero-byte copies are free
        a.meter().charge_memcpy(0);
        assert_eq!(world.lock().cpu_free_at(NodeId(0)), after);
    }

    #[test]
    fn link_stats_split_busy_and_idle_time() {
        let (world, mut a, _b) = pair();
        assert_eq!(a.link_stats(), LinkStats::default());
        a.post_send(NodeId(1), &[&vec![0u8; 1 << 20]]).unwrap();
        settle(&world);
        let stats = a.link_stats();
        assert!(stats.busy_ns > 0, "wire time must be accounted");
        assert!(stats.idle_ns > 0, "latency tail counts as idle");
        let elapsed = world
            .lock()
            .now()
            .saturating_since(nmad_sim::SimTime::ZERO)
            .as_ns();
        assert_eq!(stats.busy_ns + stats.idle_ns, elapsed);
    }

    #[test]
    fn meter_forwards_decisions_to_the_trace() {
        let (world, a, _b) = pair();
        world.lock().enable_trace();
        a.meter().note_decision(&StrategyDecision {
            strategy: "aggreg",
            entries: 5,
            data_entries: 4,
            rts_entries: 1,
            cts_entries: 0,
            chunk_entries: 0,
            reordered: 2,
        });
        let trace = world.lock().take_trace();
        assert_eq!(trace.decisions(), 1);
        assert_eq!(trace.decision_entries_for(NodeId(0)), 5);
    }

    #[test]
    fn fault_drop_swallows_the_frame_but_completes_the_send() {
        let (world, mut a, mut b) = pair();
        assert!(a.install_faults(FaultPlan::new(1).link_down(0, u64::MAX)));
        let h = a.post_send(NodeId(1), &[b"vanishes"]).unwrap();
        assert!(a.test_send(h).unwrap(), "dropped sends complete at once");
        settle(&world);
        assert!(b.poll_recv().unwrap().is_none(), "frame must be swallowed");
        assert_eq!(a.fault_stats().link_down_drops, 1);
    }

    #[test]
    fn fault_death_tears_the_rail_down() {
        let (world, mut a, _b) = pair();
        assert!(a.install_faults(FaultPlan::new(1).nic_death(0)));
        let err = a.post_send(NodeId(1), &[b"x"]).unwrap_err();
        assert!(matches!(err, NetError::Closed));
        assert!(world.lock().rail_failed(NodeId(0), RailId(0)));
        // Subsequent posts are refused by the failed rail itself.
        let err = a.post_send(NodeId(1), &[b"y"]).unwrap_err();
        assert!(matches!(err, NetError::Closed));
        assert_eq!(a.fault_stats().dead_posts, 1);
    }

    #[test]
    fn fault_latency_spike_delays_delivery() {
        let (world, mut a, mut b) = pair();
        let extra = 10_000_000;
        assert!(a.install_faults(FaultPlan::new(1).latency_spike(0, u64::MAX, extra)));
        a.post_send(NodeId(1), &[b"slow"]).unwrap();
        let mut delivered_at = None;
        for _ in 0..64 {
            if let Some(_f) = b.poll_recv().unwrap() {
                delivered_at = Some(world.lock().now().as_ns());
                break;
            }
            if world.lock().advance().is_none() {
                break;
            }
        }
        let at = delivered_at.expect("frame still delivered");
        assert!(at >= extra, "delivery at {at} ns, expected ≥ {extra} ns");
        assert_eq!(a.fault_stats().delayed, 1);
    }

    #[test]
    fn all_rails_builds_one_driver_per_rail() {
        let world = shared_world(SimConfig::two_nodes_multirail(vec![
            nic::mx_myri10g(),
            nic::quadrics_qm500(),
        ]));
        let drivers = SimDriver::all_rails(&world, NodeId(0));
        assert_eq!(drivers.len(), 2);
        assert_eq!(drivers[0].caps().name, "MX/Myri-10G");
        assert_eq!(drivers[1].caps().name, "Elan/QM500");
    }
}

/// The readiness mirror against the locked world: two identical worlds
/// run one random sequence of operations, one through `SimDriver`s
/// (which answer idle polls from the mirror) and one through
/// `SimWorld`'s locked methods; every answer must agree.
#[cfg(test)]
mod mirror {
    use super::*;
    use nmad_sim::{nic, shared_world, SimConfig};
    use proptest::prelude::*;

    const NODES: u32 = 3;
    const RAILS: u16 = 2;

    #[derive(Clone, Debug)]
    enum Op {
        /// `segs` gather segments of `len` bytes in total from `src` to
        /// the `hop`-th node after it, on `rail`.
        Post {
            src: u32,
            hop: u32,
            rail: u16,
            len: usize,
            segs: usize,
        },
        Advance,
        Poll {
            node: u32,
            rail: u16,
        },
        /// Tests the `pick`-th posted send (modulo the count).
        Test {
            pick: usize,
        },
        Fail {
            node: u32,
            rail: u16,
        },
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            6 => (0..NODES, 1..NODES, 0..RAILS, 0usize..20_000, 1usize..4).prop_map(
                |(src, hop, rail, len, segs)| Op::Post { src, hop, rail, len, segs }
            ),
            5 => Just(Op::Advance),
            5 => (0..NODES, 0..RAILS).prop_map(|(node, rail)| Op::Poll { node, rail }),
            3 => (0usize..64).prop_map(|pick| Op::Test { pick }),
            1 => (0..NODES, 0..RAILS).prop_map(|(node, rail)| Op::Fail { node, rail }),
        ]
    }

    fn config() -> SimConfig {
        SimConfig {
            nodes: NODES as usize,
            ..SimConfig::two_nodes_multirail(vec![nic::mx_myri10g(), nic::quadrics_qm500()])
        }
    }

    /// `len` bytes tagged with `tag`, cut into `segs` gather segments.
    fn segments(len: usize, segs: usize, tag: u8) -> Vec<Vec<u8>> {
        let payload: Vec<u8> = (0..len).map(|i| tag.wrapping_add(i as u8)).collect();
        let cut = len / segs;
        (0..segs)
            .map(|k| {
                let end = if k + 1 == segs { len } else { (k + 1) * cut };
                payload[k * cut..end].to_vec()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        #[test]
        fn mirror_answers_equal_the_locked_world(ops in proptest::collection::vec(op(), 1..160)) {
            let wd = shared_world(config());
            let wl = shared_world(config());
            let ready = wd.lock().readiness();
            let mut drivers: Vec<Vec<SimDriver>> = (0..NODES)
                .map(|n| SimDriver::all_rails(&wd, NodeId(n)))
                .collect();
            let mut sends: Vec<(NodeId, RailId, SendHandle, SendToken)> = Vec::new();

            for (step, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Post { src, hop, rail, len, segs } => {
                        let (s, r) = (NodeId(src), RailId(rail));
                        let dst = NodeId((src + hop) % NODES);
                        let parts = segments(len, segs, step as u8);
                        let iov: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
                        let got = drivers[src as usize][rail as usize].post_send(dst, &iov);
                        let mut w = wl.lock();
                        if w.rail_failed(s, r) {
                            prop_assert!(matches!(got, Err(NetError::Closed)), "step {step}");
                            continue;
                        }
                        let handle = got.expect("a live rail accepts the post");
                        // The driver charges the gather entries beyond the
                        // first ahead of the post's own overhead.
                        let gather = w.rail_model(r).gather_entry_overhead.as_ns();
                        if segs > 1 {
                            w.charge_cpu(s, SimDuration::from_ns(gather * (segs as u64 - 1)));
                        }
                        let token = w.post_send(s, r, dst, parts.concat());
                        sends.push((s, r, handle, token));
                    }
                    Op::Advance => {
                        let d = wd.lock().advance();
                        prop_assert_eq!(d, wl.lock().advance(), "step {}", step);
                    }
                    Op::Poll { node, rail } => {
                        let d = drivers[node as usize][rail as usize]
                            .poll_recv()
                            .unwrap()
                            .map(|f| (f.src, f.payload.to_vec()));
                        let l = wl
                            .lock()
                            .poll_recv(NodeId(node), RailId(rail))
                            .map(|p| (p.src, p.payload));
                        prop_assert_eq!(d, l, "step {}", step);
                    }
                    Op::Test { pick } => {
                        if sends.is_empty() {
                            continue;
                        }
                        let (node, rail, handle, token) = sends[pick % sends.len()];
                        let d = drivers[node.index()][rail.index()].test_send(handle).unwrap();
                        prop_assert_eq!(d, wl.lock().test_send(node, rail, token), "step {}", step);
                    }
                    Op::Fail { node, rail } => {
                        wd.lock().fail_rail(NodeId(node), RailId(rail));
                        wl.lock().fail_rail(NodeId(node), RailId(rail));
                    }
                }

                {
                    let (d, l) = (wd.lock(), wl.lock());
                    prop_assert_eq!(d.now(), l.now(), "step {}", step);
                    prop_assert_eq!(d.stats(), l.stats(), "step {}", step);
                    prop_assert_eq!(d.pending_summary(), l.pending_summary(), "step {}", step);
                }
                // `wd` stays unlocked while its drivers answer: an answer
                // may take the world lock.
                let l = wl.lock();
                prop_assert_eq!(ready.now_ns(), l.now().as_ns(), "step {}", step);
                for n in 0..NODES {
                    for r in 0..RAILS {
                        let (node, rail) = (NodeId(n), RailId(r));
                        let idle = drivers[n as usize][r as usize].tx_idle();
                        let failed = l.rail_failed(node, rail);
                        prop_assert_eq!(
                            idle,
                            failed || l.nic_idle(node, rail),
                            "step {}: tx_idle of {}/{}", step, node, rail
                        );
                        if failed {
                            prop_assert!(idle, "step {step}: failed {node}/{rail} must read idle");
                            prop_assert_eq!(
                                ready.rx_ready_at(node, rail),
                                u64::MAX,
                                "step {}: failed {}/{} must read an empty inbox", step, node, rail
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn failed_rails_read_idle_and_empty_from_the_mirror() {
        let world = shared_world(config());
        let ready = world.lock().readiness();
        let mut a = SimDriver::new(world.clone(), NodeId(0), RailId(0));
        let mut b = SimDriver::new(world.clone(), NodeId(1), RailId(0));
        a.post_send(NodeId(1), &[&vec![0u8; 1 << 20]]).unwrap();
        assert!(!a.tx_idle(), "a large frame occupies the wire");
        assert_ne!(ready.rx_ready_at(NodeId(1), RailId(0)), u64::MAX);

        // The receiver dies with the frame in flight: its inbox drops.
        world.lock().fail_rail(NodeId(1), RailId(0));
        assert_eq!(ready.rx_ready_at(NodeId(1), RailId(0)), u64::MAX);
        // A frame sent to the dead receiver is lost, not queued.
        a.post_send(NodeId(1), &[b"lost"]).unwrap();
        assert_eq!(ready.rx_ready_at(NodeId(1), RailId(0)), u64::MAX);
        while world.lock().advance().is_some() {}
        assert!(b.poll_recv().unwrap().is_none());

        // The sender dies mid-frame: it reads idle at once, so the
        // engine probes it and learns of the death from post_send.
        a.post_send(NodeId(1), &[&vec![0u8; 1 << 20]]).unwrap();
        assert!(!a.tx_idle());
        world.lock().fail_rail(NodeId(0), RailId(0));
        assert!(a.tx_idle(), "a failed rail reports idle");
        assert!(matches!(
            a.post_send(NodeId(1), &[b"x"]),
            Err(NetError::Closed)
        ));
    }
}
