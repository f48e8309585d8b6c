//! Simulated drivers: bind one node × rail of a [`SimWorld`] to the
//! [`Driver`] trait.
//!
//! One `SimDriver` plays the role of the MX, Elan, GM or SISCI transfer
//! module of the paper, depending on the NIC model the rail was
//! configured with. Gather sends are free up to the hardware's gather
//! capability (the card DMA-gathers); the corresponding [`SimCpuMeter`]
//! charges staging copies and software costs to the node's virtual CPU
//! account.

use crate::driver::{
    Capabilities, CpuMeter, Driver, LinkStats, NetError, NetResult, RxFrame, SendHandle,
    StrategyDecision,
};
use crate::fault::{FaultInjector, FaultPlan, FaultStats, FaultVerdict};
use nmad_sim::{FxHashMap, NodeId, RailId, SendToken, SharedWorld, SimDuration, SimTime};

/// A [`Driver`] over one rail of a shared simulated world.
pub struct SimDriver {
    world: SharedWorld,
    node: NodeId,
    rail: RailId,
    caps: Capabilities,
    gather_entry_overhead: SimDuration,
    next_handle: u64,
    tokens: FxHashMap<SendHandle, SendToken>,
    faults: Option<FaultInjector>,
}

impl SimDriver {
    /// Binds `node`'s NIC on `rail`.
    pub fn new(world: SharedWorld, node: NodeId, rail: RailId) -> Self {
        let (caps, gather_entry_overhead) = {
            let w = world.lock();
            assert!(node.index() < w.node_count(), "unknown node {node}");
            let model = w.rail_model(rail);
            (Capabilities::from_nic(model), model.gather_entry_overhead)
        };
        SimDriver {
            world,
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
        if self.world.lock().rail_failed(self.node, self.rail) {
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
        // posts pay nothing extra.
        if iov.len() > 1 && self.gather_entry_overhead > SimDuration::ZERO {
            let extra =
                SimDuration::from_ns(self.gather_entry_overhead.as_ns() * (iov.len() as u64 - 1));
            self.world.lock().charge_cpu(self.node, extra);
        }
        let mut frame = Vec::with_capacity(len);
        for seg in iov {
            frame.extend_from_slice(seg);
        }
        // An installed fault plan judges the frame just before the wire.
        let mut extra_delay = SimDuration::ZERO;
        if let Some(inj) = &mut self.faults {
            let now_ns = self.world.lock().now().as_ns();
            match inj.on_post(now_ns, &mut frame) {
                FaultVerdict::Dead => {
                    // The NIC died: tear the rail down in the world so
                    // every layer (tx_idle, future posts, in-flight
                    // delivery) sees the same death, and refuse.
                    self.world.lock().fail_rail(self.node, self.rail);
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
        let token =
            self.world
                .lock()
                .post_send_delayed(self.node, self.rail, dst, frame, extra_delay);
        let handle = SendHandle(self.next_handle);
        self.next_handle += 1;
        self.tokens.insert(handle, token);
        Ok(handle)
    }

    fn test_send(&mut self, handle: SendHandle) -> NetResult<bool> {
        match self.tokens.get(&handle) {
            None => Ok(true), // already completed and consumed
            Some(&token) => {
                let done = self.world.lock().test_send(self.node, self.rail, token);
                if done {
                    self.tokens.remove(&handle);
                }
                Ok(done)
            }
        }
    }

    fn poll_recv(&mut self) -> NetResult<Option<RxFrame>> {
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
        // failed rails.
        let w = self.world.lock();
        w.rail_failed(self.node, self.rail) || w.nic_idle(self.node, self.rail)
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
