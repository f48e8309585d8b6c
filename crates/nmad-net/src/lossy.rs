//! Deterministic frame-loss injection.
//!
//! Wraps any [`Driver`] and silently drops a seeded, reproducible
//! subset of outgoing frames — the harness for exercising
//! [`ReliableDriver`](crate::reliable::ReliableDriver) and for testing
//! how engines behave over unreliable datagram fabrics (the paper's
//! networks are lossless; plain Ethernet is not).

use crate::driver::{Capabilities, Driver, LinkStats, NetResult, RxFrame, SendHandle};
use crate::fault::{DetRng, FaultPlan, FaultStats};
use nmad_sim::NodeId;

/// Dropped sends get handles with this bit set so `test_send` can
/// report them complete without consulting the inner driver.
const DROPPED_BIT: u64 = 1 << 63;

/// Loss-injection statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LossStats {
    /// Frames passed through to the inner driver.
    pub passed: u64,
    /// Frames silently dropped.
    pub dropped: u64,
}

/// See the module documentation.
pub struct LossyDriver<D> {
    inner: D,
    rng: DetRng,
    loss_probability: f64,
    stats: LossStats,
}

impl<D: Driver> LossyDriver<D> {
    /// Drops each outgoing frame independently with `loss_probability`,
    /// reproducibly from `seed`.
    pub fn new(inner: D, loss_probability: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&loss_probability),
            "loss probability must be in [0, 1)"
        );
        LossyDriver {
            inner,
            rng: DetRng::new(seed),
            loss_probability,
            stats: LossStats::default(),
        }
    }

    /// Loss counters so far.
    pub fn stats(&self) -> LossStats {
        self.stats
    }

    /// The wrapped driver.
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<D: Driver> Driver for LossyDriver<D> {
    fn caps(&self) -> &Capabilities {
        self.inner.caps()
    }

    fn local_node(&self) -> NodeId {
        self.inner.local_node()
    }

    fn post_send(&mut self, dst: NodeId, iov: &[&[u8]]) -> NetResult<SendHandle> {
        if self.rng.next_unit() < self.loss_probability {
            self.stats.dropped += 1;
            // The frame vanishes on the wire; locally it "completed".
            return Ok(SendHandle(DROPPED_BIT | self.stats.dropped));
        }
        self.stats.passed += 1;
        self.inner.post_send(dst, iov)
    }

    fn test_send(&mut self, handle: SendHandle) -> NetResult<bool> {
        if handle.0 & DROPPED_BIT != 0 {
            return Ok(true);
        }
        self.inner.test_send(handle)
    }

    fn poll_recv(&mut self) -> NetResult<Option<RxFrame>> {
        self.inner.poll_recv()
    }

    fn tx_idle(&self) -> bool {
        self.inner.tx_idle()
    }

    fn pump(&mut self) -> NetResult<()> {
        self.inner.pump()
    }

    fn link_stats(&self) -> LinkStats {
        self.inner.link_stats()
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
    use crate::mem::mem_fabric;

    #[test]
    fn zero_probability_drops_nothing() {
        let mut fabric = mem_fabric(2);
        let b = fabric.pop().expect("pair");
        let a = fabric.pop().expect("pair");
        let mut lossy = LossyDriver::new(a, 0.0, 7);
        for _ in 0..50 {
            lossy.post_send(NodeId(1), &[b"x"]).unwrap();
        }
        assert_eq!(
            lossy.stats(),
            LossStats {
                passed: 50,
                dropped: 0
            }
        );
        drop(b);
    }

    #[test]
    fn losses_are_deterministic_for_a_seed() {
        let run = |seed: u64| {
            let mut fabric = mem_fabric(2);
            let _b = fabric.pop();
            let a = fabric.pop().expect("pair");
            let mut lossy = LossyDriver::new(a, 0.3, seed);
            let mut pattern = Vec::new();
            for _ in 0..100 {
                let before = lossy.stats().dropped;
                lossy.post_send(NodeId(1), &[b"y"]).unwrap();
                pattern.push(lossy.stats().dropped > before);
            }
            (pattern, lossy.stats())
        };
        let (p1, s1) = run(42);
        let (p2, s2) = run(42);
        assert_eq!(p1, p2);
        assert_eq!(s1, s2);
        let (p3, _) = run(43);
        assert_ne!(p1, p3, "different seeds give different loss patterns");
        // Roughly 30% loss.
        assert!((15..=45).contains(&(s1.dropped as usize)), "{s1:?}");
    }

    #[test]
    fn dropped_frames_never_arrive_and_handles_complete() {
        let mut fabric = mem_fabric(2);
        let mut b = fabric.pop().expect("pair");
        let a = fabric.pop().expect("pair");
        let mut lossy = LossyDriver::new(a, 0.5, 99);
        let mut handles = Vec::new();
        for i in 0..40u8 {
            handles.push(lossy.post_send(NodeId(1), &[&[i]]).unwrap());
        }
        for h in handles {
            assert!(lossy.test_send(h).unwrap(), "every handle completes");
        }
        let mut arrived = 0;
        while b.poll_recv().unwrap().is_some() {
            arrived += 1;
        }
        assert_eq!(arrived as u64, lossy.stats().passed);
        assert!(arrived < 40, "some frames must have been dropped");
    }

    #[test]
    fn link_stats_pass_through_from_the_wrapped_driver() {
        use crate::sim::SimDriver;
        use nmad_sim::{nic, shared_world, RailId, SimConfig};
        let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
        let _b = SimDriver::new(world.clone(), NodeId(1), RailId(0));
        let raw = SimDriver::new(world.clone(), NodeId(0), RailId(0));
        let mut lossy = LossyDriver::new(raw, 0.0, 5);
        lossy.post_send(NodeId(1), &[&[0u8; 1 << 16]]).unwrap();
        while world.lock().advance().is_some() {}
        let stats = lossy.link_stats();
        assert!(stats.busy_ns > 0, "wire time must reach the snapshot");
        assert_eq!(stats, lossy.inner().link_stats());
    }
}
