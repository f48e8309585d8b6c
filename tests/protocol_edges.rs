//! Integration: protocol edge cases — MTU-constrained rendezvous
//! chunking, gather-less NICs forcing staging copies, probe semantics,
//! the dynamic strategy end-to-end, sendrecv/collectives, and the
//! rendezvous handshake under frame loss and duplication.

use std::sync::Arc;

use newmadeleine::core::prelude::*;
use newmadeleine::core::sync::{AtomicU32, Ordering};
use newmadeleine::core::wire::{parse_frame, Entry};
use newmadeleine::mpi::{
    pump_cluster, sim_cluster, AllreduceOp, BarrierOp, BcastOp, CollectiveOp, EngineKind, GatherOp,
    StrategyKind,
};
use newmadeleine::net::sim::SimDriver;
use newmadeleine::net::{
    reliable, Capabilities, Driver, FaultPlan, FaultStats, NetResult, ReliableDriver, RxFrame,
    SendHandle, SimCpuMeter,
};
use newmadeleine::sim::{
    nic, run_until, shared_world, NodeId, RailId, SharedWorld, SimConfig, SimTime,
};
use std::ops::ControlFlow;

fn engine(world: &SharedWorld, node: u32, strategy: Box<dyn Strategy>) -> NmadEngine {
    let driver = SimDriver::new(world.clone(), NodeId(node), RailId(0));
    let meter = Box::new(driver.meter());
    NmadEngine::new(
        vec![Box::new(driver) as Box<dyn Driver>],
        meter,
        strategy,
        EngineCosts::zero(),
    )
}

fn pump(
    world: &SharedWorld,
    a: &mut NmadEngine,
    b: &mut NmadEngine,
    mut done: impl FnMut(&mut NmadEngine, &mut NmadEngine) -> bool,
) {
    run_until(world, || {
        let moved = a.progress() | b.progress();
        if done(a, b) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(moved)
        }
    })
    .expect("no deadlock");
}

#[test]
fn mtu_limited_nic_chunks_rendezvous_data() {
    // SISCI has a 64 KB MTU: a 400 KB rendezvous segment must travel
    // as ≥ 7 chunks and still reassemble exactly.
    let world = shared_world(SimConfig::two_nodes(nic::sisci_sci()));
    let mut a = engine(&world, 0, Box::new(StratAggreg));
    let mut b = engine(&world, 1, Box::new(StratAggreg));
    let body: Vec<u8> = (0..400_000u32).map(|i| (i % 233) as u8).collect();
    let s = a.isend(NodeId(1), Tag(0), body.clone());
    let r = b.post_recv(NodeId(0), Tag(0), body.len());
    pump(&world, &mut a, &mut b, |a, b| {
        a.is_send_done(s) && b.is_recv_done(r)
    });
    assert_eq!(b.try_take_recv(r).unwrap().data, body);
    assert!(
        a.stats().chunk_entries >= 7,
        "expected MTU chunking, got {} chunks",
        a.stats().chunk_entries
    );
}

#[test]
fn gather_less_nic_pays_staging_copies() {
    // GM has no hardware gather (1 segment per descriptor): aggregated
    // frames must be staged through a copy, which the stats expose.
    let world = shared_world(SimConfig::two_nodes(nic::gm_myrinet2000()));
    let mut a = engine(&world, 0, Box::new(StratAggreg));
    let mut b = engine(&world, 1, Box::new(StratAggreg));
    let sends: Vec<_> = (0..6)
        .map(|i| a.isend(NodeId(1), Tag(i), vec![i as u8; 64]))
        .collect();
    let recvs: Vec<_> = (0..6).map(|i| b.post_recv(NodeId(0), Tag(i), 64)).collect();
    pump(&world, &mut a, &mut b, |a, b| {
        sends.iter().all(|&s| a.is_send_done(s)) && recvs.iter().all(|&r| b.is_recv_done(r))
    });
    assert!(
        a.stats().staging_copies >= 1,
        "gather-less NIC must stage aggregated frames: {:?}",
        a.stats()
    );
    for (i, r) in recvs.into_iter().enumerate() {
        assert_eq!(b.try_take_recv(r).unwrap().data, vec![i as u8; 64]);
    }
}

#[test]
fn gather_capable_nic_avoids_staging() {
    let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
    let mut a = engine(&world, 0, Box::new(StratAggreg));
    let mut b = engine(&world, 1, Box::new(StratAggreg));
    let sends: Vec<_> = (0..6)
        .map(|i| a.isend(NodeId(1), Tag(i), vec![i as u8; 64]))
        .collect();
    let recvs: Vec<_> = (0..6).map(|i| b.post_recv(NodeId(0), Tag(i), 64)).collect();
    pump(&world, &mut a, &mut b, |a, b| {
        sends.iter().all(|&s| a.is_send_done(s)) && recvs.iter().all(|&r| b.is_recv_done(r))
    });
    assert_eq!(a.stats().staging_copies, 0, "{:?}", a.stats());
}

#[test]
fn engine_probe_sees_unexpected_and_rts() {
    let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
    let mut a = engine(&world, 0, Box::new(StratAggreg));
    let mut b = engine(&world, 1, Box::new(StratAggreg));
    assert_eq!(b.probe(NodeId(0), Tag(1)), None);

    // Small eager message → probe sees its staged length.
    let s1 = a.isend(NodeId(1), Tag(1), &b"probe me"[..]);
    pump(&world, &mut a, &mut b, |a, b| {
        a.is_send_done(s1) && b.probe(NodeId(0), Tag(1)).is_some()
    });
    assert_eq!(b.probe(NodeId(0), Tag(1)), Some(8));

    // Rendezvous-sized message → probe sees the announced total.
    let big = vec![0u8; 100_000];
    let _s2 = a.isend(NodeId(1), Tag(2), big);
    pump(&world, &mut a, &mut b, |_, b| {
        b.probe(NodeId(0), Tag(2)).is_some()
    });
    assert_eq!(b.probe(NodeId(0), Tag(2)), Some(100_000));

    // Receiving consumes the probe-visible state.
    let r = b.post_recv(NodeId(0), Tag(1), 16);
    assert!(b.is_recv_done(r), "unexpected data completes immediately");
    assert_eq!(b.probe(NodeId(0), Tag(1)), None);
}

#[test]
fn dynamic_strategy_beats_static_choices_across_mixed_phases() {
    // Phase 1: latency-sensitive lone messages. Phase 2: a burst.
    // The dynamic selector must match StratDefault on phase 1 and
    // StratAggreg on phase 2 (within a small tolerance).
    let run = |strategy: fn() -> Box<dyn Strategy>| -> (f64, u64) {
        let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
        let mut a = engine(&world, 0, strategy());
        let mut b = engine(&world, 1, strategy());
        // Phase 1: 5 lone round trips.
        for i in 0..5u32 {
            let s = a.isend(NodeId(1), Tag(i), vec![1u8; 32]);
            let r = b.post_recv(NodeId(0), Tag(i), 32);
            pump(&world, &mut a, &mut b, |a, b| {
                a.is_send_done(s) && b.is_recv_done(r)
            });
            b.try_take_recv(r);
        }
        // Phase 2: a 16-segment burst.
        let sends: Vec<_> = (100..116u32)
            .map(|i| a.isend(NodeId(1), Tag(i), vec![2u8; 64]))
            .collect();
        let recvs: Vec<_> = (100..116u32)
            .map(|i| b.post_recv(NodeId(0), Tag(i), 64))
            .collect();
        pump(&world, &mut a, &mut b, |a, b| {
            sends.iter().all(|&s| a.is_send_done(s)) && recvs.iter().all(|&r| b.is_recv_done(r))
        });
        let result = (world.lock().now().as_us_f64(), a.stats().frames_sent);
        result
    };

    let (t_dynamic, frames_dynamic) = run(|| Box::new(StratDynamic::new()));
    let (t_default, _) = run(|| Box::new(StratDefault));
    let (t_aggreg, _) = run(|| Box::new(StratAggreg));

    // The dynamic selector is at least as good as the best static pick.
    let best = t_default.min(t_aggreg);
    assert!(
        t_dynamic <= best * 1.02,
        "dynamic {t_dynamic:.2} us vs best static {best:.2} us"
    );
    // And it did aggregate the burst.
    assert!(
        frames_dynamic < 5 + 16,
        "burst must coalesce: {frames_dynamic} frames"
    );
}

#[test]
fn mpi_iprobe_and_sendrecv() {
    let (world, mut procs) = sim_cluster(
        2,
        nic::quadrics_qm500(),
        EngineKind::MadMpi(StrategyKind::Aggreg),
    );
    let comm = procs[0].comm_world();
    assert_eq!(procs[1].iprobe(comm, 0, 5), None);
    let s = procs[0].isend(comm, 1, 5, &b"probe target"[..]);
    pump_cluster(&world, &mut procs, |p| {
        p[0].test(s) && p[1].iprobe(comm, 0, 5).is_some()
    });
    assert_eq!(procs[1].iprobe(comm, 0, 5), Some(12));
    let r = procs[1].irecv(comm, 0, 5, 32);
    pump_cluster(&world, &mut procs, |p| p[1].test(r));
    assert_eq!(procs[1].take(r).unwrap(), b"probe target");
    assert_eq!(procs[1].iprobe(comm, 0, 5), None, "consumed by the receive");
}

#[test]
fn collectives_compose_in_sequence() {
    // barrier → bcast → gather → allreduce, back to back on one job,
    // exercising ordered collective matching on the reserved context.
    fn max_fold(acc: &mut Vec<u8>, other: &[u8]) {
        if other > acc.as_slice() {
            *acc = other.to_vec();
        }
    }
    let n = 4;
    let (world, mut procs) = sim_cluster(
        n,
        nic::mx_myri10g(),
        EngineKind::MadMpi(StrategyKind::Aggreg),
    );

    // 1. barrier
    let mut barriers: Vec<BarrierOp> = procs.iter().map(BarrierOp::new).collect();
    pump_cluster(&world, &mut procs, |procs| {
        let mut all = true;
        for (p, op) in procs.iter_mut().zip(barriers.iter_mut()) {
            all &= op.advance(p);
        }
        all
    });

    // 2. bcast from rank 2
    let mut bcasts: Vec<BcastOp> = procs
        .iter()
        .map(|p| BcastOp::new(p, 2, (p.rank() == 2).then(|| b"seed".to_vec()), 16))
        .collect();
    pump_cluster(&world, &mut procs, |procs| {
        let mut all = true;
        for (p, op) in procs.iter_mut().zip(bcasts.iter_mut()) {
            all &= op.advance(p);
        }
        all
    });
    for op in &mut bcasts {
        assert_eq!(op.take_result().unwrap(), b"seed");
    }

    // 3. gather to rank 0
    let mut gathers: Vec<GatherOp> = procs
        .iter()
        .map(|p| GatherOp::new(p, 0, vec![p.rank() as u8], 8))
        .collect();
    pump_cluster(&world, &mut procs, |procs| {
        let mut all = true;
        for (p, op) in procs.iter_mut().zip(gathers.iter_mut()) {
            all &= op.advance(p);
        }
        all
    });
    assert_eq!(
        gathers[0].take_result().unwrap(),
        vec![vec![0], vec![1], vec![2], vec![3]]
    );

    // 4. allreduce (max)
    let mut reduces: Vec<AllreduceOp> = procs
        .iter()
        .map(|p| AllreduceOp::new(p, vec![p.rank() as u8 * 10], max_fold, 8))
        .collect();
    pump_cluster(&world, &mut procs, |procs| {
        let mut all = true;
        for (p, op) in procs.iter_mut().zip(reduces.iter_mut()) {
            all &= op.advance(p);
        }
        all
    });
    for op in &mut reduces {
        assert_eq!(op.take_result().unwrap(), vec![30]);
    }
}

#[test]
fn zero_length_and_exact_fit_messages() {
    for kind in [EngineKind::MadMpi(StrategyKind::Aggreg), EngineKind::Mpich] {
        let (world, mut procs) = sim_cluster(2, nic::mx_myri10g(), kind);
        let comm = procs[0].comm_world();
        // Zero-length message still matches and completes.
        let s0 = procs[0].isend(comm, 1, 0, Vec::<u8>::new());
        let r0 = procs[1].irecv(comm, 0, 0, 0);
        // Exact-fit buffer (no truncation).
        let s1 = procs[0].isend(comm, 1, 1, vec![9u8; 77]);
        let r1 = procs[1].irecv(comm, 0, 1, 77);
        pump_cluster(&world, &mut procs, |p| {
            p[0].test(s0) && p[0].test(s1) && p[1].test(r0) && p[1].test(r1)
        });
        assert_eq!(procs[1].take(r0).unwrap(), Vec::<u8>::new());
        assert_eq!(procs[1].take(r1).unwrap(), vec![9u8; 77]);
    }
}

#[test]
fn malformed_frames_surface_as_protocol_errors() {
    use newmadeleine::net::{mem_fabric, Driver as _, NetError, NullMeter};
    let mut fabric = mem_fabric(2);
    let mut raw_peer = fabric.pop().expect("two endpoints");
    let target = fabric.pop().expect("two endpoints");
    let mut engine = NmadEngine::new(
        vec![Box::new(target)],
        Box::new(NullMeter),
        Box::new(StratAggreg),
        EngineCosts::zero(),
    );
    // A peer speaking garbage must produce a typed error, not a panic.
    raw_peer
        .post_send(NodeId(0), &[b"this is not a frame"])
        .expect("raw send");
    let err = engine.try_progress().expect_err("garbage must error");
    assert!(
        matches!(err, NetError::Protocol(_)),
        "unexpected error {err}"
    );
    assert!(err.to_string().contains("malformed"));
}

// --- rendezvous handshake under loss and duplication ----------------

/// Dropped sends get handles with this bit set so `test_send` can
/// report them complete without consulting the inner driver (same
/// idiom as `LossyDriver`).
const DROPPED_BIT: u64 = 1 << 63;

/// A scripted dropper: silently discards the first `budget` outgoing
/// frames matching `predicate`, passes everything else through. Placed
/// *below* the reliability decorator it models targeted wire loss of
/// specific protocol frames (RTS, CTS, one rendezvous chunk).
struct ScriptedDropper<D> {
    inner: D,
    predicate: fn(&[u8]) -> bool,
    budget: u32,
    dropped: Arc<AtomicU32>,
}

impl<D: Driver> Driver for ScriptedDropper<D> {
    fn caps(&self) -> &Capabilities {
        self.inner.caps()
    }

    fn local_node(&self) -> NodeId {
        self.inner.local_node()
    }

    fn post_send(&mut self, dst: NodeId, iov: &[&[u8]]) -> NetResult<SendHandle> {
        let flat: Vec<u8> = iov.concat();
        if self.budget > 0 && (self.predicate)(&flat) {
            self.budget -= 1;
            let n = self.dropped.fetch_add(1, Ordering::Relaxed) as u64;
            return Ok(SendHandle(DROPPED_BIT | n));
        }
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

    fn install_faults(&mut self, plan: FaultPlan) -> bool {
        self.inner.install_faults(plan)
    }

    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }
}

/// A duplicator placed directly below the engine: the first `budget`
/// frames matching `predicate` are posted twice, exercising the
/// engine's tolerance to duplicated control traffic.
struct ScriptedDuplicator<D> {
    inner: D,
    predicate: fn(&[u8]) -> bool,
    budget: u32,
    duplicated: Arc<AtomicU32>,
    extra: Vec<SendHandle>,
}

impl<D: Driver> Driver for ScriptedDuplicator<D> {
    fn caps(&self) -> &Capabilities {
        self.inner.caps()
    }

    fn local_node(&self) -> NodeId {
        self.inner.local_node()
    }

    fn post_send(&mut self, dst: NodeId, iov: &[&[u8]]) -> NetResult<SendHandle> {
        let flat: Vec<u8> = iov.concat();
        if self.budget > 0 && (self.predicate)(&flat) {
            self.budget -= 1;
            self.duplicated.fetch_add(1, Ordering::Relaxed);
            let twin = self.inner.post_send(dst, iov)?;
            self.extra.push(twin);
        }
        self.inner.post_send(dst, iov)
    }

    fn test_send(&mut self, handle: SendHandle) -> NetResult<bool> {
        self.inner.test_send(handle)
    }

    fn poll_recv(&mut self) -> NetResult<Option<RxFrame>> {
        self.inner.poll_recv()
    }

    fn tx_idle(&self) -> bool {
        self.inner.tx_idle()
    }

    fn pump(&mut self) -> NetResult<()> {
        self.inner.pump()?;
        // Reap fire-and-forget twin handles.
        let mut still = Vec::new();
        for h in self.extra.drain(..) {
            if !self.inner.test_send(h)? {
                still.push(h);
            }
        }
        self.extra = still;
        Ok(())
    }

    fn install_faults(&mut self, plan: FaultPlan) -> bool {
        self.inner.install_faults(plan)
    }

    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }
}

/// Does a reliability-layer frame carry an engine entry matching `f`?
/// (Peels the go-back-N data header, then parses the engine frame.)
fn reliable_frame_has(bytes: &[u8], f: fn(&Entry) -> bool) -> bool {
    bytes.first() == Some(&reliable::KIND_DATA)
        && bytes.len() > reliable::HEADER_LEN
        && parse_frame(&bytes[reliable::HEADER_LEN..]).is_ok_and(|es| es.iter().any(f))
}

const RTO_NS: u64 = 200_000;

/// Engine over `ReliableDriver` over `ScriptedDropper` over the
/// simulator; returns the engine plus the dropper's shared counter.
fn dropper_engine(
    world: &SharedWorld,
    node: u32,
    predicate: fn(&[u8]) -> bool,
    budget: u32,
) -> (NmadEngine, Arc<AtomicU32>) {
    let raw = SimDriver::new(world.clone(), NodeId(node), RailId(0));
    let dropped = Arc::new(AtomicU32::new(0));
    let dropper = ScriptedDropper {
        inner: raw,
        predicate,
        budget,
        dropped: dropped.clone(),
    };
    let clock_world = world.clone();
    let now = Box::new(move || clock_world.lock().now().as_ns());
    let wake_world = world.clone();
    let wakeup = Box::new(move |deadline: u64| {
        wake_world
            .lock()
            .schedule_wakeup(SimTime::from_ns(deadline));
    });
    let driver = ReliableDriver::new(dropper, now, Some(wakeup), RTO_NS);
    let meter = Box::new(SimCpuMeter::new(world.clone(), NodeId(node)));
    let engine = NmadEngine::new(
        vec![Box::new(driver) as Box<dyn Driver>],
        meter,
        Box::new(StratAggreg),
        EngineCosts::zero(),
    );
    (engine, dropped)
}

/// A scripted loss for one side: (frame predicate, drop budget).
type DropScript = Option<(fn(&[u8]) -> bool, u32)>;

/// One rendezvous transfer a→b under a scripted loss; asserts exact
/// delivery and that the script actually fired.
fn rendezvous_survives(drop_on_sender: DropScript, drop_on_receiver: DropScript) {
    fn never(_: &[u8]) -> bool {
        false
    }
    let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
    let (pa, ba) = drop_on_sender.unwrap_or((never, 0));
    let (pb, bb) = drop_on_receiver.unwrap_or((never, 0));
    let (mut a, dropped_a) = dropper_engine(&world, 0, pa, ba);
    let (mut b, dropped_b) = dropper_engine(&world, 1, pb, bb);

    let body: Vec<u8> = (0..80_000u32).map(|i| (i % 239) as u8).collect();
    let s = a.isend(NodeId(1), Tag(3), body.clone());
    let r = b.post_recv(NodeId(0), Tag(3), body.len());
    pump(&world, &mut a, &mut b, |a, b| {
        a.is_send_done(s) && b.is_recv_done(r)
    });
    assert_eq!(b.try_take_recv(r).unwrap().data, body, "payload intact");
    let fired = dropped_a.load(Ordering::Relaxed) + dropped_b.load(Ordering::Relaxed);
    let scripted = ba + bb;
    assert_eq!(fired, scripted, "the scripted loss must actually happen");
}

#[test]
fn dropped_rts_is_retransmitted_and_rendezvous_completes() {
    fn is_rts(bytes: &[u8]) -> bool {
        reliable_frame_has(bytes, |e| matches!(e, Entry::Rts { .. }))
    }
    rendezvous_survives(Some((is_rts, 1)), None);
}

#[test]
fn dropped_cts_is_retransmitted_and_rendezvous_completes() {
    fn is_cts(bytes: &[u8]) -> bool {
        reliable_frame_has(bytes, |e| matches!(e, Entry::Cts { .. }))
    }
    rendezvous_survives(None, Some((is_cts, 1)));
}

#[test]
fn dropped_data_chunk_mid_rendezvous_is_recovered() {
    fn is_chunk(bytes: &[u8]) -> bool {
        reliable_frame_has(bytes, |e| matches!(e, Entry::RdvData { .. }))
    }
    rendezvous_survives(Some((is_chunk, 1)), None);
}

/// A duplicated CTS must not restart the transfer: the engine ignores
/// the stale grant (counting it) and the payload arrives exactly once.
#[test]
fn duplicate_cts_is_ignored_not_restarted() {
    fn is_cts(bytes: &[u8]) -> bool {
        parse_frame(bytes).is_ok_and(|es| es.iter().any(|e| matches!(e, Entry::Cts { .. })))
    }
    let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
    let mut a = engine(&world, 0, Box::new(StratAggreg));
    // CTS flows receiver → sender, so the duplicator sits under b.
    let duplicated = Arc::new(AtomicU32::new(0));
    let dup = ScriptedDuplicator {
        inner: SimDriver::new(world.clone(), NodeId(1), RailId(0)),
        predicate: is_cts,
        budget: 1,
        duplicated: duplicated.clone(),
        extra: Vec::new(),
    };
    let meter = Box::new(SimCpuMeter::new(world.clone(), NodeId(1)));
    let mut b = NmadEngine::new(
        vec![Box::new(dup) as Box<dyn Driver>],
        meter,
        Box::new(StratAggreg),
        EngineCosts::zero(),
    );

    let body: Vec<u8> = (0..90_000u32).map(|i| (i % 241) as u8).collect();
    let s = a.isend(NodeId(1), Tag(5), body.clone());
    let r = b.post_recv(NodeId(0), Tag(5), body.len());
    pump(&world, &mut a, &mut b, |a, b| {
        a.is_send_done(s) && b.is_recv_done(r)
    });
    assert_eq!(b.try_take_recv(r).unwrap().data, body, "payload intact");
    assert_eq!(duplicated.load(Ordering::Relaxed), 1, "CTS was duplicated");
    assert!(
        a.metrics().engine.stale_cts_ignored >= 1,
        "sender must count the stale CTS: {:?}",
        a.metrics().engine
    );
}
