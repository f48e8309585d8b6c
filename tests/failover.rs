//! Integration: NIC failure injection and multirail failover.
//!
//! The paper's related work (§6) contrasts NewMadeleine with VMI 2.0,
//! whose multirail exists for *availability*. Our engine gets the same
//! property structurally: window work scheduled onto a NIC that refuses
//! the send is handed back and picked up by the surviving rails.

use newmadeleine::core::prelude::*;
use newmadeleine::net::sim::SimDriver;
use newmadeleine::net::{Driver, FaultPlan, FaultStats, NetError, SimCpuMeter};
use newmadeleine::sim::{nic, run_until, shared_world, NodeId, RailId, SharedWorld, SimConfig};
use std::ops::ControlFlow;

fn multirail_engine(world: &SharedWorld, node: u32) -> NmadEngine {
    let drivers: Vec<Box<dyn Driver>> = SimDriver::all_rails(world, NodeId(node))
        .into_iter()
        .map(|d| Box::new(d) as Box<dyn Driver>)
        .collect();
    let meter = Box::new(SimCpuMeter::new(world.clone(), NodeId(node)));
    NmadEngine::new(
        drivers,
        meter,
        Box::new(StratMultirail::default()),
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

fn two_rail_world() -> SharedWorld {
    shared_world(SimConfig::two_nodes_multirail(vec![
        nic::mx_myri10g(),
        nic::quadrics_qm500(),
    ]))
}

#[test]
fn traffic_fails_over_to_the_surviving_rail() {
    let world = two_rail_world();
    let mut a = multirail_engine(&world, 0);
    let mut b = multirail_engine(&world, 1);

    // Kill rail 0 on both ends before any traffic.
    world.lock().fail_rail(NodeId(0), RailId(0));
    world.lock().fail_rail(NodeId(1), RailId(0));

    let body: Vec<u8> = (0..300_000u32).map(|i| (i % 249) as u8).collect();
    let s = a.isend(NodeId(1), Tag(0), body.clone());
    let smalls: Vec<_> = (1..9u32)
        .map(|i| a.isend(NodeId(1), Tag(i), vec![i as u8; 64]))
        .collect();
    let r = b.post_recv(NodeId(0), Tag(0), body.len());
    let small_rs: Vec<_> = (1..9u32)
        .map(|i| b.post_recv(NodeId(0), Tag(i), 64))
        .collect();
    pump(&world, &mut a, &mut b, |a, b| {
        a.is_send_done(s)
            && smalls.iter().all(|&x| a.is_send_done(x))
            && b.is_recv_done(r)
            && small_rs.iter().all(|&x| b.is_recv_done(x))
    });
    assert_eq!(b.try_take_recv(r).unwrap().data, body);
    for (i, x) in small_rs.into_iter().enumerate() {
        assert_eq!(b.try_take_recv(x).unwrap().data, vec![(i + 1) as u8; 64]);
    }
    let stats = world.lock().stats().clone();
    assert_eq!(stats.per_rail_bytes[0], 0, "dead rail carried traffic");
    assert!(stats.per_rail_bytes[1] > 300_000);
}

#[test]
fn mid_stream_failure_requeues_window_work() {
    let world = two_rail_world();
    let mut a = multirail_engine(&world, 0);
    let mut b = multirail_engine(&world, 1);

    // Establish traffic on both rails first.
    let s0 = a.isend(NodeId(1), Tag(0), vec![1u8; 64]);
    let r0 = b.post_recv(NodeId(0), Tag(0), 64);
    pump(&world, &mut a, &mut b, |a, b| {
        a.is_send_done(s0) && b.is_recv_done(r0)
    });
    b.try_take_recv(r0);

    // Fail rail 0 while the engine is quiescent, then run a burst: the
    // engine discovers the failure on its next post and fails over.
    world.lock().fail_rail(NodeId(0), RailId(0));
    let sends: Vec<_> = (10..30u32)
        .map(|i| a.isend(NodeId(1), Tag(i), vec![i as u8; 128]))
        .collect();
    let recvs: Vec<_> = (10..30u32)
        .map(|i| b.post_recv(NodeId(0), Tag(i), 128))
        .collect();
    pump(&world, &mut a, &mut b, |a, b| {
        sends.iter().all(|&x| a.is_send_done(x)) && recvs.iter().all(|&x| b.is_recv_done(x))
    });
    for (i, x) in recvs.into_iter().enumerate() {
        assert_eq!(
            b.try_take_recv(x).unwrap().data,
            vec![(i + 10) as u8; 128],
            "message {i} lost or corrupted across the failover"
        );
    }
}

#[test]
fn losing_every_rail_surfaces_a_transport_error() {
    let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
    let driver = SimDriver::new(world.clone(), NodeId(0), RailId(0));
    let meter = Box::new(driver.meter());
    let mut a = NmadEngine::new(
        vec![Box::new(driver)],
        meter,
        Box::new(StratAggreg),
        EngineCosts::zero(),
    );
    world.lock().fail_rail(NodeId(0), RailId(0));
    a.isend(NodeId(1), Tag(0), vec![0u8; 64]);
    // First pump marks the NIC dead (post refused, work requeued); a
    // later pump, with work pending and no NIC alive, must error.
    let mut saw_error = false;
    for _ in 0..4 {
        match a.try_progress() {
            Ok(_) => {}
            Err(NetError::Closed) => {
                saw_error = true;
                break;
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(saw_error, "a fully dead endpoint must report Closed");
}

/// The engine's fault counters in `MetricsSnapshot` must agree with
/// the injected `FaultPlan`: a plan that kills one rail produces
/// exactly one recorded rail fault, requeued entries, dead-post stats
/// on that rail only, and a "faults" section in the JSON export.
#[test]
fn fault_counters_pin_to_the_injected_plan() {
    let world = two_rail_world();
    let mut a = multirail_engine(&world, 0);
    let mut b = multirail_engine(&world, 1);
    // Rail 0 dies on its very first post; rail 1 runs a long latency
    // spike, so every surviving post is delayed but delivered.
    assert!(a.install_faults(0, FaultPlan::new(1).nic_death(0)));
    assert!(a.install_faults(1, FaultPlan::new(2).latency_spike(0, 10_000_000, 50_000)));

    let sends: Vec<_> = (0..12u32)
        .map(|i| a.isend(NodeId(1), Tag(i), vec![i as u8; 256]))
        .collect();
    let recvs: Vec<_> = (0..12u32)
        .map(|i| b.post_recv(NodeId(0), Tag(i), 256))
        .collect();
    pump(&world, &mut a, &mut b, |a, b| {
        sends.iter().all(|&x| a.is_send_done(x)) && recvs.iter().all(|&x| b.is_recv_done(x))
    });
    for (i, x) in recvs.into_iter().enumerate() {
        assert_eq!(b.try_take_recv(x).unwrap().data, vec![i as u8; 256]);
    }

    let m = a.metrics();
    assert_eq!(m.engine.rail_faults, 1, "one rail died exactly once");
    assert!(
        m.engine.requeued_entries >= 1,
        "dead-rail work must have been requeued: {:?}",
        m.engine
    );
    let f0 = a.fault_stats(0);
    assert!(f0.dead_posts >= 1, "rail 0 refused posts: {f0:?}");
    assert_eq!(
        f0.total(),
        f0.dead_posts,
        "a pure-death plan inflicts nothing but dead posts: {f0:?}"
    );
    let f1 = a.fault_stats(1);
    assert!(f1.delayed >= 1, "rail 1 spiked: {f1:?}");
    assert_eq!(
        f1.total(),
        f1.delayed,
        "a pure-spike plan inflicts nothing but delays: {f1:?}"
    );
    assert_eq!(
        b.fault_stats(0),
        FaultStats::default(),
        "no plan was installed on the receiver"
    );
    let json = m.to_json();
    assert!(json.contains("\"faults\""), "metrics JSON: {json}");
    assert!(json.contains("\"rail_faults\":1"), "metrics JSON: {json}");
}

/// Satellite invariant: a rail fault that fires while the optimization
/// window is non-empty reclaims dedicated work and requeues stranded
/// plans — and the window's per-destination (ctrl, rdv) index must
/// stay consistent with the queues through every one of those
/// mutations. The index is recounted after every pump on both ends
/// (the receiver's window carries the CTS control traffic).
#[test]
fn rail_fault_with_nonempty_window_keeps_dst_index_consistent() {
    let world = two_rail_world();
    let mut a = multirail_engine(&world, 0);
    let mut b = multirail_engine(&world, 1);
    // Rail 0 dies on its third post: by then the burst below has
    // filled the window, so the fault reclaims live dedicated queues
    // and requeues a non-trivial plan.
    assert!(a.install_faults(0, FaultPlan::new(7).nic_death(2)));

    // Mixed traffic: eager segments plus two rendezvous-sized
    // messages, so the requeue touches segments, control (CTS on the
    // receiver) and granted rendezvous jobs.
    let big: Vec<u8> = (0..200_000u32).map(|i| (i % 239) as u8).collect();
    let mut sends = vec![
        a.isend(NodeId(1), Tag(100), big.clone()),
        a.isend(NodeId(1), Tag(101), big.clone()),
    ];
    sends.extend((0..10u32).map(|i| a.isend(NodeId(1), Tag(i), vec![i as u8; 256])));
    let mut recvs = vec![
        b.post_recv(NodeId(0), Tag(100), big.len()),
        b.post_recv(NodeId(0), Tag(101), big.len()),
    ];
    recvs.extend((0..10u32).map(|i| b.post_recv(NodeId(0), Tag(i), 256)));

    run_until(&world, || {
        let moved = a.progress() | b.progress();
        assert!(
            a.window_index_consistent(),
            "sender window index diverged: {:?}",
            a.diagnostics()
        );
        assert!(
            b.window_index_consistent(),
            "receiver window index diverged: {:?}",
            b.diagnostics()
        );
        if sends.iter().all(|&x| a.is_send_done(x)) && recvs.iter().all(|&x| b.is_recv_done(x)) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(moved)
        }
    })
    .expect("no deadlock");
    assert_eq!(b.try_take_recv(recvs[0]).unwrap().data, big);
    assert_eq!(b.try_take_recv(recvs[1]).unwrap().data, big);
    for (i, &x) in recvs[2..].iter().enumerate() {
        assert_eq!(
            b.try_take_recv(x).unwrap().data,
            vec![i as u8; 256],
            "message {i} lost or corrupted across the failover"
        );
    }
    let m = a.metrics();
    assert_eq!(m.engine.rail_faults, 1, "rail 0 died exactly once");
    assert!(
        m.engine.requeued_entries >= 1,
        "the fault fired with work in flight: {:?}",
        m.engine
    );
    assert!(a.window_index_consistent() && b.window_index_consistent());
}

#[test]
fn fail_rail_drops_in_flight_packets() {
    // Documented loss semantics: what was already on the wire towards
    // a failed NIC is gone (no retransmission protocol).
    let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
    world
        .lock()
        .post_send(NodeId(0), RailId(0), NodeId(1), vec![1u8; 64]);
    world.lock().fail_rail(NodeId(1), RailId(0));
    while world.lock().advance().is_some() {}
    assert!(world.lock().poll_recv(NodeId(1), RailId(0)).is_none());
}
