//! Integration: the complete NewMadeleine engine running over a *lossy*
//! simulated fabric through the go-back-N reliability decorator —
//! aggregation, rendezvous and MPI semantics all hold despite frame
//! loss, with virtual-time retransmission timeouts.

use newmadeleine::core::prelude::*;
use newmadeleine::net::sim::SimDriver;
use newmadeleine::net::{Driver, LossyDriver, ReliableDriver, SimCpuMeter};
use newmadeleine::sim::{
    nic, run_until, shared_world, NodeId, RailId, SharedWorld, SimConfig, SimTime,
};
use std::ops::ControlFlow;

const RTO_NS: u64 = 200_000; // 200 us

fn lossy_engine(world: &SharedWorld, node: u32, loss: f64, seed: u64) -> NmadEngine {
    let raw = SimDriver::new(world.clone(), NodeId(node), RailId(0));
    let lossy = LossyDriver::new(raw, loss, seed);
    let clock_world = world.clone();
    let now = Box::new(move || clock_world.lock().now().as_ns());
    let wake_world = world.clone();
    let wakeup = Box::new(move |deadline: u64| {
        wake_world
            .lock()
            .schedule_wakeup(SimTime::from_ns(deadline));
    });
    let reliable = ReliableDriver::new(lossy, now, Some(wakeup), RTO_NS);
    let meter = Box::new(SimCpuMeter::new(world.clone(), NodeId(node)));
    NmadEngine::new(
        vec![Box::new(reliable) as Box<dyn Driver>],
        meter,
        Box::new(StratAggreg),
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
fn aggregated_bursts_survive_frame_loss() {
    let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
    let mut a = lossy_engine(&world, 0, 0.25, 0xA11CE);
    let mut b = lossy_engine(&world, 1, 0.25, 0xB0B);
    let sends: Vec<_> = (0..12u32)
        .map(|i| a.isend(NodeId(1), Tag(i), vec![i as u8; 200]))
        .collect();
    let recvs: Vec<_> = (0..12u32)
        .map(|i| b.post_recv(NodeId(0), Tag(i), 200))
        .collect();
    pump(&world, &mut a, &mut b, |a, b| {
        sends.iter().all(|&s| a.is_send_done(s)) && recvs.iter().all(|&r| b.is_recv_done(r))
    });
    for (i, r) in recvs.into_iter().enumerate() {
        assert_eq!(b.try_take_recv(r).unwrap().data, vec![i as u8; 200]);
    }
}

#[test]
fn rendezvous_protocol_survives_frame_loss() {
    // RTS, CTS and every data chunk may be dropped; the handshake and
    // the chunked transfer must all recover via retransmission.
    let world = shared_world(SimConfig::two_nodes(nic::quadrics_qm500()));
    let mut a = lossy_engine(&world, 0, 0.2, 7);
    let mut b = lossy_engine(&world, 1, 0.2, 8);
    let body: Vec<u8> = (0..120_000u32).map(|i| (i % 251) as u8).collect();
    let s = a.isend(NodeId(1), Tag(0), body.clone());
    let r = b.post_recv(NodeId(0), Tag(0), body.len());
    pump(&world, &mut a, &mut b, |a, b| {
        a.is_send_done(s) && b.is_recv_done(r)
    });
    assert_eq!(b.try_take_recv(r).unwrap().data, body);
}

#[test]
fn bidirectional_lossy_traffic_with_echo() {
    let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
    let mut a = lossy_engine(&world, 0, 0.15, 100);
    let mut b = lossy_engine(&world, 1, 0.15, 200);
    for round in 0..5u32 {
        let body = vec![round as u8; 500];
        let s = a.isend(NodeId(1), Tag(round), body.clone());
        let r = b.post_recv(NodeId(0), Tag(round), 500);
        pump(&world, &mut a, &mut b, |a, b| {
            a.is_send_done(s) && b.is_recv_done(r)
        });
        let got = b.try_take_recv(r).unwrap().data;
        let s2 = b.isend(NodeId(0), Tag(round), got);
        let r2 = a.post_recv(NodeId(1), Tag(round), 500);
        pump(&world, &mut a, &mut b, |a, b| {
            b.is_send_done(s2) && a.is_recv_done(r2)
        });
        assert_eq!(a.try_take_recv(r2).unwrap().data, body, "round {round}");
    }
}

#[test]
fn lossless_fabric_through_the_decorator_adds_no_retransmits() {
    // Sanity: with zero loss the reliability layer is pass-through.
    let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
    let mut a = lossy_engine(&world, 0, 0.0, 1);
    let mut b = lossy_engine(&world, 1, 0.0, 2);
    let s = a.isend(NodeId(1), Tag(0), vec![5u8; 10_000]);
    let r = b.post_recv(NodeId(0), Tag(0), 10_000);
    pump(&world, &mut a, &mut b, |a, b| {
        a.is_send_done(s) && b.is_recv_done(r)
    });
    assert_eq!(b.try_take_recv(r).unwrap().data, vec![5u8; 10_000]);
}
