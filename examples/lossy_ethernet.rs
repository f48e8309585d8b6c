//! The engine over a lossy datagram fabric.
//!
//! The paper's interconnects are lossless; plain Ethernet is not. This
//! example composes the unmodified NewMadeleine engine with two driver
//! decorators — seeded frame loss and go-back-N reliability — and runs
//! an aggregated burst plus a rendezvous transfer across a link that
//! drops 20 % of all frames.
//!
//! Run: `cargo run --release --example lossy_ethernet`

use newmadeleine::core::prelude::*;
use newmadeleine::net::sim::SimDriver;
use newmadeleine::net::{Driver, LossyDriver, ReliableDriver, SimCpuMeter};
use newmadeleine::sim::{
    nic, run_until, shared_world, NodeId, RailId, SharedWorld, SimConfig, SimTime,
};
use std::ops::ControlFlow;

const LOSS: f64 = 0.20;
const RTO_NS: u64 = 8_000_000; // > worst-case RTT incl. 200 KB serialization

fn engine(world: &SharedWorld, node: u32, seed: u64) -> (NmadEngine, impl Fn() -> (u64, u64)) {
    let raw = SimDriver::new(world.clone(), NodeId(node), RailId(0));
    let lossy = LossyDriver::new(raw, LOSS, seed);
    let clock_world = world.clone();
    let wake_world = world.clone();
    let reliable = ReliableDriver::new(
        lossy,
        Box::new(move || clock_world.lock().now().as_ns()),
        Some(Box::new(move |deadline| {
            wake_world
                .lock()
                .schedule_wakeup(SimTime::from_ns(deadline));
        })),
        RTO_NS,
    );
    // Counters are read through a stats closure over shared state the
    // decorators expose; here we reconstruct them from the world totals
    // at the end instead, so just return a placeholder reader.
    let meter = Box::new(SimCpuMeter::new(world.clone(), NodeId(node)));
    let engine = NmadEngine::new(
        vec![Box::new(reliable) as Box<dyn Driver>],
        meter,
        Box::new(StratAggreg),
        EngineCosts::zero(),
    );
    let w = world.clone();
    let reader = move || {
        let stats = w.lock().stats().clone();
        (stats.packets_sent, stats.bytes_sent)
    };
    (engine, reader)
}

fn main() {
    let world = shared_world(SimConfig::two_nodes(nic::tcp_gige()));
    let (mut a, read_wire) = engine(&world, 0, 0xE7);
    let (mut b, _) = engine(&world, 1, 0x5EED);

    let pump = |a: &mut NmadEngine,
                b: &mut NmadEngine,
                done: &mut dyn FnMut(&NmadEngine, &NmadEngine) -> bool| {
        run_until(&world, || {
            let moved = a.progress() | b.progress();
            if done(a, b) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(moved)
            }
        })
        .expect("no deadlock");
    };

    // An aggregated burst of small messages.
    let sends: Vec<_> = (0..10u32)
        .map(|i| a.isend(NodeId(1), Tag(i), vec![i as u8; 300]))
        .collect();
    let recvs: Vec<_> = (0..10u32)
        .map(|i| b.post_recv(NodeId(0), Tag(i), 300))
        .collect();
    pump(&mut a, &mut b, &mut |a, b| {
        sends.iter().all(|&s| a.is_send_done(s)) && recvs.iter().all(|&r| b.is_recv_done(r))
    });
    for (i, r) in recvs.into_iter().enumerate() {
        assert_eq!(b.try_take_recv(r).unwrap().data, vec![i as u8; 300]);
    }
    println!(
        "burst of 10 x 300 B delivered exactly, in order, across {:.0}% loss",
        LOSS * 100.0
    );

    // A rendezvous-sized transfer (RTS/CTS/chunks all subject to loss).
    let body: Vec<u8> = (0..200_000u32).map(|i| (i % 255) as u8).collect();
    let s = a.isend(NodeId(1), Tag(99), body.clone());
    let r = b.post_recv(NodeId(0), Tag(99), body.len());
    pump(&mut a, &mut b, &mut |a, b| {
        a.is_send_done(s) && b.is_recv_done(r)
    });
    assert_eq!(b.try_take_recv(r).unwrap().data, body);
    println!("200 KB rendezvous transfer recovered through retransmissions");

    let (wire_packets, wire_bytes) = read_wire();
    println!(
        "wire totals (incl. retransmits + acks): {wire_packets} packets, {wire_bytes} bytes at {}",
        world.lock().now()
    );
}
