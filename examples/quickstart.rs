//! Quickstart: two simulated nodes exchange a multi-piece message
//! through the NewMadeleine engine using the incremental pack/unpack
//! interface (paper §3.4), with the aggregation strategy coalescing the
//! pieces into a single wire frame.
//!
//! Run: `cargo run --example quickstart`

use newmadeleine::core::prelude::*;
use newmadeleine::net::sim::SimDriver;
use newmadeleine::sim::{nic, run_until, shared_world, NodeId, RailId, SimConfig};
use std::ops::ControlFlow;

fn main() {
    // A two-node cluster wired with simulated Myri-10G NICs.
    let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
    let mk_engine = |node: u32| {
        let driver = SimDriver::new(world.clone(), NodeId(node), RailId(0));
        let meter = Box::new(driver.meter());
        NmadEngine::new(
            vec![Box::new(driver)],
            meter,
            Box::new(StratAggreg),
            EngineCosts::zero(),
        )
    };
    let mut sender = mk_engine(0);
    let mut receiver = mk_engine(1);

    // Build a message out of three pieces scattered in user space.
    let _req = sender
        .message_to(NodeId(1), Tag(1))
        .pack(&b"piece one, "[..])
        .pack(&b"piece two, "[..])
        .pack(&b"piece three"[..])
        .finish();

    // The receiver unpacks the same sequence of pieces.
    let handle = receiver
        .message_from(NodeId(0), Tag(1))
        .unpack(32)
        .unpack(32)
        .unpack(32)
        .finish();

    // Drive both engines under the co-simulation loop until delivery:
    // each step pumps both once and checks the goal; the runner advances
    // virtual time whenever a step moved nothing.
    run_until(&world, || {
        let moved = sender.progress() | receiver.progress();
        if handle.is_done(&receiver) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(moved)
        }
    })
    .expect("no deadlock");

    let pieces = handle.take_all(&mut receiver);
    let text: String = pieces
        .iter()
        .map(|p| String::from_utf8_lossy(&p.data).into_owned())
        .collect();
    println!("received: {text}");
    println!(
        "virtual time: {} — wire frames sent: {} (3 pieces aggregated)",
        world.lock().now(),
        sender.stats().frames_sent,
    );
    assert_eq!(text, "piece one, piece two, piece three");
    assert_eq!(
        sender.stats().frames_sent,
        1,
        "the aggregation strategy coalesces all three pieces"
    );
}
