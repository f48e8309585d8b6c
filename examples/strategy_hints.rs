//! Application scheduling hints and dynamic strategy selection
//! (paper §2: "Applications may even have need for different
//! optimization strategies at different stages"; §3.2: a "dynamically
//! selectable optimization function").
//!
//! A storage-like client runs two phases against the same engine:
//!
//! 1. an **interactive phase** — occasional lone metadata requests,
//!    where latency matters and aggregation machinery is pure overhead;
//! 2. a **flush phase** — a burst of dirty blocks, where throughput
//!    matters and aggregation collapses the burst into few frames.
//!
//! `StratDynamic` picks the tactic per frame from the window state; the
//! application can also force a tactic as an explicit hint.
//!
//! Run: `cargo run --release --example strategy_hints`

use newmadeleine::core::prelude::*;
use newmadeleine::core::{DynamicStats, Tactic};
use newmadeleine::net::sim::SimDriver;
use newmadeleine::sim::{nic, run_until, shared_world, NodeId, RailId, SimConfig};
use std::ops::ControlFlow;

const FLUSH_BLOCKS: u32 = 24;
const BLOCK: usize = 512;

fn main() {
    let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
    let mk_engine = |node: u32, strategy: Box<dyn Strategy>| {
        let driver = SimDriver::new(world.clone(), NodeId(node), RailId(0));
        let meter = Box::new(driver.meter());
        NmadEngine::new(vec![Box::new(driver)], meter, strategy, EngineCosts::zero())
    };
    let mut client = mk_engine(0, Box::new(StratDynamic::new()));
    let mut server = mk_engine(1, Box::new(StratAggreg));

    let pump = |client: &mut NmadEngine,
                server: &mut NmadEngine,
                done: &mut dyn FnMut(&NmadEngine, &NmadEngine) -> bool| {
        run_until(&world, || {
            let moved = client.progress() | server.progress();
            if done(client, server) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(moved)
            }
        })
        .expect("no deadlock");
    };

    // Phase 1: interactive metadata lookups (lone request/response).
    let t0 = world.lock().now();
    for i in 0..4u32 {
        let req = client.isend(NodeId(1), Tag(i), format!("stat inode {i}").into_bytes());
        let resp_r = client.post_recv(NodeId(1), Tag(i), 64);
        let lookup_r = server.post_recv(NodeId(0), Tag(i), 64);
        pump(&mut client, &mut server, &mut |_, s| {
            s.is_recv_done(lookup_r)
        });
        let lookup = server.try_take_recv(lookup_r).expect("done");
        server.isend(
            NodeId(0),
            Tag(i),
            [b"ok: ", lookup.data.as_slice()].concat(),
        );
        pump(&mut client, &mut server, &mut |c, _| c.is_recv_done(resp_r));
        client.try_take_recv(resp_r).expect("done");
        let _ = req;
    }
    let interactive_us = world.lock().now().saturating_since(t0).as_us_f64();

    // Phase 2: flush a burst of dirty blocks.
    let t1 = world.lock().now();
    let sends: Vec<_> = (100..100 + FLUSH_BLOCKS)
        .map(|i| client.isend(NodeId(1), Tag(i), vec![i as u8; BLOCK]))
        .collect();
    let recvs: Vec<_> = (100..100 + FLUSH_BLOCKS)
        .map(|i| server.post_recv(NodeId(0), Tag(i), BLOCK))
        .collect();
    pump(&mut client, &mut server, &mut |c, s| {
        sends.iter().all(|&r| c.is_send_done(r)) && recvs.iter().all(|&r| s.is_recv_done(r))
    });
    let flush_us = world.lock().now().saturating_since(t1).as_us_f64();

    println!("interactive phase (4 lookups): {interactive_us:.1} us");
    println!(
        "flush phase ({FLUSH_BLOCKS} x {BLOCK} B): {flush_us:.1} us, {} frames",
        client.stats().frames_sent
    );

    // Peek at what the selector did. (We can't downcast through the
    // engine, so run the same phases against a bare selector.)
    let stats = replay_selector();
    println!(
        "dynamic selector picks — latency: {}, aggregate: {}, reorder: {}",
        stats.latency_picks, stats.aggregate_picks, stats.reorder_picks
    );
    assert!(
        stats.latency_picks >= 4,
        "lone lookups take the latency path"
    );
    assert!(stats.aggregate_picks >= 1, "the flush burst aggregates");

    // An explicit application hint pins the tactic regardless of state.
    let mut forced = StratDynamic::new();
    forced.force(Some(Tactic::Latency));
    println!("(applications may force a tactic, e.g. Tactic::Latency, as a §2-style hint)");
}

/// Re-runs the two traffic shapes against a bare `StratDynamic` to
/// report its selection counters.
fn replay_selector() -> DynamicStats {
    use newmadeleine::core::{NicView, Window};
    use newmadeleine::net::Capabilities;
    let caps = Capabilities::from_nic(&nic::mx_myri10g());
    let mut strat = StratDynamic::new();
    let view = NicView {
        index: 0,
        caps: &caps,
    };
    let mut window = Window::new(1);
    let wrapper = |i: u32, len: usize| newmadeleine::core::PackWrapper {
        dst: NodeId(1),
        tag: Tag(i),
        seq: newmadeleine::core::SeqNo(0),
        priority: Priority::Normal,
        data: bytes_of(len),
        req: newmadeleine::core::SendReqId(i as u64),
        order: i as u64,
    };
    // Interactive: four lone segments scheduled one at a time.
    for i in 0..4 {
        window.push_segment(wrapper(i, 32), None);
        strat.schedule(&mut window, &view);
    }
    // Flush: a burst scheduled together.
    for i in 100..100 + FLUSH_BLOCKS {
        window.push_segment(wrapper(i, BLOCK), None);
    }
    while strat.schedule(&mut window, &view).is_some() {}
    strat.stats()
}

fn bytes_of(len: usize) -> bytes::Bytes {
    bytes::Bytes::from(vec![0u8; len])
}
