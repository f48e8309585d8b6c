//! Heterogeneous multirail transfer (paper §4 multi-rails strategy and
//! §7 future work).
//!
//! One 4 MB message crosses a machine equipped with both a Myri-10G NIC
//! (1240 MB/s) and a Quadrics NIC (880 MB/s). The multirail strategy
//! splits the rendezvous data proportionally to rail bandwidth; the
//! receiver reassembles by offset.
//!
//! Run: `cargo run --example multirail_transfer`

use newmadeleine::core::prelude::*;
use newmadeleine::net::sim::SimDriver;
use newmadeleine::net::SimCpuMeter;
use newmadeleine::sim::{nic, run_until, shared_world, NodeId, SimConfig};
use std::ops::ControlFlow;

const SIZE: usize = 4 << 20;

fn main() {
    let rails = vec![nic::mx_myri10g(), nic::quadrics_qm500()];
    let world = shared_world(SimConfig::two_nodes_multirail(rails));
    let mk_engine = |node: u32| {
        let drivers: Vec<Box<dyn newmadeleine::net::Driver>> =
            SimDriver::all_rails(&world, NodeId(node))
                .into_iter()
                .map(|d| Box::new(d) as _)
                .collect();
        let meter = Box::new(SimCpuMeter::new(world.clone(), NodeId(node)));
        NmadEngine::new(
            drivers,
            meter,
            Box::new(StratMultirail::default()),
            EngineCosts::zero(),
        )
    };
    let mut sender = mk_engine(0);
    let mut receiver = mk_engine(1);

    let body: Vec<u8> = (0..SIZE).map(|i| (i % 253) as u8).collect();
    let send_req = sender.isend(NodeId(1), Tag(0), body.clone());
    let recv_req = receiver.post_recv(NodeId(0), Tag(0), SIZE);

    run_until(&world, || {
        let moved = sender.progress() | receiver.progress();
        if receiver.is_recv_done(recv_req) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(moved)
        }
    })
    .expect("no deadlock");
    assert!(sender.is_send_done(send_req));
    assert_eq!(receiver.try_take_recv(recv_req).expect("done").data, body);

    let w = world.lock();
    let stats = w.stats();
    let total: u64 = stats.per_rail_bytes.iter().sum();
    println!("transferred {SIZE} bytes in {}", w.now());
    for (i, (rail, &bytes)) in ["MX/Myri-10G", "Elan/QM500"]
        .iter()
        .zip(&stats.per_rail_bytes)
        .enumerate()
    {
        println!(
            "  rail {i} ({rail}): {bytes} wire bytes ({:.0}% of traffic)",
            100.0 * bytes as f64 / total as f64
        );
    }
    let mbps = SIZE as f64 / w.now().as_us_f64();
    println!("  aggregate bandwidth: {mbps:.0} MB/s (single MX rail peaks at ~1240)");
    assert!(
        stats.per_rail_bytes.iter().all(|&b| b > (SIZE / 4) as u64),
        "both rails must carry a substantial share"
    );
}
