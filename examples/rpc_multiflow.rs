//! RPC-style multi-flow scenario — the motivation of paper §2.
//!
//! A remote method invocation consists of several dependent fragments:
//! a *service id* (tiny, urgent — the receiver needs it to prepare data
//! areas), the *argument descriptor*, and the *argument payload*.
//! Several concurrent RPC flows share the NICs. The engine:
//!
//! * delivers service ids early (high priority under the reordering
//!   strategy),
//! * aggregates the small fragments of *different* RPC flows into
//!   shared frames,
//! * runs the large payloads through rendezvous without blocking the
//!   small traffic.
//!
//! Run: `cargo run --example rpc_multiflow`

use newmadeleine::core::prelude::*;
use newmadeleine::net::sim::SimDriver;
use newmadeleine::sim::{nic, run_until, shared_world, NodeId, RailId, SimConfig};
use std::ops::ControlFlow;

const N_RPCS: u32 = 6;
const PAYLOAD: usize = 200 * 1024; // above the MX rendezvous threshold

fn main() {
    let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
    let mk_engine = |node: u32| {
        let driver = SimDriver::new(world.clone(), NodeId(node), RailId(0));
        let meter = Box::new(driver.meter());
        NmadEngine::new(
            vec![Box::new(driver)],
            meter,
            Box::new(StratReorder),
            EngineCosts::zero(),
        )
    };
    let mut client = mk_engine(0);
    let mut server = mk_engine(1);

    // Issue N_RPCS invocations back-to-back; each is one flow (tag).
    for rpc in 0..N_RPCS {
        let service_id = rpc.to_le_bytes().to_vec();
        let descriptor = format!("rpc-{rpc}: {PAYLOAD}-byte arg").into_bytes();
        let payload = vec![rpc as u8; PAYLOAD];
        client
            .message_to(NodeId(1), Tag(rpc))
            .pack_priority(service_id, Priority::High)
            .pack(descriptor)
            .pack(payload)
            .finish();
    }

    // The server posts the matching unpacks per flow.
    let handles: Vec<_> = (0..N_RPCS)
        .map(|rpc| {
            server
                .message_from(NodeId(0), Tag(rpc))
                .unpack(4)
                .unpack(64)
                .unpack(PAYLOAD)
                .finish()
        })
        .collect();

    run_until(&world, || {
        let moved = client.progress() | server.progress();
        if handles.iter().all(|h| h.is_done(&server)) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(moved)
        }
    })
    .expect("no deadlock");

    for (rpc, handle) in handles.iter().enumerate() {
        let pieces = handle.take_all(&mut server);
        let id = u32::from_le_bytes(pieces[0].data.as_slice().try_into().expect("4 bytes"));
        assert_eq!(id, rpc as u32);
        assert_eq!(pieces[2].data.len(), PAYLOAD);
        assert!(pieces[2].data.iter().all(|&b| b == rpc as u8));
    }

    let stats = client.stats();
    println!(
        "{N_RPCS} RPCs ({PAYLOAD} B payload each) completed at {}",
        world.lock().now()
    );
    println!(
        "wire frames: {} | eager entries: {} | rendezvous: {} RTS / {} data chunks",
        stats.frames_sent, stats.data_entries, stats.rts_entries, stats.chunk_entries
    );
    assert_eq!(
        stats.rts_entries as u32, N_RPCS,
        "one rendezvous per payload"
    );
    assert!(
        stats.frames_sent < (3 * N_RPCS) as u64,
        "small fragments of different flows must share frames"
    );
}
