//! Integration: remaining public-API surface — rail pinning, truncation
//! through the MPI layer, wakeup scheduling, TCP edge cases, timeline
//! rendering of real traffic.

use newmadeleine::core::prelude::*;
use newmadeleine::mpi::{pump_cluster, sim_cluster, EngineKind, StrategyKind};
use newmadeleine::net::sim::SimDriver;
use newmadeleine::net::{Driver, SimCpuMeter, TcpDriver};
use newmadeleine::sim::{
    nic, run_until, shared_world, timeline, NodeId, RailId, SharedWorld, SimConfig, SimDuration,
    SimTime,
};
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

#[test]
fn via_rail_pins_traffic_to_the_dedicated_nic() {
    let world = shared_world(SimConfig::two_nodes_multirail(vec![
        nic::mx_myri10g(),
        nic::quadrics_qm500(),
    ]));
    let mut a = multirail_engine(&world, 0);
    let mut b = multirail_engine(&world, 1);

    // Pin everything onto rail 1 (Quadrics).
    let req = a
        .message_to(NodeId(1), Tag(0))
        .pack(vec![1u8; 4000])
        .pack(vec![2u8; 4000])
        .via_rail(1)
        .finish();
    let handle = b
        .message_from(NodeId(0), Tag(0))
        .unpack(4000)
        .unpack(4000)
        .finish();
    pump(&world, &mut a, &mut b, |a, b| {
        a.is_send_done(req) && handle.is_done(b)
    });
    let stats = world.lock().stats().clone();
    assert_eq!(
        stats.per_rail_bytes[0], 0,
        "rail 0 must stay silent: {:?}",
        stats.per_rail_bytes
    );
    assert!(stats.per_rail_bytes[1] > 8000);
    let pieces = handle.take_all(&mut b);
    assert_eq!(pieces[0].data, vec![1u8; 4000]);
    assert_eq!(pieces[1].data, vec![2u8; 4000]);
}

#[test]
fn truncation_is_reported_at_the_engine_level() {
    let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
    let mk = |n: u32| {
        let d = SimDriver::new(world.clone(), NodeId(n), RailId(0));
        let m = Box::new(d.meter());
        NmadEngine::new(
            vec![Box::new(d)],
            m,
            Box::new(StratAggreg),
            EngineCosts::zero(),
        )
    };
    let (mut a, mut b) = (mk(0), mk(1));
    let s = a.isend(NodeId(1), Tag(0), vec![7u8; 100]);
    let r = b.post_recv(NodeId(0), Tag(0), 40);
    pump(&world, &mut a, &mut b, |a, b| {
        a.is_send_done(s) && b.is_recv_done(r)
    });
    let done = b.try_take_recv(r).expect("completed");
    assert!(done.truncated, "posted 40 B for a 100 B segment");
    assert_eq!(done.data, vec![7u8; 40]);
}

#[test]
fn schedule_wakeup_bounds_time_jumps() {
    let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
    {
        let mut w = world.lock();
        w.post_send(NodeId(0), RailId(0), NodeId(1), vec![0u8; 1 << 20]);
        // Register an intermediate wakeup well before the delivery:
        // the clock must stop there instead of jumping straight to it.
        let wake = SimTime::from_ns(1_000);
        w.schedule_wakeup(wake);
        let mut stops = Vec::new();
        while let Some(t) = w.advance() {
            stops.push(t);
        }
        assert!(
            stops.contains(&wake),
            "advance sequence {stops:?} skipped the scheduled wakeup"
        );
        // Stale wakeups (≤ now) are dropped, not revisited.
        w.schedule_wakeup(SimTime::from_ns(500));
        assert!(w.advance().is_none());
    }
}

#[test]
fn cpu_charge_returns_completion_instant() {
    let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
    let mut w = world.lock();
    let d = SimDuration::from_us(7);
    let t = w.charge_cpu(NodeId(0), d);
    assert_eq!(t, SimTime::ZERO + d);
    // Zero charges are free and do not move the account.
    let t2 = w.charge_cpu(NodeId(0), SimDuration::ZERO);
    assert_eq!(t2, t);
}

#[test]
fn tcp_zero_length_frames_roundtrip() {
    let (mut a, mut b) = TcpDriver::pair().expect("pair");
    a.post_send(NodeId(1), &[]).expect("empty gather");
    a.post_send(NodeId(1), &[b""]).expect("empty slice");
    a.post_send(NodeId(1), &[b"end"]).expect("sentinel");
    let mut got = Vec::new();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while got.len() < 3 {
        assert!(std::time::Instant::now() < deadline, "timed out");
        if let Some(f) = b.poll_recv().expect("poll") {
            got.push(f.payload);
        }
    }
    assert_eq!(got, vec![Vec::<u8>::new(), Vec::new(), b"end".to_vec()]);
}

#[test]
fn tcp_send_to_self_is_rejected() {
    let (mut a, _b) = TcpDriver::pair().expect("pair");
    assert!(a.post_send(NodeId(0), &[b"self"]).is_err());
}

#[test]
fn timeline_summarizes_real_engine_traffic() {
    let world = shared_world(SimConfig::two_nodes(nic::quadrics_qm500()));
    world.lock().enable_trace();
    let mk = |n: u32| {
        let d = SimDriver::new(world.clone(), NodeId(n), RailId(0));
        let m = Box::new(d.meter());
        NmadEngine::new(
            vec![Box::new(d)],
            m,
            Box::new(StratAggreg),
            EngineCosts::zero(),
        )
    };
    let (mut a, mut b) = (mk(0), mk(1));
    let sends: Vec<_> = (0..4u32)
        .map(|i| a.isend(NodeId(1), Tag(i), vec![0u8; 256]))
        .collect();
    let recvs: Vec<_> = (0..4u32)
        .map(|i| b.post_recv(NodeId(0), Tag(i), 256))
        .collect();
    pump(&world, &mut a, &mut b, |a, b| {
        sends.iter().all(|&s| a.is_send_done(s)) && recvs.iter().all(|&r| b.is_recv_done(r))
    });
    let trace = world.lock().take_trace();
    let summaries = timeline::summarize(&trace);
    assert_eq!(summaries.len(), 2);
    assert_eq!(summaries[0].frames_sent, 1, "aggregated burst = one frame");
    assert_eq!(summaries[1].frames_received, 1);
    assert_eq!(summaries[0].bytes_sent, summaries[1].bytes_received);
    let text = timeline::render_events(&trace);
    assert!(text.contains("send") && text.contains("recv"));
}

#[test]
fn mpi_layer_delivers_truncated_prefix_on_short_recv() {
    // MPI semantics for too-small receive buffers: the prefix is
    // delivered (our subset does not model MPI_ERR_TRUNCATE).
    let (world, mut procs) = sim_cluster(
        2,
        nic::mx_myri10g(),
        EngineKind::MadMpi(StrategyKind::Aggreg),
    );
    let comm = procs[0].comm_world();
    procs[0].isend(comm, 1, 0, vec![9u8; 64]);
    let r = procs[1].irecv(comm, 0, 0, 16);
    pump_cluster(&world, &mut procs, |p| p[1].test(r));
    assert_eq!(procs[1].take(r).unwrap(), vec![9u8; 16]);
}

#[test]
fn persistent_requests_cycle_start_wait() {
    let (world, mut procs) = sim_cluster(
        2,
        nic::quadrics_qm500(),
        EngineKind::MadMpi(StrategyKind::Aggreg),
    );
    let comm = procs[0].comm_world();
    let mut ps = procs[0].send_init(comm, 1, 3, &b"persistent payload"[..]);
    let mut pr = procs[1].recv_init(comm, 0, 3, 32);
    for round in 0..5 {
        let s = procs[0].start(&mut ps);
        let r = procs[1].start(&mut pr);
        pump_cluster(&world, &mut procs, |p| p[0].test(s) && p[1].test(r));
        assert_eq!(
            procs[1].take(r).unwrap(),
            b"persistent payload",
            "round {round}"
        );
    }
    assert!(ps.active().is_some());
}
