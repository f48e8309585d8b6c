//! Stress: irregular seeded workloads driven through every strategy and
//! backend, verifying exact delivery and cross-strategy invariants.

use bench::workload::{generate, payload_for, WorkloadSpec};
use newmadeleine::core::prelude::*;
use newmadeleine::mpi::{pump_cluster, sim_cluster, EngineKind, StrategyKind};
use newmadeleine::net::sim::SimDriver;
use newmadeleine::net::Driver;
use newmadeleine::sim::{nic, run_until, shared_world, NodeId, RailId, SharedWorld, SimConfig};
use std::collections::HashMap;
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

/// Runs a generated workload through one strategy; returns (virtual us,
/// frames sent).
fn run_workload(
    spec: &WorkloadSpec,
    strategy: Box<dyn Strategy>,
    strategy2: Box<dyn Strategy>,
) -> (f64, u64) {
    let items = generate(spec);
    let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
    let mut a = engine(&world, 0, strategy);
    let mut b = engine(&world, 1, strategy2);

    let mut sends = Vec::with_capacity(items.len());
    let mut expected: HashMap<u32, Vec<Vec<u8>>> = HashMap::new();
    for (i, item) in items.iter().enumerate() {
        let body = payload_for(i, item.len);
        expected.entry(item.tag).or_default().push(body.clone());
        sends.push(a.isend(NodeId(1), Tag(item.tag), body));
    }
    let mut recvs = Vec::with_capacity(items.len());
    let mut per_flow_index: HashMap<u32, usize> = HashMap::new();
    for item in &items {
        let idx = per_flow_index.entry(item.tag).or_default();
        recvs.push((
            item.tag,
            *idx,
            b.post_recv(NodeId(0), Tag(item.tag), item.len),
        ));
        *idx += 1;
    }

    let t = run_until(&world, || {
        let moved = a.progress() | b.progress();
        if sends.iter().all(|&s| a.is_send_done(s))
            && recvs.iter().all(|&(_, _, r)| b.is_recv_done(r))
        {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(moved)
        }
    })
    .expect("no deadlock");
    for (tag, idx, r) in recvs {
        let done = b.try_take_recv(r).expect("completed");
        assert_eq!(done.data, expected[&tag][idx], "flow {tag} item {idx}");
    }
    (t.as_us_f64(), a.stats().frames_sent)
}

#[test]
fn rpc_mix_delivers_exactly_under_every_strategy() {
    let spec = WorkloadSpec::rpc_mix(150, 0xC0FFEE);
    type MkStrategy = fn() -> Box<dyn Strategy>;
    let mk: [(&str, MkStrategy); 4] = [
        ("default", || Box::new(StratDefault)),
        ("aggreg", || Box::new(StratAggreg)),
        ("reorder", || Box::new(StratReorder)),
        ("dynamic", || Box::new(StratDynamic::new())),
    ];
    let mut frames = Vec::new();
    for (name, f) in mk {
        let (us, sent) = run_workload(&spec, f(), f());
        assert!(us > 0.0, "{name}");
        frames.push((name, sent));
    }
    // Aggregation-family strategies must use (far) fewer frames than
    // the FIFO baseline on the same traffic.
    let default_frames = frames[0].1;
    for &(name, sent) in &frames[1..] {
        assert!(
            sent < default_frames,
            "{name} sent {sent} frames vs default {default_frames}"
        );
    }
}

#[test]
fn burst_workload_heavily_aggregates() {
    let spec = WorkloadSpec::burst(400, 7);
    let (_, frames_aggreg) = run_workload(&spec, Box::new(StratAggreg), Box::new(StratAggreg));
    let (_, frames_default) = run_workload(&spec, Box::new(StratDefault), Box::new(StratDefault));
    assert_eq!(frames_default, 400, "FIFO sends one frame per message");
    assert!(
        frames_aggreg * 10 <= frames_default,
        "burst should aggregate at least 10:1, got {frames_aggreg}"
    );
}

#[test]
fn mpi_backends_survive_the_rpc_mix() {
    // Same irregular workload through the full MPI stack on every
    // backend; verifies payloads end-to-end.
    let items = generate(&WorkloadSpec::rpc_mix(80, 99));
    for kind in [
        EngineKind::MadMpi(StrategyKind::Dynamic),
        EngineKind::Mpich,
        EngineKind::Ompi,
    ] {
        let (world, mut procs) = sim_cluster(2, nic::quadrics_qm500(), kind);
        let comm = procs[0].comm_world();
        let mut expected: HashMap<u32, Vec<Vec<u8>>> = HashMap::new();
        for (i, item) in items.iter().enumerate() {
            let body = payload_for(i, item.len);
            expected.entry(item.tag).or_default().push(body.clone());
            procs[0].isend(comm, 1, item.tag as u16, body);
        }
        let mut recvs = Vec::new();
        let mut per_flow: HashMap<u32, usize> = HashMap::new();
        for item in &items {
            let idx = per_flow.entry(item.tag).or_default();
            recvs.push((
                item.tag,
                *idx,
                procs[1].irecv(comm, 0, item.tag as u16, item.len),
            ));
            *idx += 1;
        }
        pump_cluster(&world, &mut procs, |p| {
            recvs.iter().all(|&(_, _, r)| p[1].test(r))
        });
        for (tag, idx, r) in recvs {
            assert_eq!(
                procs[1].take(r).expect("tested"),
                expected[&tag][idx],
                "{} flow {tag} item {idx}",
                kind.label()
            );
        }
    }
}

#[test]
fn bidirectional_stress_with_different_strategies_per_side() {
    // Each side runs a different strategy; correctness must not depend
    // on both ends agreeing (the wire format is the contract).
    let spec = WorkloadSpec::rpc_mix(60, 1234);
    let items = generate(&spec);
    let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
    let mut a = engine(&world, 0, Box::new(StratReorder));
    let mut b = engine(&world, 1, Box::new(StratDefault));

    let mut sends = Vec::new();
    let mut expected_at_b: HashMap<u32, Vec<Vec<u8>>> = HashMap::new();
    let mut expected_at_a: HashMap<u32, Vec<Vec<u8>>> = HashMap::new();
    for (i, item) in items.iter().enumerate() {
        let body = payload_for(i, item.len);
        expected_at_b
            .entry(item.tag)
            .or_default()
            .push(body.clone());
        sends.push(a.isend(NodeId(1), Tag(item.tag), body));
        let back = payload_for(i + 10_000, item.len);
        expected_at_a
            .entry(item.tag)
            .or_default()
            .push(back.clone());
        sends.push(b.isend(NodeId(0), Tag(item.tag), back));
    }
    let mut recvs_b = Vec::new();
    let mut recvs_a = Vec::new();
    let mut idx_b: HashMap<u32, usize> = HashMap::new();
    let mut idx_a: HashMap<u32, usize> = HashMap::new();
    for item in &items {
        let ib = idx_b.entry(item.tag).or_default();
        recvs_b.push((
            item.tag,
            *ib,
            b.post_recv(NodeId(0), Tag(item.tag), item.len),
        ));
        *ib += 1;
        let ia = idx_a.entry(item.tag).or_default();
        recvs_a.push((
            item.tag,
            *ia,
            a.post_recv(NodeId(1), Tag(item.tag), item.len),
        ));
        *ia += 1;
    }
    run_until(&world, || {
        let moved = a.progress() | b.progress();
        if recvs_b.iter().all(|&(_, _, r)| b.is_recv_done(r))
            && recvs_a.iter().all(|&(_, _, r)| a.is_recv_done(r))
        {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(moved)
        }
    })
    .expect("no deadlock");
    for (tag, idx, r) in recvs_b {
        assert_eq!(b.try_take_recv(r).unwrap().data, expected_at_b[&tag][idx]);
    }
    for (tag, idx, r) in recvs_a {
        assert_eq!(a.try_take_recv(r).unwrap().data, expected_at_a[&tag][idx]);
    }
}
