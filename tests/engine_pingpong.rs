//! Integration: the engine end-to-end over every strategy and NIC
//! preset, plus determinism of the co-simulation.

use newmadeleine::core::prelude::*;
use newmadeleine::mpi::StrategyKind;
use newmadeleine::net::sim::SimDriver;
use newmadeleine::net::Driver;
use newmadeleine::sim::{
    nic, run_until, shared_world, NodeId, RailId, SharedWorld, SimConfig, SimTime,
};
use std::ops::ControlFlow;

fn engine(world: &SharedWorld, node: u32, strategy: StrategyKind) -> NmadEngine {
    let driver = SimDriver::new(world.clone(), NodeId(node), RailId(0));
    let meter = Box::new(driver.meter());
    NmadEngine::new(
        vec![Box::new(driver) as Box<dyn Driver>],
        meter,
        strategy.build(),
        EngineCosts::zero(),
    )
}

const ALL_STRATEGIES: [StrategyKind; 4] = [
    StrategyKind::Default,
    StrategyKind::Aggreg,
    StrategyKind::Reorder,
    StrategyKind::Multirail,
];

fn pump(
    world: &SharedWorld,
    a: &mut NmadEngine,
    b: &mut NmadEngine,
    mut done: impl FnMut(&mut NmadEngine, &mut NmadEngine) -> bool,
) -> SimTime {
    run_until(world, || {
        let moved = a.progress_until_idle() | b.progress_until_idle();
        if done(a, b) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(moved)
        }
    })
    .expect("no deadlock")
}

#[test]
fn payload_integrity_across_strategies_and_nics() {
    for nic_model in nmad_sim::nic::all_presets() {
        for strategy in ALL_STRATEGIES {
            // Keep sizes within the SISCI MTU-constrained preset too.
            let sizes = [0usize, 1, 64, 4000, 120_000];
            let world = shared_world(SimConfig::two_nodes(nic_model.clone()));
            let mut a = engine(&world, 0, strategy);
            let mut b = engine(&world, 1, strategy);
            for (i, &size) in sizes.iter().enumerate() {
                let body: Vec<u8> = (0..size).map(|j| (j % 251) as u8).collect();
                let s = a.isend(NodeId(1), Tag(i as u32), body.clone());
                let r = b.post_recv(NodeId(0), Tag(i as u32), size);
                pump(&world, &mut a, &mut b, |a, b| {
                    a.is_send_done(s) && b.is_recv_done(r)
                });
                let done = b.try_take_recv(r).expect("completed");
                assert_eq!(
                    done.data, body,
                    "{} / {:?} size {size}",
                    nic_model.name, strategy
                );
                assert!(!done.truncated);
            }
        }
    }
}

#[test]
fn burst_order_is_preserved_per_flow() {
    for strategy in ALL_STRATEGIES {
        let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
        let mut a = engine(&world, 0, strategy);
        let mut b = engine(&world, 1, strategy);
        let n = 50u32;
        let sends: Vec<_> = (0..n)
            .map(|i| a.isend(NodeId(1), Tag(7), vec![i as u8; 16]))
            .collect();
        let recvs: Vec<_> = (0..n).map(|_| b.post_recv(NodeId(0), Tag(7), 16)).collect();
        pump(&world, &mut a, &mut b, |a, b| {
            sends.iter().all(|&s| a.is_send_done(s)) && recvs.iter().all(|&r| b.is_recv_done(r))
        });
        for (i, r) in recvs.into_iter().enumerate() {
            assert_eq!(
                b.try_take_recv(r).expect("done").data,
                vec![i as u8; 16],
                "{strategy:?} position {i}"
            );
        }
    }
}

#[test]
fn cross_flow_interleaving_keeps_flows_isolated() {
    let world = shared_world(SimConfig::two_nodes(nic::quadrics_qm500()));
    let mut a = engine(&world, 0, StrategyKind::Reorder);
    let mut b = engine(&world, 1, StrategyKind::Reorder);
    // Interleave small and rendezvous-sized segments on two flows.
    let mut sends = Vec::new();
    for i in 0..6u32 {
        sends.push(a.isend(NodeId(1), Tag(1), vec![i as u8; 32]));
        sends.push(a.isend(NodeId(1), Tag(2), vec![i as u8; 40_000]));
    }
    let recvs1: Vec<_> = (0..6).map(|_| b.post_recv(NodeId(0), Tag(1), 32)).collect();
    let recvs2: Vec<_> = (0..6)
        .map(|_| b.post_recv(NodeId(0), Tag(2), 40_000))
        .collect();
    pump(&world, &mut a, &mut b, |a, b| {
        sends.iter().all(|&s| a.is_send_done(s))
            && recvs1.iter().chain(&recvs2).all(|&r| b.is_recv_done(r))
    });
    for (i, (&r1, &r2)) in recvs1.iter().zip(&recvs2).enumerate() {
        assert_eq!(b.try_take_recv(r1).expect("done").data, vec![i as u8; 32]);
        assert_eq!(
            b.try_take_recv(r2).expect("done").data,
            vec![i as u8; 40_000]
        );
    }
}

#[test]
fn identical_runs_are_bit_for_bit_deterministic() {
    let run = || {
        let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
        world.lock().enable_trace();
        let mut a = engine(&world, 0, StrategyKind::Aggreg);
        let mut b = engine(&world, 1, StrategyKind::Aggreg);
        let sends: Vec<_> = (0..10u32)
            .map(|i| a.isend(NodeId(1), Tag(i % 3), vec![i as u8; 100 * (i as usize + 1)]))
            .collect();
        let recvs: Vec<_> = (0..10u32)
            .map(|i| b.post_recv(NodeId(0), Tag(i % 3), 2000))
            .collect();
        let t = pump(&world, &mut a, &mut b, |a, b| {
            sends.iter().all(|&s| a.is_send_done(s)) && recvs.iter().all(|&r| b.is_recv_done(r))
        });
        let trace = world.lock().take_trace();
        (t, trace.len(), trace.sends())
    };
    assert_eq!(run(), run());
}

#[test]
fn window_accumulates_while_nic_busy_then_aggregates() {
    // Occupy the wire with a large eager frame, submit a burst behind
    // it: the burst must leave in (far) fewer frames than segments.
    let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
    let mut a = engine(&world, 0, StrategyKind::Aggreg);
    let mut b = engine(&world, 1, StrategyKind::Aggreg);
    let first = a.isend(NodeId(1), Tag(0), vec![0u8; 30_000]);
    let r0 = b.post_recv(NodeId(0), Tag(0), 30_000);
    // One progress pushes the first frame onto the wire.
    a.progress();
    let burst: Vec<_> = (1..=16u32)
        .map(|i| a.isend(NodeId(1), Tag(i), vec![i as u8; 64]))
        .collect();
    let recvs: Vec<_> = (1..=16u32)
        .map(|i| b.post_recv(NodeId(0), Tag(i), 64))
        .collect();
    pump(&world, &mut a, &mut b, |a, b| {
        a.is_send_done(first)
            && burst.iter().all(|&s| a.is_send_done(s))
            && b.is_recv_done(r0)
            && recvs.iter().all(|&r| b.is_recv_done(r))
    });
    assert_eq!(
        a.stats().frames_sent,
        2,
        "large frame + one fully aggregated burst frame, got {:?}",
        a.stats()
    );
}
