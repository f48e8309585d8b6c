//! Seeded chaos harness (integration): randomized fault schedules are
//! driven through MAD-MPI workloads and through the reliability layer,
//! asserting eventual delivery, matching-order correctness and absence
//! of deadlock. Every scenario is a pure function of its seed — a
//! failing run prints the seed, and replaying that seed reproduces the
//! exact fault schedule bit for bit (`FaultPlan` draws every coin flip
//! from a deterministic xorshift stream, and the simulator itself is a
//! deterministic discrete-event machine).
//!
//! The long-running version of this harness is
//! `crates/bench/src/bin/chaos_soak.rs`; these tests pin a handful of
//! seeds so the behaviour is exercised on every `cargo test`.

use newmadeleine::core::prelude::*;
use newmadeleine::mpi::{pump_cluster, sim_cluster_multirail, EngineKind, StrategyKind};
use newmadeleine::net::sim::SimDriver;
use newmadeleine::net::{DetRng, Driver, FaultPlan, ReliableDriver, SimCpuMeter};
use newmadeleine::sim::{
    nic, run_until, shared_world, NodeId, RailId, SharedWorld, SimConfig, SimTime,
};
use std::ops::ControlFlow;

const RTO_NS: u64 = 200_000; // 200 us

/// A two-rail MAD-MPI workload (eager, rank 0 → rank 1) under a seeded
/// fault schedule: rail 0 of the sender dies at a seeded instant, the
/// survivor suffers a seeded latency spike. Returns a digest string of
/// everything observable (completion time, engine metrics, injector
/// stats) so determinism tests can compare whole runs.
fn mpi_death_chaos(seed: u64) -> String {
    println!("chaos replay: mpi_death_chaos(seed = {seed:#x})");
    let mut rng = DetRng::new(seed);
    let (world, mut procs) = sim_cluster_multirail(
        2,
        vec![nic::mx_myri10g(), nic::quadrics_qm500()],
        EngineKind::MadMpi(StrategyKind::Multirail),
    );

    let death_at = rng.next_range(50_000, 2_000_000);
    let spike_from = rng.next_range(0, 1_000_000);
    let spike_len = rng.next_range(50_000, 500_000);
    let spike_extra = rng.next_range(10_000, 200_000);
    let death = FaultPlan::new(seed).nic_death(death_at);
    let spike =
        FaultPlan::new(seed ^ 1).latency_spike(spike_from, spike_from + spike_len, spike_extra);
    println!("  rail 0: {}", death.describe());
    println!("  rail 1: {}", spike.describe());
    assert!(procs[0].install_faults(0, death));
    assert!(procs[0].install_faults(1, spike));

    let comm = procs[0].comm_world();
    let n = 24 + rng.next_range(0, 8) as usize;
    let bodies: Vec<Vec<u8>> = (0..n)
        .map(|i| {
            let len = rng.next_range(1, 2_000) as usize;
            (0..len).map(|j| ((i * 37 + j) % 251) as u8).collect()
        })
        .collect();
    let sends: Vec<_> = bodies
        .iter()
        .enumerate()
        .map(|(i, b)| procs[0].isend(comm, 1, i as u16, b.clone()))
        .collect();
    let recvs: Vec<_> = bodies
        .iter()
        .enumerate()
        .map(|(i, b)| procs[1].irecv(comm, 0, i as u16, b.len()))
        .collect();
    pump_cluster(&world, &mut procs, |p| {
        sends.iter().all(|&s| p[0].test(s)) && recvs.iter().all(|&r| p[1].test(r))
    });
    for (i, r) in recvs.into_iter().enumerate() {
        assert_eq!(
            procs[1].take(r).unwrap(),
            bodies[i],
            "seed {seed:#x}: message {i} lost or corrupted"
        );
    }

    let done_ns = world.lock().now().as_ns();
    let m0 = procs[0].backend().metrics().expect("madmpi has metrics");
    let m1 = procs[1].backend().metrics().expect("madmpi has metrics");
    format!(
        "t={done_ns} m0={} m1={} f0={:?} f1={:?}",
        m0.to_json(),
        m1.to_json(),
        procs[0].fault_stats(0),
        procs[0].fault_stats(1),
    )
}

fn reliable_engine(world: &SharedWorld, node: u32) -> NmadEngine {
    let raw = SimDriver::new(world.clone(), NodeId(node), RailId(0));
    let clock_world = world.clone();
    let now = Box::new(move || clock_world.lock().now().as_ns());
    let wake_world = world.clone();
    let wakeup = Box::new(move |deadline: u64| {
        wake_world
            .lock()
            .schedule_wakeup(SimTime::from_ns(deadline));
    });
    let reliable = ReliableDriver::new(raw, now, Some(wakeup), RTO_NS);
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

/// A bidirectional workload (eager bursts + one rendezvous each way)
/// through the go-back-N reliability decorator over a fabric running a
/// fully randomized fault plan on each end: link-down windows, latency
/// spikes, probabilistic drop and bit corruption. Returns a run digest.
fn reliable_chaos(seed: u64) -> String {
    println!("chaos replay: reliable_chaos(seed = {seed:#x})");
    let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
    let mut a = reliable_engine(&world, 0);
    let mut b = reliable_engine(&world, 1);
    let horizon = 20_000_000; // 20 ms of scheduled trouble
    let plan_a = FaultPlan::randomized(seed, horizon);
    let plan_b = FaultPlan::randomized(seed ^ 0xFACE, horizon);
    println!("  rail 0 @0: {}", plan_a.describe());
    println!("  rail 0 @1: {}", plan_b.describe());
    assert!(a.install_faults(0, plan_a));
    assert!(b.install_faults(0, plan_b));

    let mut rng = DetRng::new(seed ^ 0xC0FFEE);
    let n = 10;
    let fwd: Vec<Vec<u8>> = (0..n)
        .map(|i| {
            let len = rng.next_range(1, 1_500) as usize;
            (0..len).map(|j| ((i * 13 + j) % 249) as u8).collect()
        })
        .collect();
    let back: Vec<Vec<u8>> = (0..n)
        .map(|i| {
            let len = rng.next_range(1, 1_500) as usize;
            (0..len).map(|j| ((i * 29 + j) % 247) as u8).collect()
        })
        .collect();
    let big: Vec<u8> = (0..60_000u32).map(|i| (i % 253) as u8).collect();

    let s_fwd: Vec<_> = fwd
        .iter()
        .enumerate()
        .map(|(i, m)| a.isend(NodeId(1), Tag(i as u32), m.clone()))
        .collect();
    let s_back: Vec<_> = back
        .iter()
        .enumerate()
        .map(|(i, m)| b.isend(NodeId(0), Tag(i as u32), m.clone()))
        .collect();
    let s_big = a.isend(NodeId(1), Tag(99), big.clone());
    let r_fwd: Vec<_> = fwd
        .iter()
        .enumerate()
        .map(|(i, m)| b.post_recv(NodeId(0), Tag(i as u32), m.len()))
        .collect();
    let r_back: Vec<_> = back
        .iter()
        .enumerate()
        .map(|(i, m)| a.post_recv(NodeId(1), Tag(i as u32), m.len()))
        .collect();
    let r_big = b.post_recv(NodeId(0), Tag(99), big.len());

    pump(&world, &mut a, &mut b, |a, b| {
        s_fwd.iter().all(|&s| a.is_send_done(s))
            && s_back.iter().all(|&s| b.is_send_done(s))
            && a.is_send_done(s_big)
            && r_fwd.iter().all(|&r| b.is_recv_done(r))
            && r_back.iter().all(|&r| a.is_recv_done(r))
            && b.is_recv_done(r_big)
    });
    for (i, r) in r_fwd.into_iter().enumerate() {
        assert_eq!(
            b.try_take_recv(r).unwrap().data,
            fwd[i],
            "seed {seed:#x}: forward message {i} wrong"
        );
    }
    for (i, r) in r_back.into_iter().enumerate() {
        assert_eq!(
            a.try_take_recv(r).unwrap().data,
            back[i],
            "seed {seed:#x}: backward message {i} wrong"
        );
    }
    assert_eq!(
        b.try_take_recv(r_big).unwrap().data,
        big,
        "seed {seed:#x}: rendezvous payload wrong"
    );

    let done_ns = world.lock().now().as_ns();
    format!(
        "t={done_ns} m0={} m1={} f0={:?} f1={:?}",
        a.metrics().to_json(),
        b.metrics().to_json(),
        a.fault_stats(0),
        b.fault_stats(0),
    )
}

#[test]
fn mpi_chaos_survives_randomized_death_schedules() {
    for seed in [0x11u64, 0x5EED, 0xD00D, 0xBEA7] {
        mpi_death_chaos(seed);
    }
}

#[test]
fn mpi_chaos_fixed_seed_is_bit_identical() {
    let first = mpi_death_chaos(0xD5);
    let second = mpi_death_chaos(0xD5);
    assert_eq!(first, second, "same seed must reproduce the whole run");
}

#[test]
fn reliable_chaos_survives_randomized_fault_schedules() {
    for seed in [0x1u64, 0x2BAD, 0xCAFE] {
        reliable_chaos(seed);
    }
}

#[test]
fn reliable_chaos_fixed_seed_is_bit_identical() {
    let first = reliable_chaos(0x7EA);
    let second = reliable_chaos(0x7EA);
    assert_eq!(first, second, "same seed must reproduce the whole run");
}

/// Acceptance scenario: one of two rails is killed mid-workload by the
/// fault plan; every message still arrives via the survivor, and the
/// engine's fault counters record exactly one rail death.
#[test]
fn killing_one_rail_mid_workload_delivers_via_survivor() {
    let (world, mut procs) = sim_cluster_multirail(
        2,
        vec![nic::mx_myri10g(), nic::quadrics_qm500()],
        EngineKind::MadMpi(StrategyKind::Multirail),
    );
    // ~800 KB of eager traffic needs well over 200 us on these rails,
    // so the death lands while the window is full and frames are in
    // flight on the doomed rail.
    assert!(procs[0].install_faults(0, FaultPlan::new(7).nic_death(200_000)));

    let comm = procs[0].comm_world();
    let n = 200usize;
    let bodies: Vec<Vec<u8>> = (0..n)
        .map(|i| (0..4096).map(|j| ((i * 41 + j) % 251) as u8).collect())
        .collect();
    let sends: Vec<_> = bodies
        .iter()
        .enumerate()
        .map(|(i, b)| procs[0].isend(comm, 1, i as u16, b.clone()))
        .collect();
    let recvs: Vec<_> = bodies
        .iter()
        .enumerate()
        .map(|(i, b)| procs[1].irecv(comm, 0, i as u16, b.len()))
        .collect();
    pump_cluster(&world, &mut procs, |p| {
        sends.iter().all(|&s| p[0].test(s)) && recvs.iter().all(|&r| p[1].test(r))
    });
    for (i, r) in recvs.into_iter().enumerate() {
        assert_eq!(
            procs[1].take(r).unwrap(),
            bodies[i],
            "message {i} lost across the mid-workload rail death"
        );
    }

    let m = procs[0].backend().metrics().expect("madmpi has metrics");
    assert_eq!(m.engine.rail_faults, 1, "rail 0 died exactly once");
    assert!(
        m.engine.requeued_entries >= 1,
        "work stranded on the dead rail must have been requeued"
    );
    assert!(procs[0].fault_stats(0).dead_posts >= 1);
    assert_eq!(
        procs[0].fault_stats(1),
        Default::default(),
        "no plan was installed on the survivor"
    );
}
