//! Differential property: event-driven progression over the simulator
//! changes no virtual result.
//!
//! One random open-loop workload runs twice over a two-node simulated
//! fabric of 1–4 rails:
//!
//! * **event-driven** — plain `SimDriver`s, whose readiness hint lets a
//!   quiet engine skip pumps, and a clock that stops only at inbox
//!   heads, transmit ends and registered wakeups;
//! * **reference** — every driver wrapped in a pass-through decorator
//!   that gives no hint, so every `try_progress` is a full pump, and a
//!   step that also registers each node's CPU-free instant as a wakeup,
//!   which brings back the clock stops CPU charges used to make.
//!
//! Both runs must observe every receive complete at the same virtual
//! instant with the same bytes, and end with the same `EngineStats` per
//! engine and the same `WorldStats` packet, byte and CPU counts. The
//! workloads mix split and unsplit engines, eager and rendezvous sizes,
//! both directions, and the `aggreg` and `lanes` strategies. Some add a
//! latency-spike `FaultPlan` on one or both nodes' rails, installed in
//! both runs: a spike delays frames without losing any, so the
//! event-driven run keeps its readiness hint under it.

use std::ops::ControlFlow;

use newmadeleine::core::{
    EngineCosts, EngineStats, NmadEngine, Priority, RecvReqId, ShardPolicy, StratAggreg,
    StratLanes, Tag,
};
use newmadeleine::net::sim::SimDriver;
use newmadeleine::net::{
    Capabilities, Driver, FaultPlan, NetResult, RxFrame, SendHandle, SimCpuMeter,
};
use newmadeleine::sim::{host, nic, run_until, shared_world, NodeId, SharedWorld, SimConfig};
use newmadeleine::sim::{SimTime, WorldStats};

use proptest::prelude::*;

/// A pass-through decorator that keeps the default (no) readiness
/// hint: its engine pumps in full on every call.
struct NoHint(SimDriver);

impl Driver for NoHint {
    fn caps(&self) -> &Capabilities {
        self.0.caps()
    }
    fn local_node(&self) -> NodeId {
        self.0.local_node()
    }
    fn post_send(&mut self, dst: NodeId, iov: &[&[u8]]) -> NetResult<SendHandle> {
        self.0.post_send(dst, iov)
    }
    fn test_send(&mut self, handle: SendHandle) -> NetResult<bool> {
        self.0.test_send(handle)
    }
    fn poll_recv(&mut self) -> NetResult<Option<RxFrame>> {
        self.0.poll_recv()
    }
    fn tx_idle(&self) -> bool {
        self.0.tx_idle()
    }
}

/// One message of the workload.
#[derive(Clone, Debug)]
struct Msg {
    /// Virtual instant (ns) the message is submitted.
    at_ns: u64,
    /// Sending node (0 or 1); the other node receives.
    src: u32,
    tag: u32,
    len: usize,
    priority: Priority,
}

/// A latency spike on every rail of some nodes.
#[derive(Clone, Copy, Debug)]
struct Spike {
    /// The spiked node, or 2 for both.
    node: u32,
    from_ns: u64,
    until_ns: u64,
    extra_ns: u64,
}

#[derive(Clone, Debug)]
struct Workload {
    rails: usize,
    split: bool,
    lanes: bool,
    spike: Option<Spike>,
    msgs: Vec<Msg>,
}

/// Everything the two runs must agree on.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per message, in workload order: completion instant and bytes.
    completions: Vec<(u64, Vec<u8>)>,
    /// Per engine, node 0's parts first.
    stats: Vec<EngineStats>,
    /// World counters with the clock-stop count zeroed.
    world: WorldStats,
}

fn payload(idx: usize, len: usize) -> Vec<u8> {
    (0..len).map(|j| (idx * 31 + j * 7) as u8).collect()
}

fn rail_models(rails: usize) -> Vec<newmadeleine::sim::NicModel> {
    (0..rails)
        .map(|r| {
            if r % 2 == 0 {
                nic::mx_myri10g()
            } else {
                nic::quadrics_qm500()
            }
        })
        .collect()
}

/// One node's engines: one over every rail, or one per rail when the
/// workload splits.
fn engines(world: &SharedWorld, node: u32, w: &Workload, reference: bool) -> Vec<NmadEngine> {
    let spike = w.spike.filter(|s| s.node == node || s.node == 2);
    let drivers = SimDriver::all_rails(world, NodeId(node))
        .into_iter()
        .map(|mut d| {
            if let Some(s) = spike {
                let plan = FaultPlan::new(u64::from(node))
                    .latency_spike(s.from_ns, s.until_ns, s.extra_ns);
                assert!(d.install_faults(plan));
            }
            if reference {
                Box::new(NoHint(d)) as Box<dyn Driver>
            } else {
                Box::new(d)
            }
        })
        .collect();
    let strategy: Box<dyn newmadeleine::core::Strategy> = if w.lanes {
        Box::new(StratLanes::new())
    } else {
        Box::new(StratAggreg)
    };
    let engine = NmadEngine::new(
        drivers,
        Box::new(SimCpuMeter::new(world.clone(), NodeId(node))),
        strategy,
        EngineCosts::from_software(&host::costs_madmpi()),
    );
    if w.split {
        engine.split_for_shards(w.rails, ShardPolicy::HashByDest)
    } else {
        vec![engine]
    }
}

/// Runs `w`, returning what it observed, the engines' full pumps and
/// the clock's advances.
fn run(w: &Workload, reference: bool) -> (Observed, u64, u64) {
    let world = shared_world(SimConfig::two_nodes_multirail(rail_models(w.rails)));
    let mut nodes = [
        engines(&world, 0, w, reference),
        engines(&world, 1, w, reference),
    ];
    let shards = nodes[0].len();
    let shard_of = |tag: u32| ShardPolicy::HashByDest.route(shards, NodeId(0), NodeId(1), Tag(tag));

    let mut completions: Vec<Option<(u64, Vec<u8>)>> = vec![None; w.msgs.len()];
    let mut outstanding: Vec<(usize, RecvReqId)> = Vec::new();
    let mut next = 0;
    run_until(&world, || {
        let now_ns = world.lock().now().as_ns();
        while next < w.msgs.len() && w.msgs[next].at_ns <= now_ns {
            let m = &w.msgs[next];
            let (src, dst) = (m.src as usize, 1 - m.src as usize);
            let s = shard_of(m.tag);
            let req = nodes[dst][s].post_recv(NodeId(src as u32), Tag(m.tag), m.len);
            let part = (bytes::Bytes::from(payload(next, m.len)), m.priority);
            nodes[src][s].submit_send_parts(NodeId(dst as u32), Tag(m.tag), vec![part], None);
            outstanding.push((next, req));
            next += 1;
        }

        let mut moved = false;
        for e in nodes.iter_mut().flatten() {
            moved |= e.progress_until_idle();
        }

        let now = world.lock().now().as_ns();
        outstanding.retain(|&(idx, req)| {
            let m = &w.msgs[idx];
            let sink = &mut nodes[1 - m.src as usize][shard_of(m.tag)];
            match sink.try_take_recv(req) {
                Some(done) => {
                    completions[idx] = Some((now, done.data.to_vec()));
                    false
                }
                None => true,
            }
        });

        if next == w.msgs.len() && outstanding.is_empty() {
            return ControlFlow::Break(());
        }
        let mut world = world.lock();
        if next < w.msgs.len() {
            world.schedule_wakeup(SimTime::from_ns(w.msgs[next].at_ns));
        }
        if reference {
            for node in 0..2 {
                let free = world.cpu_free_at(NodeId(node));
                world.schedule_wakeup(free);
            }
        }
        ControlFlow::Continue(moved)
    })
    .unwrap_or_else(|e| panic!("reference={reference}: {e}"));

    let pumps = nodes
        .iter()
        .flatten()
        .map(|e| e.metrics().engine.pumps)
        .sum();
    let stats = world.lock().stats().clone();
    let observed = Observed {
        completions: completions
            .into_iter()
            .map(|c| c.expect("every message completes"))
            .collect(),
        stats: nodes.iter().flatten().map(|e| e.stats().clone()).collect(),
        world: WorldStats {
            advances: 0,
            ..stats
        },
    };
    (observed, pumps, stats.advances)
}

fn priority() -> impl Strategy<Value = Priority> {
    prop_oneof![
        Just(Priority::Urgent),
        Just(Priority::High),
        Just(Priority::Normal),
        Just(Priority::Bulk),
    ]
}

fn msg() -> impl Strategy<Value = Msg> {
    (
        0u64..400_000,
        0u32..2,
        0u32..6,
        prop_oneof![
            6 => 0usize..2_048,
            1 => 40_000usize..160_000,
        ],
        priority(),
    )
        .prop_map(|(at_ns, src, tag, len, priority)| Msg {
            at_ns,
            src,
            tag,
            len,
            priority,
        })
}

fn spike() -> impl Strategy<Value = Spike> {
    (0u32..3, 0u64..400_000, 1u64..200_000, 1_000u64..300_000).prop_map(
        |(node, from_ns, len_ns, extra_ns)| Spike {
            node,
            from_ns,
            until_ns: from_ns + len_ns,
            extra_ns,
        },
    )
}

fn workload() -> impl Strategy<Value = Workload> {
    (
        1usize..=4,
        any::<bool>(),
        any::<bool>(),
        (any::<bool>(), spike()),
        proptest::collection::vec(msg(), 1..40),
    )
        .prop_map(|(rails, split, lanes, (spiked, spike), mut msgs)| {
            msgs.sort_by_key(|m| m.at_ns);
            Workload {
                rails,
                split: split && rails > 1,
                lanes,
                spike: spiked.then_some(spike),
                msgs,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn event_driven_progression_matches_full_pumps_and_cpu_stops(w in workload()) {
        let (evented, evented_pumps, evented_advances) = run(&w, false);
        let (reference, reference_pumps, reference_advances) = run(&w, true);
        prop_assert_eq!(&evented, &reference);
        prop_assert!(evented_advances <= reference_advances);
        for (idx, (m, (_, data))) in w.msgs.iter().zip(&evented.completions).enumerate() {
            prop_assert_eq!(data, &payload(idx, m.len), "message {}", idx);
        }
        prop_assert!(
            evented_pumps <= reference_pumps,
            "{} full pumps against the reference's {}",
            evented_pumps,
            reference_pumps
        );
    }
}

/// A fixed workload where both mechanisms must pay: 2 split rails,
/// eager and rendezvous traffic both ways.
#[test]
fn a_fixed_workload_skips_pumps_and_clock_stops() {
    let w = Workload {
        rails: 2,
        split: true,
        lanes: true,
        spike: None,
        msgs: (0..64)
            .map(|i| Msg {
                at_ns: i * 3_000,
                src: (i % 3 == 0) as u32,
                tag: (i % 5) as u32,
                len: if i % 9 == 0 { 70_000 } else { 300 },
                priority: if i % 4 == 0 {
                    Priority::Urgent
                } else {
                    Priority::Normal
                },
            })
            .collect(),
    };
    let (evented, evented_pumps, evented_advances) = run(&w, false);
    let (reference, reference_pumps, reference_advances) = run(&w, true);
    assert_eq!(evented, reference);
    assert!(
        evented_pumps < reference_pumps,
        "{evented_pumps} full pumps against the reference's {reference_pumps}"
    );
    assert!(
        evented_advances < reference_advances,
        "{evented_advances} clock stops against the reference's {reference_advances}"
    );
}
