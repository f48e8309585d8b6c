//! Differential property: split engines pumped inline are
//! observationally equivalent to one unsplit engine.
//!
//! For an arbitrary message schedule over 2–4 mem rails per node,
//! running it through `rails` split engines per node
//! ([`NmadEngine::split_for_shards`], flows routed by
//! [`ShardPolicy::route`]) and through one unsplit engine over the same
//! rails, both pumped in a loop on the test thread, must produce:
//!
//! * **byte identity** — every flow delivers the same payload bytes;
//! * **per-flow ordering** — payloads arrive in submission order
//!   within each (source, tag) flow;
//! * **conservation** — both account exactly one submitted request per
//!   message, one posted receive per message and zero dropped
//!   duplicates.
//!
//! The schedule mixes eager-sized payloads with ones crossing the mem
//! driver's 64 KiB rendezvous threshold, so the RTS/CTS path runs
//! across split engines too.
//!
//! The equivalence rests on one contract: both ends of a link run the
//! same shard count. The last test pins what happens when they do not.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use newmadeleine::core::prelude::*;
use newmadeleine::core::{EngineMetrics, ShardPolicy};
use newmadeleine::net::mem::mem_fabric;
use newmadeleine::net::{Driver, NetError, NullMeter};
use newmadeleine::sim::NodeId;

use proptest::prelude::*;

const WATCHDOG: Duration = Duration::from_secs(60);

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic payload for message `idx` of the schedule: the
/// content depends only on (tag, idx, len), so both runtimes send the
/// same bytes.
fn payload(tag: u32, idx: usize, len: usize) -> Vec<u8> {
    let mut s = 0x5eed_d1ff_0000_0000 ^ (u64::from(tag) << 32) ^ idx as u64;
    (0..len)
        .map(|j| (splitmix(&mut s) ^ j as u64) as u8)
        .collect()
}

/// What an application observes after running `msgs` (a list of
/// (tag, len) sends node 0 → node 1, submitted in list order): the
/// delivered payload sequence per flow, plus the conservation totals.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    /// tag → payloads in delivery order.
    flows: BTreeMap<u32, Vec<Vec<u8>>>,
    submitted: u64,
    recvs_posted: u64,
    duplicates_dropped: u64,
}

/// Runs the schedule over `rails` mem rails per node, through one
/// unsplit engine per node or, with `split`, through `rails` split
/// engines per node, and returns everything the application can
/// observe.
fn run(rails: usize, split: bool, msgs: &[(u32, usize)]) -> Observed {
    let mut a_rails: Vec<Box<dyn Driver>> = Vec::new();
    let mut b_rails: Vec<Box<dyn Driver>> = Vec::new();
    for _ in 0..rails {
        let mut fabric = mem_fabric(2);
        b_rails.push(Box::new(fabric.pop().unwrap()));
        a_rails.push(Box::new(fabric.pop().unwrap()));
    }
    let shards = if split { rails } else { 1 };
    let build = |drivers: Vec<Box<dyn Driver>>| {
        let engine = NmadEngine::new(
            drivers,
            Box::new(NullMeter),
            Box::new(StratAggreg),
            EngineCosts::zero(),
        );
        if split {
            engine.split_for_shards(shards, ShardPolicy::HashByDest)
        } else {
            vec![engine]
        }
    };
    let (mut senders, mut sinks) = (build(a_rails), build(b_rails));
    let shard_of = |tag: u32| ShardPolicy::HashByDest.route(shards, NodeId(0), NodeId(1), Tag(tag));

    // Receives post in schedule order per flow: recv j of flow `tag`
    // matches send j of that flow (per-flow FIFO is part of the
    // property).
    let recvs: Vec<_> = msgs
        .iter()
        .map(|&(tag, _)| {
            let s = shard_of(tag);
            (s, sinks[s].post_recv(NodeId(0), Tag(tag), 80_000))
        })
        .collect();
    let sends: Vec<_> = msgs
        .iter()
        .enumerate()
        .map(|(idx, &(tag, len))| {
            let s = shard_of(tag);
            let req = senders[s].isend(NodeId(1), Tag(tag), payload(tag, idx, len));
            (s, req)
        })
        .collect();
    let t0 = Instant::now();
    while !(sends.iter().all(|&(s, r)| senders[s].is_send_done(r))
        && recvs.iter().all(|&(s, r)| sinks[s].is_recv_done(r)))
    {
        assert!(t0.elapsed() < WATCHDOG, "the schedule never completed");
        for engine in senders.iter_mut().chain(sinks.iter_mut()) {
            engine
                .try_progress()
                .expect("equal shard counts never fail");
        }
    }
    let mut flows: BTreeMap<u32, Vec<Vec<u8>>> = BTreeMap::new();
    for (&(tag, _), (s, req)) in msgs.iter().zip(recvs) {
        let done = sinks[s].try_take_recv(req).expect("completed");
        assert_eq!(done.src, NodeId(0));
        flows.entry(tag).or_default().push(done.data.to_vec());
    }
    let sum = |engines: &[NmadEngine], counter: fn(&EngineMetrics) -> u64| {
        engines.iter().map(|e| counter(e.engine_metrics())).sum()
    };
    assert!(senders.iter().all(NmadEngine::tx_quiescent));
    Observed {
        flows,
        submitted: sum(&senders, |m| m.requests_submitted),
        recvs_posted: sum(&sinks, |m| m.recvs_posted),
        duplicates_dropped: sum(&sinks, |m| m.duplicates_dropped),
    }
}

proptest! {
    /// Split (2–4 engines per node) ≡ unsplit, for arbitrary schedules:
    /// identical per-flow byte sequences and conservation totals.
    #[test]
    fn sharded_runtime_is_observationally_equal_to_single_engine(
        rails in 2usize..5,
        msgs in proptest::collection::vec((0u32..6, 1usize..2_000), 1..25),
    ) {
        let single = run(rails, false, &msgs);
        let sharded = run(rails, true, &msgs);
        prop_assert_eq!(&single, &sharded);
        prop_assert_eq!(single.submitted, msgs.len() as u64);
        prop_assert_eq!(single.recvs_posted, msgs.len() as u64);
        prop_assert_eq!(single.duplicates_dropped, 0);
        // And the payloads really are what was submitted, in order.
        let mut expect: BTreeMap<u32, Vec<Vec<u8>>> = BTreeMap::new();
        for (idx, &(tag, len)) in msgs.iter().enumerate() {
            expect.entry(tag).or_default().push(payload(tag, idx, len));
        }
        prop_assert_eq!(&sharded.flows, &expect);
    }

    /// Same property with payloads crossing the 64 KiB rendezvous
    /// threshold, so the RTS/CTS handshake runs across split engines
    /// too.
    #[test]
    fn sharded_rendezvous_matches_single_engine(
        rails in 2usize..4,
        msgs in proptest::collection::vec((0u32..3, 60_000usize..75_000), 1..5),
    ) {
        let single = run(rails, false, &msgs);
        let sharded = run(rails, true, &msgs);
        prop_assert_eq!(&single, &sharded);
        prop_assert_eq!(single.submitted, msgs.len() as u64);
    }
}

/// The shard-count contract, checked inline with no threads. Node 0 is
/// a 2-rail engine split into 2 shards; node 1 is an unsplit 2-rail
/// engine running `aggreg`, so a burst on 8 tags leaves as one frame
/// whose entries belong to both of node 0's shards. The shard that
/// receives it must fail with a protocol error naming the contract and
/// apply none of the frame's entries. Two send orders cover both cases:
/// the frame's first entry owned by the other shard, and owned by the
/// receiving shard with a foreign entry behind it.
#[test]
fn unequal_shard_counts_fail_with_a_protocol_error() {
    let owner = |tag: u32| ShardPolicy::HashByDest.route(2, NodeId(0), NodeId(1), Tag(tag));
    let tags: Vec<u32> = (0..8).collect();
    assert!(
        tags.iter().any(|&t| owner(t) == 0) && tags.iter().any(|&t| owner(t) == 1),
        "the tags must cover both shards"
    );
    let own_first = tags.iter().position(|&t| owner(t) == 0).unwrap();
    let mut rotated = tags.clone();
    rotated.rotate_left(own_first);
    for order in [tags, rotated] {
        let mut split_rails: Vec<Box<dyn Driver>> = Vec::new();
        let mut whole_rails: Vec<Box<dyn Driver>> = Vec::new();
        for _ in 0..2 {
            let mut fabric = mem_fabric(2);
            whole_rails.push(Box::new(fabric.pop().unwrap()));
            split_rails.push(Box::new(fabric.pop().unwrap()));
        }
        let engine = |rails: Vec<Box<dyn Driver>>| {
            NmadEngine::new(
                rails,
                Box::new(NullMeter),
                Box::new(StratAggreg),
                EngineCosts::zero(),
            )
        };
        let mut shards = engine(split_rails).split_for_shards(2, ShardPolicy::HashByDest);
        let mut whole = engine(whole_rails);
        let recvs: Vec<_> = order
            .iter()
            .map(|&t| (owner(t), shards[owner(t)].post_recv(NodeId(1), Tag(t), 64)))
            .collect();
        // Every send is submitted before the first pump, so all eight
        // leave in one aggregated frame.
        for &t in &order {
            whole.isend(NodeId(0), Tag(t), vec![t as u8; 32]);
        }
        let failure = 'pump: loop {
            let mut moved = whole
                .try_progress()
                .expect("the unsplit sender never fails");
            for (s, shard) in shards.iter_mut().enumerate() {
                match shard.try_progress() {
                    Ok(m) => moved |= m,
                    Err(e) => break 'pump Some((s, e)),
                }
            }
            if !moved {
                break None;
            }
        };
        let completed = recvs
            .iter()
            .filter(|&&(s, r)| shards[s].is_recv_done(r))
            .count();
        let Some((shard, err)) = failure else {
            panic!(
                "send order {order:?}: the mixed frame was accepted without an error; \
                 {completed} of 8 receives completed"
            );
        };
        let NetError::Protocol(msg) = &err else {
            panic!("send order {order:?}: shard {shard} failed with {err}, not a protocol error");
        };
        assert!(msg.contains("same shard count"), "{msg}");
        assert_eq!(
            completed, 0,
            "send order {order:?}: entries were applied before the check failed"
        );
    }
}
