//! Differential property: the sharded progression runtime is
//! observationally equivalent to the single-engine runtime.
//!
//! For an arbitrary message schedule, running it through a sharded
//! [`ThreadedEngine`] (2–4 shards over as many mem rails) and through
//! the classic single-shard runtime must produce:
//!
//! * **byte identity** — every flow delivers the same payload bytes;
//! * **per-flow ordering** — payloads arrive in submission order
//!   within each (source, tag) flow;
//! * **conservation** — both runtimes account exactly one submitted
//!   request per message, one posted receive per message, zero
//!   duplicate completions and zero dropped duplicates.
//!
//! The schedule mixes eager-sized payloads with ones crossing the mem
//! driver's 64 KiB rendezvous threshold, so the RTS/CTS path crosses
//! shards too.
//!
//! The equivalence rests on one contract: both ends of a link run the
//! same shard count. The last test pins what happens when they do not.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use newmadeleine::core::prelude::*;
use newmadeleine::core::{ShardPolicy, ThreadedEngine};
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
    completion_duplicates: u64,
}

/// Runs the schedule over `shards` progression shards (and as many mem
/// rails) and returns everything the application can observe.
fn run(shards: usize, msgs: &[(u32, usize)]) -> Observed {
    let mut a_rails: Vec<Box<dyn newmadeleine::net::Driver>> = Vec::new();
    let mut b_rails: Vec<Box<dyn newmadeleine::net::Driver>> = Vec::new();
    for _ in 0..shards {
        let mut fabric = mem_fabric(2);
        let b = fabric.pop().unwrap();
        let a = fabric.pop().unwrap();
        a_rails.push(Box::new(a));
        b_rails.push(Box::new(b));
    }
    let launch = |drivers: Vec<Box<dyn newmadeleine::net::Driver>>| {
        ThreadedEngine::launch(
            NmadEngine::new(
                drivers,
                Box::new(NullMeter),
                Box::new(StratAggreg),
                EngineCosts::zero(),
            ),
            EngineConfig::sharded(shards),
        )
    };
    let (a, b) = (launch(a_rails), launch(b_rails));
    let (ah, bh) = (a.handle(), b.handle());
    let t0 = Instant::now();

    // Receives post in schedule order per flow: recv j of flow `tag`
    // matches send j of that flow (per-flow FIFO is part of the
    // property).
    let recvs: Vec<_> = msgs
        .iter()
        .map(|&(tag, _)| bh.post_recv(NodeId(0), Tag(tag), 80_000))
        .collect();
    let sends: Vec<_> = msgs
        .iter()
        .enumerate()
        .map(|(idx, &(tag, len))| ah.isend(NodeId(1), Tag(tag), payload(tag, idx, len)))
        .collect();
    while !sends.iter().all(|&s| ah.is_send_done(s)) {
        assert!(t0.elapsed() < WATCHDOG, "sends never completed");
        std::thread::yield_now();
    }
    let mut flows: BTreeMap<u32, Vec<Vec<u8>>> = BTreeMap::new();
    for (&(tag, _), req) in msgs.iter().zip(recvs) {
        let done = loop {
            if let Some(done) = bh.try_take_recv(req) {
                break done;
            }
            assert!(t0.elapsed() < WATCHDOG, "recv never completed");
            std::thread::yield_now();
        };
        assert_eq!(done.src, NodeId(0));
        flows.entry(tag).or_default().push(done.data.to_vec());
    }
    let snap_a = ah.metrics();
    let snap_b = bh.metrics();
    let observed = Observed {
        flows,
        submitted: snap_a.engine.requests_submitted,
        recvs_posted: snap_b.engine.recvs_posted,
        duplicates_dropped: snap_b.engine.duplicates_dropped,
        completion_duplicates: ah.completion_duplicates() + bh.completion_duplicates(),
    };
    assert!(a.shutdown().tx_quiescent());
    assert!(b.shutdown().tx_quiescent());
    observed
}

proptest! {
    /// Sharded (2–4 shards) ≡ single-engine, for arbitrary schedules:
    /// identical per-flow byte sequences, identical conservation
    /// totals, zero duplicates on either side.
    #[test]
    fn sharded_runtime_is_observationally_equal_to_single_engine(
        shards in 2usize..5,
        msgs in proptest::collection::vec((0u32..6, 1usize..2_000), 1..25),
    ) {
        let single = run(1, &msgs);
        let sharded = run(shards, &msgs);
        prop_assert_eq!(&single, &sharded);
        prop_assert_eq!(single.submitted, msgs.len() as u64);
        prop_assert_eq!(single.recvs_posted, msgs.len() as u64);
        prop_assert_eq!(single.duplicates_dropped, 0);
        prop_assert_eq!(single.completion_duplicates, 0);
        // And the payloads really are what was submitted, in order.
        let mut expect: BTreeMap<u32, Vec<Vec<u8>>> = BTreeMap::new();
        for (idx, &(tag, len)) in msgs.iter().enumerate() {
            expect.entry(tag).or_default().push(payload(tag, idx, len));
        }
        prop_assert_eq!(&sharded.flows, &expect);
    }

    /// Same property with payloads crossing the 64 KiB rendezvous
    /// threshold, so the RTS/CTS handshake runs under sharding too.
    #[test]
    fn sharded_rendezvous_matches_single_engine(
        shards in 2usize..4,
        msgs in proptest::collection::vec((0u32..3, 60_000usize..75_000), 1..5),
    ) {
        let single = run(1, &msgs);
        let sharded = run(shards, &msgs);
        prop_assert_eq!(&single, &sharded);
        prop_assert_eq!(single.completion_duplicates, 0);
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
