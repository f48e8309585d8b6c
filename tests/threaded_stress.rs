//! Integration: seeded multi-threaded stress over the threaded
//! progression mode.
//!
//! N application threads share one node's [`ThreadedHandle`] and blast
//! seeded traffic at M peer engines (each on its own progression
//! thread) over the mem transport, with one, two or four rails per
//! node behind each node's one progression thread. The test then proves the submission
//! ring / completion board pipeline lost nothing, duplicated nothing,
//! and delivered every payload byte-identical and per-flow in order.
//! The payload schedule is a pure function of `SEED`, so a failure
//! reproduces.

use std::time::{Duration, Instant};

use newmadeleine::core::prelude::*;
use newmadeleine::core::{RecvDone, ThreadedEngine, ThreadedHandle};
use newmadeleine::net::mem::mem_fabric;
use newmadeleine::net::NullMeter;
use newmadeleine::sim::NodeId;

const SEED: u64 = 0x5eed_cafe_d00d_0001;
/// Application threads sharing node 0's handle.
const APP_THREADS: u32 = 4;
/// Messages per (thread, peer) flow.
const MSGS_PER_FLOW: u32 = 25;
/// Peer nodes receiving the traffic.
const PEERS: u32 = 2;

const WATCHDOG: Duration = Duration::from_secs(60);

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic payload for message `i` of flow (thread, peer).
/// Mostly eager-sized; every eighth crosses the mem driver's 64 KiB
/// rendezvous threshold so the RTS/CTS path is stressed too.
fn payload(thread: u32, peer: u32, i: u32) -> Vec<u8> {
    let mut s = SEED ^ (u64::from(thread) << 40) ^ (u64::from(peer) << 20) ^ u64::from(i);
    let len = if i % 8 == 7 {
        70_000 + (splitmix(&mut s) % 4096) as usize
    } else {
        (splitmix(&mut s) % 2048) as usize
    };
    (0..len)
        .map(|j| (splitmix(&mut s) ^ j as u64) as u8)
        .collect()
}

/// Flow tag: thread `t` towards any peer uses Tag(t), so each
/// (source, tag) flow is fed by exactly one application thread and
/// per-flow FIFO is well-defined.
fn flow_tag(thread: u32) -> Tag {
    Tag(thread)
}

fn wait_send(h: &ThreadedHandle, req: SendReqId, t0: Instant) {
    while !h.is_send_done(req) {
        assert!(t0.elapsed() < WATCHDOG, "send {req:?} never completed");
        std::thread::yield_now();
    }
}

fn wait_recv(h: &ThreadedHandle, req: RecvReqId, t0: Instant) -> RecvDone {
    loop {
        if let Some(done) = h.try_take_recv(req) {
            return done;
        }
        assert!(t0.elapsed() < WATCHDOG, "recv {req:?} never completed");
        std::thread::yield_now();
    }
}

/// Builds the (sender, peers) engines over `rails` independent mem
/// rails per node (one fully connected fabric per rail) and launches
/// each on its own progression thread.
fn launch_cluster(rails: usize) -> (ThreadedEngine, Vec<ThreadedEngine>) {
    let nodes = (PEERS + 1) as usize;
    let mut drivers: Vec<Vec<Box<dyn newmadeleine::net::Driver>>> =
        (0..nodes).map(|_| Vec::new()).collect();
    for _ in 0..rails {
        for (node, d) in mem_fabric(nodes).into_iter().enumerate() {
            drivers[node].push(Box::new(d));
        }
    }
    let launch = |drivers: Vec<Box<dyn newmadeleine::net::Driver>>| {
        ThreadedEngine::launch(
            NmadEngine::new(
                drivers,
                Box::new(NullMeter),
                Box::new(StratAggreg),
                EngineCosts::zero(),
            ),
            EngineConfig::threaded(),
        )
    };
    let mut engines: Vec<ThreadedEngine> = drivers.into_iter().map(launch).collect();
    let node0 = engines.remove(0);
    (node0, engines)
}

fn stress_loses_nothing_and_duplicates_nothing(rails: usize) {
    let (node0, peers) = launch_cluster(rails);
    let peer_handles: Vec<ThreadedHandle> = peers.iter().map(|p| p.handle()).collect();
    let t0 = Instant::now();

    // Every peer posts its receives up front, in flow order: for flow
    // (node 0, Tag(t)), recv j matches thread t's j-th send to that
    // peer — per-flow FIFO delivery is part of what is being proven.
    let mut recvs: Vec<Vec<Vec<RecvReqId>>> = Vec::new(); // [peer][thread][i]
    for ph in &peer_handles {
        let mut per_thread = Vec::new();
        for t in 0..APP_THREADS {
            per_thread.push(
                (0..MSGS_PER_FLOW)
                    .map(|_| ph.post_recv(NodeId(0), flow_tag(t), 80_000))
                    .collect::<Vec<_>>(),
            );
        }
        recvs.push(per_thread);
    }

    // N app threads share node 0's engine through cloned handles.
    // Thread t owns Tag(t): its submission order is the flow order.
    let app_threads: Vec<_> = (0..APP_THREADS)
        .map(|t| {
            let h = node0.handle();
            std::thread::spawn(move || {
                let mut sends = Vec::new();
                for i in 0..MSGS_PER_FLOW {
                    for peer in 0..PEERS {
                        let body = payload(t, peer, i);
                        let req = h.isend(NodeId(peer + 1), flow_tag(t), body);
                        sends.push(req);
                    }
                }
                for req in sends {
                    wait_send(&h, req, t0);
                }
            })
        })
        .collect();
    for th in app_threads {
        th.join().expect("app thread panicked");
    }

    // Every payload arrives byte-identical, in per-flow order.
    for (p, ph) in peer_handles.iter().enumerate() {
        for t in 0..APP_THREADS {
            for i in 0..MSGS_PER_FLOW {
                let req = recvs[p][t as usize][i as usize];
                let done = wait_recv(ph, req, t0);
                let expect = payload(t, p as u32, i);
                assert_eq!(done.src, NodeId(0));
                assert_eq!(
                    done.data.as_slice(),
                    expect.as_slice(),
                    "peer {p} flow {t} msg {i}: payload corrupted \
                     (len {} vs {})",
                    done.data.len(),
                    expect.len()
                );
                assert!(
                    ph.try_take_recv(req).is_none(),
                    "completion delivered twice"
                );
            }
        }
    }

    // No completion was ever posted twice anywhere.
    let h0 = node0.handle();
    assert_eq!(h0.completion_duplicates(), 0, "duplicate send completions");
    for ph in &peer_handles {
        assert_eq!(ph.completion_duplicates(), 0, "duplicate recv completions");
    }

    // Exact conservation, checked against the engine's own books via
    // the snapshot RPC: node 0 accepted exactly one request per
    // message, the peers matched exactly one receive per message.
    let total = u64::from(APP_THREADS * PEERS * MSGS_PER_FLOW);
    let snap = h0.metrics();
    assert_eq!(snap.engine.requests_submitted, total);
    let per_peer = u64::from(APP_THREADS * MSGS_PER_FLOW);
    for ph in &peer_handles {
        let snap = ph.metrics();
        assert_eq!(snap.engine.recvs_posted, per_peer);
        assert_eq!(snap.engine.duplicates_dropped, 0);
    }

    // Clean teardown returns every engine, with every rail and nothing
    // pending.
    let e0 = node0.shutdown();
    assert!(e0.tx_quiescent(), "sender retired with work pending");
    assert_eq!(e0.rail_count(), rails, "shutdown returns every rail");
    for p in peers {
        let e = p.shutdown();
        assert!(e.tx_quiescent());
    }
}

#[test]
fn threaded_stress_loses_nothing_and_duplicates_nothing() {
    stress_loses_nothing_and_duplicates_nothing(1);
}

#[test]
fn threaded_stress_two_rails_loses_nothing_and_duplicates_nothing() {
    stress_loses_nothing_and_duplicates_nothing(2);
}

#[test]
fn threaded_stress_four_rails_loses_nothing_and_duplicates_nothing() {
    stress_loses_nothing_and_duplicates_nothing(4);
}

/// Same schedule, twice: the payload schedule and conservation totals
/// are a pure function of the seed, so both runs agree exactly. (Wire
/// interleaving may differ — that is the point of the matching layer —
/// but nothing observable to the application may.)
#[test]
fn threaded_stress_is_deterministic_for_a_fixed_seed() {
    let run = || {
        let mut fabric = mem_fabric(2);
        let b = fabric.pop().unwrap();
        let a = fabric.pop().unwrap();
        let launch = |d: newmadeleine::net::mem::MemDriver| {
            ThreadedEngine::launch(
                NmadEngine::new(
                    vec![Box::new(d)],
                    Box::new(NullMeter),
                    Box::new(StratAggreg),
                    EngineCosts::zero(),
                ),
                EngineConfig::threaded(),
            )
        };
        let (a, b) = (launch(a), launch(b));
        let (ah, bh) = (a.handle(), b.handle());
        let t0 = Instant::now();
        let recvs: Vec<_> = (0..MSGS_PER_FLOW)
            .map(|_| bh.post_recv(NodeId(0), Tag(0), 80_000))
            .collect();
        let sends: Vec<_> = (0..MSGS_PER_FLOW)
            .map(|i| ah.isend(NodeId(1), Tag(0), payload(0, 0, i)))
            .collect();
        for s in sends {
            wait_send(&ah, s, t0);
        }
        let digests: Vec<(usize, u8)> = recvs
            .into_iter()
            .map(|r| {
                let done = wait_recv(&bh, r, t0);
                let sum = done
                    .data
                    .as_slice()
                    .iter()
                    .fold(0u8, |acc, &x| acc.wrapping_add(x));
                (done.data.len(), sum)
            })
            .collect();
        let submitted = ah.metrics().engine.requests_submitted;
        (digests, submitted)
    };
    assert_eq!(run(), run());
}
