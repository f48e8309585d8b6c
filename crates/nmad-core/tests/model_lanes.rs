//! Exhaustive model-checking of the priority-lane machinery.
//!
//! Compiled only under `--features nmad-model` (mapped to
//! `cfg(nmad_model)` by build.rs). The lane-aware window index and the
//! flow routing of split engines
//! ([`NmadEngine::split_for_shards`](nmad_core::NmadEngine::split_for_shards))
//! together promise *per-lane FIFO across shards*: one flow's segments
//! land in one split engine, and inside it the window serves each lane
//! in submission order, no matter how racing submitters interleave.
//! Each split engine's submission queue is modelled as a ring. Two
//! properties are proven over every explored schedule, each with a
//! deliberately weakened mutant the checker must catch:
//!
//! 1. **Per-lane FIFO across shards** — flows of different priorities
//!    race through per-shard submission queues into lane-indexed
//!    windows; per-lane extraction yields every flow in submission
//!    order, wholly inside the shard the pure routing hash names.
//! 2. **Lane occupancy conservation** — the per-lane depth counters
//!    the strategies plan from agree with what was actually submitted,
//!    across every interleaving of the producers.

#![cfg(nmad_model)]

use bytes::Bytes;
use nmad_core::ring::SubmitRing;
use nmad_core::sync::{AtomicU64, Ordering};
use nmad_core::{PackWrapper, Priority, SendReqId, SeqNo, ShardPolicy, Tag, Window, NUM_LANES};
use nmad_sim::NodeId;
use nmad_verify::{thread, CheckStats, Checker};
use std::sync::Arc;

/// One submitted segment as it crosses a shard's queue: flow destination,
/// flow tag, priority lane, per-flow sequence.
type RingMsg = (u32, u32, u8, u32);

fn wrapper(msg: RingMsg, order: u64) -> PackWrapper {
    let (dst, tag, lane, seq) = msg;
    PackWrapper {
        dst: NodeId(dst),
        tag: Tag(tag),
        seq: SeqNo(seq),
        priority: Priority::from_lane(lane),
        data: Bytes::from_static(b"m"),
        req: SendReqId(u64::from(seq)),
        order,
    }
}

// ---------------------------------------------------------------------
// 1. Per-lane FIFO across shards.
// ---------------------------------------------------------------------

/// Three flows of three different priorities race through two shards'
/// queues, modelled as rings (route recomputed per message — purity is
/// what pins a flow to one shard). Each ring drains in pop order into
/// that shard's lane-indexed window; per-lane extraction must then yield every flow
/// in exact submission order, entirely inside its routed shard.
fn check_per_lane_fifo_across_shards(dedup: bool) -> CheckStats {
    Checker::new()
        .max_schedules(15_000)
        .dedup(dedup)
        .check(|| {
            let rings: Arc<[SubmitRing<RingMsg>; 2]> =
                Arc::new([SubmitRing::new(8), SubmitRing::new(8)]);
            let route = |dst: u32, tag: u32| {
                ShardPolicy::HashByDest.route(2, NodeId(0), NodeId(dst), Tag(tag))
            };

            // Urgent flow to node 1, from a racing shard context.
            let r = Arc::clone(&rings);
            let urgent = thread::spawn(move || {
                for seq in [1u32, 2, 3] {
                    r[route(1, 3)].push((1, 3, 0, seq));
                }
            });
            // Normal flow to node 2, from another.
            let r = Arc::clone(&rings);
            let normal = thread::spawn(move || {
                for seq in [201u32, 202] {
                    r[route(2, 3)].push((2, 3, 2, seq));
                }
            });
            // Bulk flow to node 1 from the main context, same tag space.
            for seq in [101u32, 102, 103] {
                rings[route(1, 4)].push((1, 4, 3, seq));
            }
            urgent.join();
            normal.join();

            // Drain each ring in pop order into that shard's window,
            // stamping submission orders per shard as the engine does.
            let mut windows = [Window::new(1), Window::new(1)];
            for (shard, win) in windows.iter_mut().enumerate() {
                let mut order = 0u64;
                while let Some(msg) = rings[shard].pop() {
                    win.push_segment(wrapper(msg, order), None);
                    order += 1;
                }
            }

            // Per-lane extraction: every flow comes out in submission
            // order, wholly inside the shard the routing hash names.
            let mut flows: [(usize, Vec<u32>); 3] = [
                (route(1, 3), Vec::new()),
                (route(2, 3), Vec::new()),
                (route(1, 4), Vec::new()),
            ];
            for (shard, win) in windows.iter_mut().enumerate() {
                for lane in 0..NUM_LANES as u8 {
                    while let Some((w, _)) =
                        win.take_first_matching_tracked(0, |x| x.priority.lane() == lane)
                    {
                        let f = match (w.dst.0, w.tag.0) {
                            (1, 3) => 0,
                            (2, 3) => 1,
                            (1, 4) => 2,
                            other => panic!("phantom flow {other:?}"),
                        };
                        assert_eq!(flows[f].0, shard, "a flow leaked out of its routed shard");
                        flows[f].1.push(w.seq.0);
                    }
                }
                assert!(win.is_empty(), "lane extraction left segments behind");
            }
            assert_eq!(flows[0].1, [1, 2, 3], "urgent flow broke per-lane FIFO");
            assert_eq!(flows[1].1, [201, 202], "normal flow broke per-lane FIFO");
            assert_eq!(flows[2].1, [101, 102, 103], "bulk flow broke per-lane FIFO");
        })
        .expect("per-lane FIFO across shards must hold in every schedule")
}

#[test]
fn model_per_lane_fifo_across_shards_survives_racing_flows() {
    let stats = check_per_lane_fifo_across_shards(true);
    assert!(
        stats.schedules >= 100,
        "per-lane FIFO model underexplored: {stats:?}"
    );
    assert_eq!(
        stats.truncated, 0,
        "per-lane FIFO model hit the step bound: {stats:?}"
    );
}

// ---------------------------------------------------------------------
// 2. Lane occupancy conservation.
// ---------------------------------------------------------------------

/// The strategies plan frames from [`Window::lane_depth`]; that index
/// must agree with what was actually submitted across every
/// interleaving of racing producers — a miscount either starves a lane
/// (depth 0 with segments queued) or spins the scheduler (depth > 0
/// with nothing to take).
fn check_lane_occupancy_conservation(dedup: bool) -> CheckStats {
    Checker::new()
        .max_schedules(15_000)
        .dedup(dedup)
        .check(|| {
            let ring: Arc<SubmitRing<RingMsg>> = Arc::new(SubmitRing::new(8));
            let r = Arc::clone(&ring);
            let producer = thread::spawn(move || {
                r.push((1, 7, 0, 1));
                r.push((1, 7, 3, 2));
            });
            ring.push((1, 8, 3, 3));
            ring.push((1, 8, 1, 4));
            producer.join();

            let mut win = Window::new(1);
            let mut order = 0u64;
            while let Some(msg) = ring.pop() {
                win.push_segment(wrapper(msg, order), None);
                order += 1;
            }
            let depths: Vec<usize> = (0..NUM_LANES as u8).map(|l| win.lane_depth(l)).collect();
            assert_eq!(
                depths,
                [1, 1, 0, 2],
                "lane occupancy diverged from the submitted segments"
            );
        })
        .expect("lane occupancy must be conserved in every schedule")
}

#[test]
fn model_lane_occupancy_is_conserved_across_racing_producers() {
    let stats = check_lane_occupancy_conservation(true);
    assert!(
        stats.schedules >= 100,
        "lane occupancy model underexplored: {stats:?}"
    );
    assert_eq!(
        stats.truncated, 0,
        "lane occupancy model hit the step bound: {stats:?}"
    );
}

// ---------------------------------------------------------------------
// Seeded mutant.
// ---------------------------------------------------------------------

/// Mutant: the submission-order stamp demoted from `fetch_add` to a
/// torn load-then-store. Aging promotion (`age = horizon - order`) and
/// the per-lane FIFO tie-break both lean on stamps being unique; two
/// submitting contexts reading the same watermark hand out the same stamp —
/// the checker must find that schedule and hand back a replayable path.
#[test]
fn model_torn_lane_order_stamp_mutant_is_caught() {
    let failure = Checker::new()
        .max_schedules(30_000)
        .check(|| {
            let horizon = Arc::new(AtomicU64::new(0));
            let stamp = |h: &AtomicU64| {
                // mutant: read-modify-write torn into two operations.
                let order = h.load(Ordering::Relaxed);
                h.store(order + 1, Ordering::Relaxed);
                order
            };
            let h = Arc::clone(&horizon);
            let shard = thread::spawn(move || stamp(&h));
            let mine = stamp(&horizon);
            let theirs = shard.join();
            assert_ne!(
                mine, theirs,
                "duplicate lane order stamp breaks per-lane FIFO and aging"
            );
        })
        .expect_err("the torn order-stamp mutant must be caught");
    assert!(
        failure.message.contains("duplicate lane order stamp"),
        "wrong failure: {failure}"
    );
    assert!(
        !failure.schedule.is_empty(),
        "the failing path must be replayable: {failure}"
    );
}

// ---------------------------------------------------------------------
// Exploration volume.
// ---------------------------------------------------------------------

/// The lane suites together explore at least ten thousand schedules,
/// none truncated — the acceptance bar for this suite. Run without
/// state dedup so the count reflects every distinct interleaving
/// actually executed, not just its canonical states.
#[test]
fn model_lane_suites_cover_ten_thousand_schedules() {
    let suites = [
        check_per_lane_fifo_across_shards(false),
        check_lane_occupancy_conservation(false),
    ];
    let total: u64 = suites.iter().map(|s| s.schedules).sum();
    let truncated: u64 = suites.iter().map(|s| s.truncated).sum();
    assert!(
        total >= 10_000,
        "lane model suites underexplored: {total} schedules across {suites:?}"
    );
    assert_eq!(truncated, 0, "a lane model hit the step bound: {suites:?}");
}
