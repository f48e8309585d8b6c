//! Exhaustive model-checking of the protocols that shared request ids
//! and shard routing lean on.
//!
//! Compiled only under `--features nmad-model` (mapped to
//! `cfg(nmad_model)` by build.rs). Two properties, each proven over
//! every explored schedule and paired with a deliberately weakened
//! mutant the checker must catch:
//!
//! 1. **Shared id watermark** — request ids allocated by racing
//!    submitters (application threads sharing one runtime's cloned
//!    `ThreadedHandle`s) are unique and dense, so the completion board
//!    can bucket by `id % buckets` without collisions.
//! 2. **Per-destination FIFO** — the routing function split engines
//!    ([`NmadEngine::split_for_shards`](nmad_core::NmadEngine::split_for_shards))
//!    use is pure, so one flow's messages always land in one shard's
//!    submission queue (modelled as a ring) and stay in submission
//!    order end to end.

#![cfg(nmad_model)]

use nmad_core::ring::SubmitRing;
use nmad_core::sync::{AtomicU64, AtomicUsize, Ordering};
use nmad_core::{ShardPolicy, Tag};
use nmad_sim::NodeId;
use nmad_verify::{thread, CheckStats, Checker};
use std::sync::Arc;

// ---------------------------------------------------------------------
// 1. Shared id watermark.
// ---------------------------------------------------------------------

/// The threaded handle's id allocator: every submitting context draws
/// request ids from one shared `AtomicU64` via `fetch_add`. Across every
/// schedule the ids handed out are unique *and dense* — the completion
/// board's `id % buckets` mapping relies on both.
fn check_cross_shard_id_watermark(dedup: bool) -> CheckStats {
    Checker::new()
        .max_schedules(15_000)
        .dedup(dedup)
        .check(|| {
            let next_req = Arc::new(AtomicU64::new(0));
            let shard_ctxs: Vec<_> = (0..3)
                .map(|_| {
                    let n = Arc::clone(&next_req);
                    thread::spawn(move || {
                        [
                            n.fetch_add(1, Ordering::Relaxed),
                            n.fetch_add(1, Ordering::Relaxed),
                        ]
                    })
                })
                .collect();
            let mut ids = vec![
                next_req.fetch_add(1, Ordering::Relaxed),
                next_req.fetch_add(1, Ordering::Relaxed),
            ];
            for ctx in shard_ctxs {
                ids.extend(ctx.join());
            }
            ids.sort_unstable();
            assert_eq!(
                ids,
                [0, 1, 2, 3, 4, 5, 6, 7],
                "cross-shard id watermark issued a duplicate or sparse id"
            );
        })
        .expect("cross-shard id allocation must be unique and dense in every schedule")
}

#[test]
fn model_cross_shard_id_watermark_is_unique_and_dense() {
    let stats = check_cross_shard_id_watermark(true);
    assert!(
        stats.schedules >= 100,
        "id-watermark model underexplored: {stats:?}"
    );
    assert_eq!(
        stats.truncated, 0,
        "id-watermark model hit the step bound: {stats:?}"
    );
}

/// Mutant: the allocator demoted from `fetch_add` to a racy
/// load-then-store. Two submitters can read the same watermark and hand
/// out the same request id — the checker must find that schedule.
#[test]
fn model_cross_shard_id_watermark_load_store_mutant_is_caught() {
    let failure = Checker::new()
        .max_schedules(30_000)
        .check(|| {
            let next_req = Arc::new(AtomicU64::new(0));
            let alloc = |n: &AtomicU64| {
                // mutant: read-modify-write torn into two operations.
                let id = n.load(Ordering::Relaxed);
                n.store(id + 1, Ordering::Relaxed);
                id
            };
            let n = Arc::clone(&next_req);
            let shard = thread::spawn(move || alloc(&n));
            let mine = alloc(&next_req);
            let theirs = shard.join();
            assert_ne!(mine, theirs, "duplicate request id allocated across shards");
        })
        .expect_err("the load-then-store watermark mutant must be caught");
    assert!(
        failure.message.contains("duplicate request id"),
        "wrong failure: {failure}"
    );
    assert!(
        !failure.schedule.is_empty(),
        "the failing path must be replayable: {failure}"
    );
}

// ---------------------------------------------------------------------
// 2. Per-destination FIFO.
// ---------------------------------------------------------------------

/// Routing is a pure function of the flow, so one flow's messages all
/// land in one shard's submission queue — in submission order — even
/// while another flow races into the other queue. Both endpoints agree
/// on the owner (the hash is symmetric in the node pair), which is what
/// keeps per-flow FIFO global, not per-node.
fn check_per_destination_fifo(dedup: bool) -> CheckStats {
    Checker::new()
        .max_schedules(15_000)
        .dedup(dedup)
        .check(|| {
            let rings: Arc<[SubmitRing<u64>; 2]> =
                Arc::new([SubmitRing::new(8), SubmitRing::new(8)]);
            let route =
                |a: NodeId, b: NodeId, tag: Tag| ShardPolicy::HashByDest.route(2, a, b, tag);
            // Sender and receiver sides agree on the owning shard.
            assert_eq!(
                route(NodeId(0), NodeId(1), Tag(3)),
                route(NodeId(1), NodeId(0), Tag(3)),
                "routing hash is not symmetric in the node pair"
            );
            let r = Arc::clone(&rings);
            let producer_a = thread::spawn(move || {
                for msg in [1u64, 2, 3] {
                    // Route recomputed per message: purity is the point.
                    r[route(NodeId(0), NodeId(1), Tag(3))].push(msg);
                }
            });
            let r = Arc::clone(&rings);
            let producer_c = thread::spawn(move || {
                for msg in [201u64, 202] {
                    r[route(NodeId(0), NodeId(2), Tag(3))].push(msg);
                }
            });
            for msg in [101u64, 102, 103] {
                rings[route(NodeId(0), NodeId(1), Tag(4))].push(msg);
            }
            producer_a.join();
            producer_c.join();
            let shard_a = route(NodeId(0), NodeId(1), Tag(3));
            let shard_b = route(NodeId(0), NodeId(1), Tag(4));
            let shard_c = route(NodeId(0), NodeId(2), Tag(3));
            let mut per_ring: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
            for (shard, out) in per_ring.iter_mut().enumerate() {
                while let Some(v) = rings[shard].pop() {
                    out.push(v);
                }
            }
            let flow = |shard: usize, lo: u64, hi: u64| -> Vec<u64> {
                per_ring[shard]
                    .iter()
                    .copied()
                    .filter(|&v| (lo..hi).contains(&v))
                    .collect()
            };
            assert_eq!(
                flow(shard_a, 0, 100),
                [1, 2, 3],
                "flow split shards or broke FIFO"
            );
            assert_eq!(
                flow(shard_b, 100, 200),
                [101, 102, 103],
                "flow split shards or broke FIFO"
            );
            assert_eq!(
                flow(shard_c, 200, 300),
                [201, 202],
                "flow split shards or broke FIFO"
            );
        })
        .expect("per-destination FIFO must hold in every schedule")
}

#[test]
fn model_per_destination_fifo_survives_cross_flow_races() {
    let stats = check_per_destination_fifo(true);
    assert!(
        stats.schedules >= 100,
        "per-destination FIFO model underexplored: {stats:?}"
    );
    assert_eq!(
        stats.truncated, 0,
        "per-destination FIFO model hit the step bound: {stats:?}"
    );
}

/// Mutant: the route demoted from a pure function to a mutable
/// "rebalance cache" read with `Relaxed` per message, while a
/// rebalancer thread retargets the flow mid-stream. The flow then
/// splits across rings and the harvest order breaks FIFO — the checker
/// must find that schedule.
#[test]
fn model_per_destination_fifo_rebalance_cache_mutant_is_caught() {
    let failure = Checker::new()
        .max_schedules(30_000)
        .check(|| {
            let rings: Arc<[SubmitRing<u64>; 2]> =
                Arc::new([SubmitRing::new(8), SubmitRing::new(8)]);
            let cache = Arc::new(AtomicUsize::new(1));
            let (r, c) = (Arc::clone(&rings), Arc::clone(&cache));
            let producer = thread::spawn(move || {
                for msg in [1u64, 2, 3] {
                    // mutant: route read from a mutable cache, not
                    // recomputed from the flow key.
                    r[c.load(Ordering::Relaxed)].push(msg);
                }
            });
            // Rebalancer retargets the flow while it is in flight.
            cache.store(0, Ordering::Relaxed);
            producer.join();
            let mut merged = Vec::new();
            for shard in 0..2 {
                while let Some(v) = rings[shard].pop() {
                    merged.push(v);
                }
            }
            assert_eq!(
                merged,
                [1, 2, 3],
                "per-destination FIFO broken by the racy route"
            );
        })
        .expect_err("the rebalance-cache mutant must be caught");
    assert!(
        failure.message.contains("per-destination FIFO broken"),
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

/// The two shard suites together explore at least ten thousand
/// schedules, none truncated — the acceptance bar for this suite. Run
/// without state dedup so the count reflects every distinct
/// interleaving actually executed, not just its canonical states.
#[test]
fn model_shard_suites_cover_ten_thousand_schedules() {
    let suites = [
        check_cross_shard_id_watermark(false),
        check_per_destination_fifo(false),
    ];
    let total: u64 = suites.iter().map(|s| s.schedules).sum();
    let truncated: u64 = suites.iter().map(|s| s.truncated).sum();
    assert!(
        total >= 10_000,
        "shard model suites underexplored: {total} schedules across {suites:?}"
    );
    assert_eq!(truncated, 0, "a shard model hit the step bound: {suites:?}");
}
