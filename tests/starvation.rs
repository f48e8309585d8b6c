//! Starvation regression: under a saturating flood of `Urgent`
//! traffic, a `Bulk` flow still completes within the aging bound of
//! the priority-lane strategy.
//!
//! [`StratLanes`] promotes a segment one lane per `age_step`
//! submissions that entered the window after it, so a `Bulk` segment
//! is served as `Urgent` after at most `3 * age_step` submissions —
//! starvation-freedom is a bound, not a hope. This test drives the
//! engine-level co-simulation (not the strategy in isolation): one
//! Bulk message is submitted, then Urgent messages flood the same
//! destination fast enough that the urgent lane never empties, and we
//! count how many urgent completions the Bulk flow had to wait
//! through. Everything is seeded and virtual-time deterministic, so
//! the bound is exact and can gate in CI.

use newmadeleine::core::prelude::*;
use newmadeleine::net::sim::SimDriver;
use newmadeleine::net::Driver;
use newmadeleine::sim::{nic, run_until, shared_world, NodeId, SharedWorld, SimConfig};
use std::ops::ControlFlow;

/// Urgent messages big enough that one frame (rendezvous threshold of
/// payload) drains only a handful of them: the flood stays saturating
/// with a modest outstanding backlog.
const URGENT_MIN: usize = 2_048;
const URGENT_SPREAD: usize = 2_048;

/// Outstanding urgent messages kept in flight at all times.
const BACKLOG: usize = 64;

/// Flood size cap; far above the aging bound, so hitting it means the
/// Bulk flow starved.
const MAX_URGENT: usize = 4_000;

const SEED: u64 = 0x5EED_1A9E;

/// Deterministic size jitter for the flood (splitmix64 step).
fn jitter(i: u64) -> u64 {
    let mut z = SEED.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn engine(world: &SharedWorld, node: u32) -> NmadEngine {
    let driver = SimDriver::new(world.clone(), NodeId(node), newmadeleine::sim::RailId(0));
    let meter = Box::new(driver.meter());
    NmadEngine::new(
        vec![Box::new(driver) as Box<dyn Driver>],
        meter,
        Box::new(StratLanes::new()),
        EngineCosts::zero(),
    )
}

#[test]
fn bulk_flow_completes_within_the_aging_bound_under_urgent_flood() {
    let age_step = StratLanes::new().age_step;
    let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
    let mut tx = engine(&world, 0);
    let mut rx = engine(&world, 1);

    // The Bulk message goes in first; the flood starts right behind
    // it. Half a frame of payload: far too big to ride along in the
    // slack a saturated frame leaves behind the urgent aggregate, so
    // only aging promotion — which moves it to the *front* of the
    // schedule scan — can get it on the wire.
    let bulk_len = 16_384usize;
    let bulk_recv = rx.post_recv(NodeId(0), Tag(0), bulk_len);
    let bulk_send = tx.submit_send_parts(
        NodeId(1),
        Tag(0),
        vec![(bytes::Bytes::from(vec![0xB5u8; bulk_len]), Priority::Bulk)],
        None,
    );

    let mut submitted = 0usize;
    let mut outstanding: Vec<(RecvReqId, usize)> = Vec::new(); // recv, index
    let mut urgent_done_before_bulk = 0usize;
    let mut bulk_done_at_submissions: Option<usize> = None;

    run_until(&world, || {
        // Keep the urgent lane saturated.
        while submitted < MAX_URGENT && outstanding.len() < BACKLOG {
            let len = URGENT_MIN + (jitter(submitted as u64) as usize % URGENT_SPREAD);
            let tag = Tag(1 + submitted as u32);
            let req = rx.post_recv(NodeId(0), tag, len);
            tx.submit_send_parts(
                NodeId(1),
                tag,
                vec![(bytes::Bytes::from(vec![0xF1u8; len]), Priority::Urgent)],
                None,
            );
            outstanding.push((req, submitted));
            submitted += 1;
        }

        let moved = tx.progress_until_idle() | rx.progress_until_idle();

        if bulk_done_at_submissions.is_none() && rx.is_recv_done(bulk_recv) {
            bulk_done_at_submissions = Some(submitted);
        }
        let mut i = 0;
        while i < outstanding.len() {
            if rx.is_recv_done(outstanding[i].0) {
                rx.try_take_recv(outstanding[i].0);
                if bulk_done_at_submissions.is_none() {
                    urgent_done_before_bulk += 1;
                }
                outstanding.swap_remove(i);
            } else {
                i += 1;
            }
        }

        if bulk_done_at_submissions.is_some()
            && submitted == MAX_URGENT
            && outstanding.is_empty()
            && tx.is_send_done(bulk_send)
        {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(moved)
        }
    })
    .expect("starvation sim");

    // The Bulk flow completed at all — and within the aging bound.
    // Promotion to the urgent lane takes at most NUM_LANES - 1 age
    // steps of submissions; allow the in-flight backlog plus one frame
    // worth of same-instant completions as slack.
    let bound = 3 * age_step as usize + 2 * BACKLOG;
    let done_at = bulk_done_at_submissions.unwrap_or_else(|| {
        panic!("bulk flow starved: {MAX_URGENT} urgent messages completed first")
    });
    assert!(
        urgent_done_before_bulk <= bound,
        "bulk waited through {urgent_done_before_bulk} urgent completions, aging bound is {bound}"
    );
    assert!(
        done_at <= bound,
        "bulk completed only after {done_at} urgent submissions, aging bound is {bound}"
    );
    // The flood really did defer it: without lane pressure the bulk
    // message would complete among the first few — aging, not luck,
    // is what un-starved it.
    assert!(
        urgent_done_before_bulk >= age_step as usize,
        "flood was not saturating: only {urgent_done_before_bulk} urgent completions before bulk"
    );
}
